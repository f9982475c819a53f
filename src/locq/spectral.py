"""Numerical evaluation of the spectral-function infinite products.

A product prod_{n>=ell} (1 -/+ q^(a n + epsilon)) with q = e^(2 pi i tau)
is represented by its parameter tuple; the spectral argument s is derived
from the parameters via the affine map s_of_params.
Complex powers use q^x := e^(2 pi i tau x) exactly, never a principal
branch recomputed from the value of q, so q^x is an entire function of x.
"""

from __future__ import annotations

import cmath
import itertools
import math
import os
import sys
from fractions import Fraction
from typing import Literal, NamedTuple

from .errors import NonConvergentError, ToleranceUnreachableError, is_normal, require_double

TWO_PI = 2.0 * math.pi

Branch = Literal["minus", "plus"]


def factor_cap() -> int:
    """Cap on the factors of any truncated infinite product.

    Read from LOCQ_MAX_FACTORS on every call (default 10**6); a value that
    is not a positive integer raises ValueError.
    """
    text = os.environ.get("LOCQ_MAX_FACTORS")
    if text is None:
        return 10**6
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"LOCQ_MAX_FACTORS must be a positive integer, got {text!r}")
    return cap


def check_tolerance(tol: float, name: str = "tol") -> None:
    """Reject a tolerance unless 0 < tol < infinity (NaN included)."""
    if not 0 < tol < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {tol}")


class _TauFields(NamedTuple):
    value: complex


class Tau(_TauFields):
    """Modular parameter in the upper half-plane."""

    __slots__ = ()

    def __new__(cls, value: complex):
        if not cmath.isfinite(value):
            raise ValueError(f"tau must have finite real and imaginary parts, got {value!r}")
        if not value.imag > 0:
            raise ValueError(f"tau must have positive imaginary part, got {value}")
        return super().__new__(cls, value)


def rho(tau: Tau) -> float:
    """Re(tau) / Im(tau)."""
    return tau.value.real / tau.value.imag


def sigma(tau: Tau) -> float:
    """1 / (2 Im(tau))."""
    return 1.0 / (2.0 * tau.value.imag)


def q_power(tau: Tau, exponent: complex) -> complex:
    """q**exponent with q = e^(2 pi i tau), computed as e^(2 pi i tau exponent)."""
    return cmath.exp(2j * math.pi * tau.value * exponent)


def nome(tau: Tau) -> complex:
    return q_power(tau, 1)


class _SpectralFields(NamedTuple):
    a: float
    epsilon: complex
    ell: int
    sign: Branch
    tau: Tau


class SpectralParams(_SpectralFields):
    """Parameter tuple (a, epsilon, ell, sign, tau) of one infinite product."""

    __slots__ = ()

    def __new__(cls, a: float, epsilon: complex, ell: int, sign: Branch, tau: Tau):
        if not 0 < a < math.inf:
            raise ValueError(f"a must be a positive finite real number, got {a!r}")
        if not cmath.isfinite(epsilon):
            raise ValueError(f"epsilon must be finite, got {epsilon!r}")
        if ell < 0:
            raise ValueError("ell must be a nonnegative integer")
        if sign not in ("minus", "plus"):
            raise ValueError("sign must be 'minus' or 'plus'")
        if abs(q_power(tau, a)) >= 1:
            raise NonConvergentError("|q|^a must be < 1 for the product to converge")
        return super().__new__(cls, a, epsilon, ell, sign, tau)

    def with_sign(self, sign: Branch) -> "SpectralParams":
        return SpectralParams(self.a, self.epsilon, self.ell, sign, self.tau)


def s_of_params(p: SpectralParams) -> complex:
    """Affine parameter map s = (a*ell + eps)(1 - i rho(tau)) + 1 - a [+ i sigma(tau)].

    The plus branch adds i*sigma(tau) on top of the minus-branch value.
    """
    base = (p.a * p.ell + p.epsilon) * (1 - 1j * rho(p.tau)) + 1 - p.a
    if p.sign == "plus":
        return base + 1j * sigma(p.tau)
    return base


class ProductValue(NamedTuple):
    value: complex
    factors_used: int


def factor_count(scale: float, ratio: float, offset: int, threshold: float,
                 cap: int | None = None) -> int:
    """Factors an infinite product needs: the least m >= 1 with

        scale * ratio ** (offset + m) / (1 - ratio) < threshold,

    the geometric tail bound after m factors whose n-th term is bounded
    by scale * ratio ** (offset + n).  The one truncation rule of every
    numeric infinite product.  Raises ValueError for a NaN or infinite
    scale, which no m can meet, NonConvergent unless ratio < 1 and
    ToleranceUnreachable once m would exceed LOCQ_MAX_FACTORS.  A caller
    that counts many products at once may pass factor_cap() as `cap`.

    The float predicate is monotone in m, so m is found without a walk
    from 1: a request is refused at once unless the predicate holds at the
    cap, and otherwise m steps to the least m that meets it from the real
    solution of scale ratio^(offset + m) = threshold (1 - ratio), in logs.
    """
    if not math.isfinite(scale):
        raise ValueError(f"a geometric tail needs a finite scale, got {scale}")
    if not ratio < 1:
        raise NonConvergentError(f"a geometric tail needs ratio < 1, got {ratio}")
    if cap is None:
        cap = factor_cap()
    room = 1.0 - ratio
    if scale * ratio ** (offset + 1) / room < threshold:
        return 1
    # m = 1 fails, so no m meets a threshold <= 0 or a scale <= 0, and ratio > 0
    if not (threshold > 0 and scale > 0 and scale * ratio ** (offset + cap) / room < threshold):
        raise ToleranceUnreachableError(
            f"needed more than {cap} factors for a tail below {threshold}"
        )
    exact = (math.log(threshold) + math.log1p(-ratio) - math.log(scale)) / math.log(ratio)
    m = min(max(math.ceil(exact) - offset, 2), cap)
    while not scale * ratio ** (offset + m) / room < threshold:
        m += 1
    while scale * ratio ** (offset + m - 1) / room < threshold:
        m -= 1
    return m


def evaluate_product(p: SpectralParams, rel_tol: float = 1e-12) -> ProductValue:
    """Evaluate prod_{n>=ell} (1 -/+ q^(a n + epsilon)) to relative tolerance.

    The factor count M is the smallest with
        sum_{n>=ell+M} |q^(a n + epsilon)| < rel_tol / 2,
    a valid bound for the dropped log-factors since |log(1 -/+ w)| <= 2|w|
    for |w| <= 1/2 and the tail factors are eventually that small.  Raises
    ToleranceUnreachable when M would exceed LOCQ_MAX_FACTORS, and a
    ValueError naming |q^epsilon| or the product where either is not a
    finite, normal double (nor the product 0 by a factor that is exactly 0:
    one of the minus sign with a n + epsilon = 0 at the input doubles).
    """
    check_tolerance(rel_tol, "rel_tol")
    tau = p.tau
    # |q^x| for complex x under the q^x = e^(2 pi i tau x) convention
    try:
        scale = abs(q_power(tau, p.epsilon))
    except OverflowError:
        require_double(f"|q^epsilon| = |e^(2 pi i tau epsilon)| at tau = {tau.value!r}, "
                       f"epsilon = {p.epsilon!r}", math.inf)
    used = factor_count(scale, abs(q_power(tau, p.a)), p.ell, rel_tol / 2)
    value = math.prod(_product_factors(p, used), start=1 + 0j)
    if not is_normal(value):
        epsilon = complex(p.epsilon)
        refuse_product(f"prod_(n>={p.ell}) (1 {'-' if p.sign == 'minus' else '+'} "
                       f"q^(a n + epsilon))", _product_factors(p, used), "n", p.ell,
                       lambda n: p.sign == "minus" and epsilon.imag == 0
                       and Fraction(p.a) * n + Fraction(epsilon.real) == 0)
    return ProductValue(value=value, factors_used=used)


def _product_factors(p: SpectralParams, used: int):
    """The factors 1 -/+ q^(a n + epsilon), n = ell .. ell + used - 1.

    With z = 2 pi i tau (a n + epsilon), the minus sign's 1 - e^z cancels
    as z -> 0, so where |z| < 1/4 the factor is -2 e^(z/2) sinh(z/2).  Those
    n form one window, |a n + epsilon| < r = 1 / (8 pi |tau|), found before
    the walk; every other factor is 1 -/+ q_power(tau, a n + epsilon).
    """
    tau, a, eps = p.tau, p.a, complex(p.epsilon)
    sign = -1.0 if p.sign == "minus" else 1.0
    stop = p.ell + used
    first = last = stop
    r = 0.25 / (TWO_PI * abs(tau.value))
    if sign < 0 and abs(eps.imag) < r:
        # the n in [ell, stop) with |a n + Re(epsilon)| < half
        half = math.sqrt((r - abs(eps.imag)) * (r + abs(eps.imag)))
        first = math.floor(min(max((-eps.real - half) / a, p.ell - 1), stop - 1)) + 1
        last = math.ceil(max(min((half - eps.real) / a, stop), first))

    def plain(ns):
        return (1.0 + sign * q_power(tau, a * n + p.epsilon) for n in ns)

    def small(ns):
        for n in ns:
            h = 1j * math.pi * tau.value * (a * n + p.epsilon)
            yield -2.0 * cmath.exp(h) * cmath.sinh(h)

    return itertools.chain(plain(range(p.ell, first)), small(range(first, last)),
                           plain(range(last, stop)))


def refuse_product(product: str, factors, index: str, start: int, exact_zero):
    """Raise require_double's ValueError for a product of complex `factors`
    that is not a finite double, or is below the normal doubles with no
    factor exactly 0 (else it returns), naming the factor from which every
    partial product is so.  A factor k that is 0 in doubles is exactly 0 iff
    exact_zero(k): one that only rounds to 0 leaves the product with no digit."""
    value, zero, below = 1 + 0j, False, start
    for k, factor in enumerate(factors, start):
        value *= factor
        zero = zero or (factor == 0 and exact_zero(k))
        if is_normal(value):
            below = k + 1
        elif not cmath.isfinite(value):
            require_double(f"the product {product} from its factor {index} = {k} on", value)
    if not zero:
        require_double(f"the product {product} from its factor {index} = {below} on", value,
                       normal=True)


class ShiftCheck(NamedTuple):
    difference: complex
    expected: complex
    passed: bool


def branch_shift_check(p: SpectralParams) -> ShiftCheck:
    """Verify s(plus) - s(minus) == i*sigma(tau) up to its two roundings.

    s(plus) is s(minus) + i*sigma rounded, and the difference is rounded
    again; each rounding is at most eps * max(|s(plus)|, |s(minus)|).
    """
    s_minus = s_of_params(p.with_sign("minus"))
    s_plus = s_of_params(p.with_sign("plus"))
    expected = 1j * sigma(p.tau)
    diff = s_plus - s_minus
    bound = 2 * sys.float_info.epsilon * max(abs(s_plus), abs(s_minus))
    return ShiftCheck(difference=diff, expected=expected,
                      passed=abs(diff - expected) <= bound)
