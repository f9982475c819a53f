"""Numerical evaluation of the spectral-function infinite products.

A product prod_{n>=ell} (1 -/+ q^(a n + epsilon)) with q = e^(2 pi i tau)
is represented by its parameter tuple; the spectral argument s is derived
from the parameters via the affine map s_of_params and stored alongside.
Complex powers use q^x := e^(2 pi i tau x) exactly, never a principal
branch recomputed from the value of q, so q^x is an entire function of x.
"""

from __future__ import annotations

import cmath
import math
import os
import sys
from dataclasses import dataclass
from typing import Literal

from .errors import NonConvergentError, ToleranceUnreachableError

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


@dataclass(frozen=True, slots=True)
class Tau:
    """Modular parameter in the upper half-plane."""

    value: complex

    def __post_init__(self):
        if not self.value.imag > 0:
            raise ValueError(f"tau must have positive imaginary part, got {self.value}")


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


@dataclass(frozen=True, slots=True)
class SpectralParams:
    """Parameter tuple (a, epsilon, ell, sign, tau) of one infinite product."""

    a: float
    epsilon: complex
    ell: int
    sign: Branch
    tau: Tau

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError("a must be a positive real number")
        if self.ell < 0:
            raise ValueError("ell must be a nonnegative integer")
        if self.sign not in ("minus", "plus"):
            raise ValueError("sign must be 'minus' or 'plus'")
        if abs(q_power(self.tau, self.a)) >= 1:
            raise NonConvergentError("|q|^a must be < 1 for the product to converge")

    def with_sign(self, sign: Branch) -> "SpectralParams":
        return SpectralParams(self.a, self.epsilon, self.ell, sign, self.tau)


@dataclass(frozen=True, slots=True)
class SValue:
    """Spectral argument with the branch that produced it."""

    s: complex
    branch: Branch


def s_of_params(p: SpectralParams) -> SValue:
    """Affine parameter map s = (a*ell + eps)(1 - i rho(tau)) + 1 - a [+ i sigma(tau)].

    The plus branch adds i*sigma(tau) on top of the minus-branch value.
    """
    base = (p.a * p.ell + p.epsilon) * (1 - 1j * rho(p.tau)) + 1 - p.a
    if p.sign == "plus":
        return SValue(base + 1j * sigma(p.tau), "plus")
    return SValue(base, "minus")


@dataclass(frozen=True, slots=True)
class ProductValue:
    value: complex
    factors_used: int
    s: SValue


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
    """
    if not math.isfinite(scale):
        raise ValueError(f"a geometric tail needs a finite scale, got {scale}")
    if not ratio < 1:
        raise NonConvergentError(f"a geometric tail needs ratio < 1, got {ratio}")
    if cap is None:
        cap = factor_cap()
    m = 1
    while not scale * ratio ** (offset + m) / (1.0 - ratio) < threshold:
        m += 1
        if m > cap:
            raise ToleranceUnreachableError(
                f"needed more than {cap} factors for a tail below {threshold}"
            )
    return m


def evaluate_product(p: SpectralParams, rel_tol: float = 1e-12) -> ProductValue:
    """Evaluate prod_{n>=ell} (1 -/+ q^(a n + epsilon)) to relative tolerance.

    The factor count M is the smallest with
        sum_{n>=ell+M} |q^(a n + epsilon)| < rel_tol / 2,
    a valid bound for the dropped log-factors since |log(1 -/+ w)| <= 2|w|
    for |w| <= 1/2 and the tail factors are eventually that small.  Raises
    ToleranceUnreachable when M would exceed LOCQ_MAX_FACTORS.
    """
    check_tolerance(rel_tol, "rel_tol")
    tau = p.tau
    # |q^x| for complex x under the q^x = e^(2 pi i tau x) convention
    scale, ratio = abs(q_power(tau, p.epsilon)), abs(q_power(tau, p.a))
    used = factor_count(scale, ratio, p.ell, rel_tol / 2)
    sign = -1.0 if p.sign == "minus" else 1.0
    value = 1 + 0j
    for n in range(p.ell, p.ell + used):
        value *= 1.0 + sign * q_power(tau, p.a * n + p.epsilon)
    return ProductValue(value=value, factors_used=used, s=s_of_params(p))


@dataclass(frozen=True, slots=True)
class ShiftCheck:
    difference: complex
    expected: complex
    passed: bool


def branch_shift_check(p: SpectralParams) -> ShiftCheck:
    """Verify s(plus) - s(minus) == i*sigma(tau) up to its two roundings.

    s(plus) is s(minus) + i*sigma rounded, and the difference is rounded
    again; each rounding is at most eps * max(|s(plus)|, |s(minus)|).
    """
    s_minus = s_of_params(p.with_sign("minus")).s
    s_plus = s_of_params(p.with_sign("plus")).s
    expected = 1j * sigma(p.tau)
    diff = s_plus - s_minus
    bound = 2 * sys.float_info.epsilon * max(abs(s_plus), abs(s_minus))
    return ShiftCheck(difference=diff, expected=expected,
                      passed=abs(diff - expected) <= bound)
