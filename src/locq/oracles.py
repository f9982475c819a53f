"""Closed forms that only the tests use as oracles.

The CLI does not import this module, so a CLI process never compiles it.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import DegenerateParametersError, PochhammerZeroDivisionError
from .localization import SphereFactor, SphereProductSpace
from .qhyper import BilateralSeriesSpec


def _closed_parts(factor: SphereFactor, c):
    """The closed form 4 pi r^2 sinh(x) / x, x = c mu r, as (m, e), the value
    m 2^e: r = r' 2^e' by frexp, so m = 4 pi r'^2 sinh(x) / x and e = 2 e'.
    Neither r^2 nor r / (c mu) is formed, and sinh(x) / x is 1 at x = 0."""
    mantissa, exponent = math.frexp(factor.radius)
    x = c * factor.weight * factor.radius
    if x == 0:
        shape = 1.0
    else:
        shape = (cmath.sinh(x) if isinstance(x, complex) else math.sinh(x)) / x
    return 4.0 * math.pi * mantissa * mantissa * shape, 2 * exponent


def _times_two_to(value, e):
    """value 2^e, with inf of value's sign where that overflows a double."""
    if isinstance(value, complex):
        return complex(_times_two_to(value.real, e), _times_two_to(value.imag, e))
    try:
        return math.ldexp(value, e)
    except OverflowError:
        return math.copysign(math.inf, value)


def factor_integral_closed(factor: SphereFactor, c):
    """Closed form 4 pi r sinh(c mu r) / (c mu); the c -> 0 limit is 4 pi r^2."""
    return _times_two_to(*_closed_parts(factor, c))


def dh_lhs_closed(space: SphereProductSpace, c):
    """Closed-form Liouville integral of e^(c H), for cross-checking the quadratures.

    The factors' mantissas are multiplied and their binary exponents added,
    so the product is finite wherever it is a double, though a factor's
    r^2 or r / (c mu) alone may not be.
    """
    out = 1.0 + 0.0j if isinstance(c, complex) else 1.0
    exponent = 0
    for f in space.factors:
        mantissa, e = _closed_parts(f, c)
        out *= mantissa
        exponent += e
    return _times_two_to(out, exponent)


def psi_term(spec: BilateralSeriesSpec, n: int):
    """Term of the bilateral series at index n, evaluated zero-safely.

    The Pochhammer ratio is accumulated factor index by factor index (all
    parameters at q^k jointly), which keeps intermediate magnitudes near
    the size of the final ratio: separate numerator/denominator products
    overflow floats for negative n even when the ratio is tame.  A
    denominator-parameter factor that vanishes (e.g. a parameter equal to
    q at negative n) yields an exact zero term; a genuinely infinite term
    raises.
    """
    one = Fraction(1) if isinstance(spec.q * spec.z, Fraction) else complex(1.0)
    if n >= 0:
        top_params, bot_params = spec.numerator_params, spec.denominator_params
        qpowers = [spec.q**k for k in range(n)]
    else:
        # for n < 0 every Pochhammer flips to a reciprocal, so the roles swap
        top_params, bot_params = spec.denominator_params, spec.numerator_params
        qpowers = [spec.q ** (-k) for k in range(1, -n + 1)]
    top_zero = any(one - p * qk == 0 for qk in qpowers for p in top_params)
    bot_zero = any(one - p * qk == 0 for qk in qpowers for p in bot_params)
    if top_zero and bot_zero:
        raise DegenerateParametersError(
            f"term at n={n} is 0/0: numerator and denominator Pochhammers both vanish"
        )
    if bot_zero:
        raise PochhammerZeroDivisionError(
            f"term at n={n} is infinite: a denominator Pochhammer vanishes"
        )
    if top_zero:
        return one * 0
    ratio = one
    for qk in qpowers:
        top = one
        for p in top_params:
            top *= one - p * qk
        bot = one
        for p in bot_params:
            bot *= one - p * qk
        ratio *= top / bot
    if spec.z == 0:
        # only the n=0 term survives at z=0
        return ratio if n == 0 else one * 0
    s_minus_r = len(spec.denominator_params) - len(spec.numerator_params)
    sign = -1 if s_minus_r * n % 2 else 1
    qpow_exp = s_minus_r * (n * (n - 1) // 2)
    return ratio * sign * spec.q**qpow_exp * spec.z**n
