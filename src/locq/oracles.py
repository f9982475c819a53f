"""Closed forms and constructors that only the tests use as oracles.

The CLI does not import this module, so a CLI process never compiles it.
"""

from __future__ import annotations

import cmath
import math

from .localization import SphereFactor, SphereProductSpace
from .pfaffian import SkewMatrix


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


def block_diagonal(lambdas) -> SkewMatrix:
    """Assemble the skew matrix with 2x2 blocks [[0, -l], [l, 0]]."""
    import numpy as np

    lams = list(lambdas)
    d = 2 * len(lams)
    m = np.zeros((d, d))
    for j, lam in enumerate(lams):
        m[2 * j, 2 * j + 1] = -lam
        m[2 * j + 1, 2 * j] = lam
    return SkewMatrix(m)
