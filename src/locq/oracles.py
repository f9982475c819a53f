"""Closed forms and constructors that only the tests use as oracles.

The CLI does not import this module, so a CLI process never compiles it.
"""

from __future__ import annotations

import cmath
import math

from .localization import SphereFactor, SphereProductSpace
from .pfaffian import SkewMatrix


def factor_integral_closed(factor: SphereFactor, c):
    """Closed form 4 pi r sinh(c mu r) / (c mu); the c -> 0 limit is 4 pi r^2."""
    x = c * factor.weight * factor.radius
    if x == 0:
        return 4.0 * math.pi * factor.radius**2
    sinh = cmath.sinh(x) if isinstance(x, complex) else math.sinh(x)
    return 4.0 * math.pi * factor.radius * sinh / (c * factor.weight)


def dh_lhs_closed(space: SphereProductSpace, c):
    """Closed-form Liouville integral of e^(c H), for cross-checking the quadratures."""
    out = 1.0 + 0.0j if isinstance(c, complex) else 1.0
    for f in space.factors:
        out *= factor_integral_closed(f, c)
    return out


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
