"""Exact-localization checks on products of round 2-spheres.

Model space: a product of spheres, factor i carried in cylindrical
coordinates (z, phi) with z in [-r_i, r_i], area form r_i dz ^ dphi and
Hamiltonian contribution mu_i * z.  Solving iota(X) sigma = -dH gives a
rigid rotation at angular speed mu_i / r_i, so the fixed points are the
pole combinations, the Hamiltonian there is sum_i s_i mu_i r_i, and the
linearization rotates at +-mu_i/r_i.  On this model the localization
identity

    integral e^(c H) dLiouville  ==  (2 pi / c)^n  sum_poles e^(c H(p)) / prod_j l_j

holds exactly, which makes it a machine-checkable oracle: the left side is
evaluated by Gauss-Legendre quadrature, the right side by the fixed-point
sum with the sqrt-det sign convention of locq.pfaffian.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np

from .errors import DegenerateWeightError
from . import pfaffian as _pf

TWO_PI = 2.0 * math.pi

# NumPy's leggauss(n) builds an n x n companion matrix, and a product of n
# spheres has 2^n fixed points; both are bounded before anything is built.
MAX_QUAD_POINTS = 1024
MAX_FACTORS = 16
# The real fixed-point sum runs at the precision its cancellation needs
# (fixed_point_digits); this caps that precision, and so the cost of each
# Decimal operation, before any work.
MAX_DECIMAL_DIGITS = 1000
# e^(c H) fits a double while |Re c| * max_p |H(p)| stays below this.
LOG_FLOAT_MAX = math.log(sys.float_info.max)
# Step of the central difference in _numerical_rate.
RATE_STEP = 1e-6


@dataclass(frozen=True, slots=True)
class SphereFactor:
    """One round 2-sphere: radius and Hamiltonian weight."""

    radius: float
    weight: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and math.isfinite(self.weight)):
            raise ValueError(
                f"radius and weight must be finite, got {self.radius}, {self.weight}"
            )
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.weight == 0:
            raise DegenerateWeightError("zero weight makes the fixed circles non-isolated")

    @property
    def rate(self) -> float:
        """Angular speed of the Hamiltonian rotation."""
        return self.weight / self.radius


@dataclass(frozen=True, slots=True)
class SphereProductSpace:
    """Product of round 2-spheres, oriented by the product of area forms."""

    factors: tuple[SphereFactor, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("at least one sphere factor is required")

    @classmethod
    def of(cls, *pairs: tuple[float, float]) -> "SphereProductSpace":
        return cls(tuple(SphereFactor(r, mu) for r, mu in pairs))

    @property
    def half_dim(self) -> int:
        return len(self.factors)


@dataclass(frozen=True, slots=True)
class FixedPoint:
    """A pole combination with its Hamiltonian value and rotation rates."""

    pole_signs: tuple[int, ...]
    h_value: float
    lambdas: tuple[float, ...]


def enumerate_fixed_points(space: SphereProductSpace, numerical: bool = False):
    """All 2^n pole combinations, with analytic linearization rates s*mu/r.

    The points are built by subset doubling: each factor splits every point
    into its north (+1) and south (-1) child, so H costs one add per point,
    and the sign and rate tuples come from itertools.product over the
    per-factor pairs.  The order is that of
    itertools.product((1, -1), repeat=n), first factor slowest, and H is the
    left-to-right sum sum_i s_i mu_i r_i from int 0.

    With numerical=True the rates are instead extracted by finite
    differencing the ambient rotation field in an oriented tangent frame
    at each pole (cross-check path), two per factor.  More than MAX_FACTORS
    factors are rejected.
    """
    if space.half_dim > MAX_FACTORS:
        raise ValueError(
            f"at most {MAX_FACTORS} sphere factors (2^{MAX_FACTORS} fixed points), "
            f"got {space.half_dim}"
        )
    # s * (mu * r) == (s * mu) * r exactly for s = +-1, so each factor adds
    # +-(mu * r) to its parent's H
    h_values = [0]
    for f in space.factors:
        steps = (f.weight * f.radius, -(f.weight * f.radius))
        h_values = [h + step for h in h_values for step in steps]
    if numerical:
        rate_pairs = [(_numerical_rate(f, 1), _numerical_rate(f, -1)) for f in space.factors]
    else:
        rate_pairs = [(f.rate, -f.rate) for f in space.factors]
    return list(map(
        FixedPoint,
        itertools.product((1, -1), repeat=space.half_dim),
        h_values,
        itertools.product(*rate_pairs),
    ))


def _numerical_rate(factor: SphereFactor, pole_sign: int) -> float:
    """Linearization rate at a pole from the ambient field V(p) = rate * z_hat x p.

    The tangent frame at the pole is oriented against the outward normal:
    (x_hat, y_hat) at the north pole, (y_hat, x_hat) at the south pole.
    Returns l with V ~ l * (frame rotation generator).
    """
    rate = factor.rate
    r = factor.radius

    def field(p):
        return np.array([-rate * p[1], rate * p[0], 0.0])

    pole = np.array([0.0, 0.0, pole_sign * r])
    ex = np.array([1.0, 0.0, 0.0])
    ey = np.array([0.0, 1.0, 0.0])
    e1, e2 = (ex, ey) if pole_sign > 0 else (ey, ex)
    dv = (field(pole + RATE_STEP * e1) - field(pole - RATE_STEP * e1)) / (2 * RATE_STEP)
    return float(dv @ e2)


@lru_cache(maxsize=32)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _check_c(c, allow_zero: bool = False) -> None:
    """Reject non-finite c (and zero unless allowed) before any cache sees it."""
    if not cmath.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    if c == 0 and not allow_zero:
        raise ValueError("c must be nonzero")


# Per-factor results are pure functions of (factor, c, ...) and a verify
# pass sees few distinct pairs, so they are cached.  typed=True keeps
# 1, 1.0 and 1+0j apart: equal keys, different result types.
@lru_cache(maxsize=1024, typed=True)
def factor_integral_quad(factor: SphereFactor, c, quad_points: int = 64):
    """2 pi r * integral_{-r}^{r} e^(c mu z) dz by Gauss-Legendre quadrature."""
    _check_c(c, allow_zero=True)
    if quad_points < 2:
        raise ValueError("quad_points must be at least 2")
    if quad_points > MAX_QUAD_POINTS:
        raise ValueError(f"quad_points must be at most {MAX_QUAD_POINTS}")
    x, w = _leggauss(quad_points)
    z = factor.radius * x
    if isinstance(c, complex):
        vals = np.exp(np.asarray(c * factor.weight * z, dtype=complex))
        total = complex(np.dot(w, vals))
    else:
        total = float(np.dot(w, np.exp(c * factor.weight * z)))
    return TWO_PI * factor.radius * factor.radius * total


def factor_integral_closed(factor: SphereFactor, c):
    """Closed form 4 pi r sinh(c mu r) / (c mu); the c -> 0 limit is 4 pi r^2."""
    x = c * factor.weight * factor.radius
    if x == 0:
        return 4.0 * math.pi * factor.radius**2
    sinh = cmath.sinh(x) if isinstance(x, complex) else math.sinh(x)
    return 4.0 * math.pi * factor.radius * sinh / (c * factor.weight)


def dh_lhs(space: SphereProductSpace, c, quad_points: int = 64):
    """Liouville integral of e^(c H): product of per-factor quadratures."""
    _check_c(c)
    out = 1.0 + 0.0j if isinstance(c, complex) else 1.0
    for f in space.factors:
        out *= factor_integral_quad(f, c, quad_points)
    return out


def dh_lhs_closed(space: SphereProductSpace, c):
    """Closed-form counterpart of dh_lhs, for cross-checking the quadrature."""
    out = 1.0 + 0.0j if isinstance(c, complex) else 1.0
    for f in space.factors:
        out *= factor_integral_closed(f, c)
    return out


def fixed_point_digits(space: SphereProductSpace, c) -> int | None:
    """Decimal working precision of the real fixed-point sum; None for complex c.

    Rejects, before any work, a c at which e^(c H) overflows a double at
    some fixed point, and, after the precision cap below, one at which the
    prefactor (2 pi / c)^n is not finite (_prefactor).  For real c the sum
    equals prod_i 2 sinh(x_i) / rate_i with x_i = c mu_i r_i, while its
    largest term is prod_i e^|x_i| / |rate_i|, so it cancels
    D = -sum_i log10(1 - e^(-2|x_i|)) digits.  It runs at
    max(40, 20 + ceil(D)) digits, at most MAX_DECIMAL_DIGITS.
    """
    return _size_sum(space, c)[0]


def _size_sum(space: SphereProductSpace, c):
    """(fixed_point_digits(space, c), _prefactor(space, c)), each computed once."""
    scales = [abs(f.weight * f.radius) for f in space.factors]
    exponent = abs(c.real) * sum(scales)
    if not exponent <= LOG_FLOAT_MAX:
        raise ValueError(
            f"overflow: e^(c H) exceeds the largest double, since |Re c| * sum |mu_i r_i| "
            f"= {exponent!r} > log(sys.float_info.max) = {LOG_FLOAT_MAX!r}"
        )
    if isinstance(c, complex):
        digits = None
    else:
        loss = 0.0
        for scale in scales:
            kept = -math.expm1(-2.0 * abs(c) * scale)  # 1 - e^(-2|x|), accurate at tiny x
            loss -= math.log10(kept) if kept > 0 else -math.inf
        if not loss <= MAX_DECIMAL_DIGITS - 20:
            raise ValueError(
                f"the fixed-point sum at c = {c!r} cancels {loss:.1f} digits, so it needs "
                f"more than MAX_DECIMAL_DIGITS = {MAX_DECIMAL_DIGITS} decimal digits"
            )
        digits = max(40, 20 + math.ceil(loss))
    return digits, _prefactor(space, c)


def _prefactor(space: SphereProductSpace, c):
    """The float (or complex) prefactor (2 pi / c)^n of the fixed-point sum.

    At tiny |c| it is not finite: 2 pi / c rounds to inf, the power
    overflows (a float power raises OverflowError) or a complex power
    comes out inf or nan.  Each case raises a ValueError that names it.
    """
    try:
        value = (TWO_PI / c) ** space.half_dim
    except OverflowError:
        value = math.inf
    if not cmath.isfinite(value):
        raise ValueError(
            f"overflow: the prefactor (2 pi / c)^n at c = {c!r}, n = {space.half_dim} "
            f"is not a finite double"
        )
    return value


@lru_cache(maxsize=1024, typed=True)
def _exp_pair(factor: SphereFactor, c, digits: int) -> tuple[Decimal, Decimal]:
    """(e^(c mu r), e^(-c mu r)) to `digits` significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        x = Decimal(c) * Decimal(factor.weight) * Decimal(factor.radius)
        return x.exp(), (-x).exp()


def dh_rhs(space: SphereProductSpace, c, via_sqrt_det: bool = False, points=None):
    """Fixed-point sum (2 pi / c)^n sum_p e^(c H(p)) / prod_j l_j.

    For real c the alternating sum cancels down to ~prod_i tanh(c mu_i r_i)
    of its largest term, far beyond double precision at small c; the terms
    are therefore accumulated in Decimal arithmetic at the precision
    fixed_point_digits sizes to that cancellation (at least 40 digits), which
    leaves about 20 significant digits in the sum before its rounding to a
    float.  The prefactor (2 pi / c)^n stays a float (or complex); where it
    is not finite, fixed_point_digits raises before any work.  The
    numerators prod_i e^(+-c mu_i r_i) are built by subset doubling, one
    Decimal multiply per point, in the order of enumerate_fixed_points; the
    per-factor exponential pairs are cached per (factor, c, digits).
    Complex c takes the plain complex path (used by the oscillatory smoke
    checks at looser tolerance).

    With via_sqrt_det=True the denominator prod_j l_j is obtained from
    locq.pfaffian.sqrt_det on the assembled block-diagonal linearization
    instead of multiplying the analytic rates.  `points` takes the output of
    enumerate_fixed_points(space) when the caller already has it.
    """
    _check_c(c)
    digits, prefactor = _size_sum(space, c)
    if points is None:
        points = enumerate_fixed_points(space)
    return _fixed_point_sum(space, c, points, digits, prefactor, via_sqrt_det)


def _fixed_point_sum(space: SphereProductSpace, c, points, digits, prefactor,
                     via_sqrt_det: bool = False):
    """dh_rhs once its check is sized: digits and prefactor are _size_sum's."""
    if via_sqrt_det:
        denominators = [_pf.sqrt_det(_pf.block_diagonal(p.lambdas)) for p in points]
    else:
        denominators = [math.prod(p.lambdas) for p in points]

    if isinstance(c, complex):
        total = 0.0 + 0.0j
        for p, den in zip(points, denominators):
            total += cmath.exp(c * p.h_value) / den
        return prefactor * total

    with localcontext() as ctx:
        ctx.prec = digits
        terms = [Decimal(1)]
        for f in space.factors:
            e_plus, e_minus = _exp_pair(f, c, digits)
            terms = [u for t in terms for u in (t * e_plus, t * e_minus)]
        # a float's Decimal conversion costs more than the division, and the
        # analytic denominators take two values, +-prod_i |rate_i|
        exact = {den: Decimal(den) for den in set(denominators)}
        total = Decimal(0)
        for term, den in zip(terms, denominators):
            total += term / exact[den]
        return prefactor * float(total)


@dataclass(frozen=True, slots=True)
class DHReport:
    lhs: float | complex
    rhs: float | complex
    rel_err: float
    fixed_points: tuple[FixedPoint, ...]
    decimal_digits: int | None


def dh_verify(space: SphereProductSpace, c, quad_points: int = 64, points=None) -> DHReport:
    """Evaluate both sides of the localization identity and their mismatch.

    `points` takes the output of enumerate_fixed_points(space) when the
    caller already has it, as for dh_rhs.
    """
    _check_c(c)
    digits, prefactor = _size_sum(space, c)
    lhs = dh_lhs(space, c, quad_points)
    points = tuple(enumerate_fixed_points(space) if points is None else points)
    rhs = _fixed_point_sum(space, c, points, digits, prefactor)
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return DHReport(lhs=lhs, rhs=rhs, rel_err=rel, fixed_points=points, decimal_digits=digits)
