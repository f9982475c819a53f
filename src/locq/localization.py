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
import operator
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np

from .errors import DegenerateWeightError
from . import pfaffian as _pf

TWO_PI = 2.0 * math.pi


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

    def liouville_volume(self) -> float:
        return math.prod(4.0 * math.pi * f.radius**2 for f in self.factors)


@dataclass(frozen=True, slots=True)
class FixedPoint:
    """A pole combination with its Hamiltonian value and rotation rates."""

    pole_signs: tuple[int, ...]
    h_value: float
    lambdas: tuple[float, ...]


def enumerate_fixed_points(space: SphereProductSpace, numerical: bool = False):
    """All 2^n pole combinations, with analytic linearization rates s*mu/r.

    With numerical=True the rates are instead extracted by finite
    differencing the ambient rotation field in an oriented tangent frame
    at each pole (cross-check path).
    """
    # s * (mu * r) == (s * mu) * r exactly for s = +-1, so hoisting the
    # per-factor products out of the 2^n loop leaves every value unchanged
    heights = [f.weight * f.radius for f in space.factors]
    rates = [f.rate for f in space.factors]
    points = []
    for signs in itertools.product((1, -1), repeat=space.half_dim):
        h = sum(map(operator.mul, signs, heights))
        if numerical:
            lams = tuple(
                _numerical_rate(f, s) for s, f in zip(signs, space.factors)
            )
        else:
            lams = tuple(map(operator.mul, signs, rates))
        points.append(FixedPoint(pole_signs=signs, h_value=h, lambdas=lams))
    return points


def _numerical_rate(factor: SphereFactor, pole_sign: int, h: float = 1e-6) -> float:
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
    dv = (field(pole + h * e1) - field(pole - h * e1)) / (2 * h)
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


@lru_cache(maxsize=1024, typed=True)
def _exp_pair(factor: SphereFactor, c) -> tuple[Decimal, Decimal]:
    """(e^(c mu r), e^(-c mu r)) to 40 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        x = Decimal(c) * Decimal(factor.weight) * Decimal(factor.radius)
        return x.exp(), (-x).exp()


def dh_rhs(space: SphereProductSpace, c, via_sqrt_det: bool = False, points=None):
    """Fixed-point sum (2 pi / c)^n sum_p e^(c H(p)) / prod_j l_j.

    For real c the alternating sum cancels down to ~prod_i tanh(c mu_i r_i)
    of its largest term, far beyond double precision at small c; the terms
    are therefore accumulated with 40-digit Decimal arithmetic, which keeps
    the result exact to ~1e-15 relative for every parameter combination.
    The per-factor exponentials e^(+-c mu_i r_i) are cached per (factor, c),
    so repeated factors cost one Decimal exp pair each.  Complex c takes
    the plain complex path (used by the oscillatory smoke checks at looser
    tolerance).

    With via_sqrt_det=True the denominator prod_j l_j is obtained from
    locq.pfaffian.sqrt_det on the assembled block-diagonal linearization
    instead of multiplying the analytic rates.  `points` takes the output of
    enumerate_fixed_points(space) when the caller already has it.
    """
    _check_c(c)
    if points is None:
        points = enumerate_fixed_points(space)
    n = space.half_dim

    def lam_product(p: FixedPoint) -> float:
        if via_sqrt_det:
            return _pf.sqrt_det(_pf.block_diagonal(p.lambdas))
        return math.prod(p.lambdas)

    if isinstance(c, complex):
        total = 0.0 + 0.0j
        for p in points:
            total += cmath.exp(c * p.h_value) / lam_product(p)
        return (TWO_PI / c) ** n * total

    exps = [_exp_pair(f, c) for f in space.factors]
    with localcontext() as ctx:
        ctx.prec = 40
        total = Decimal(0)
        for p in points:
            term = Decimal(1)
            for s, pair in zip(p.pole_signs, exps):
                term *= pair[0 if s > 0 else 1]
            total += term / Decimal(lam_product(p))
        return (TWO_PI / c) ** n * float(total)


@dataclass(frozen=True, slots=True)
class DHReport:
    lhs: float | complex
    rhs: float | complex
    rel_err: float
    fixed_points: tuple[FixedPoint, ...]


def dh_verify(space: SphereProductSpace, c, quad_points: int = 64) -> DHReport:
    """Evaluate both sides of the localization identity and their mismatch."""
    lhs = dh_lhs(space, c, quad_points)
    points = tuple(enumerate_fixed_points(space))
    rhs = dh_rhs(space, c, points=points)
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return DHReport(lhs=lhs, rhs=rhs, rel_err=rel, fixed_points=points)


@dataclass(frozen=True, slots=True)
class FlowReport:
    max_abs_det_minus_one: float
    samples: int
    step: float


def flow_liouville_check(
    factor: SphereFactor,
    t: float,
    sample_count: int = 32,
    step: float = 0.25,
    seed: int = 0,
) -> FlowReport:
    """Jacobian-determinant check that the time-t flow preserves the area form.

    The flow in the (z, phi) chart is (z, phi) -> (z, phi + t mu / r); its
    Jacobian is measured by central differences at random sample points.
    The map is affine, so any deviation of det J from 1 is pure rounding.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    rng = np.random.default_rng(seed)
    delta = t * factor.rate

    def flow(z, phi):
        return z, phi + delta

    worst = 0.0
    h = min(step, factor.radius / 2.0)
    for _ in range(sample_count):
        z = float(rng.uniform(-factor.radius + h, factor.radius - h))
        phi = float(rng.uniform(0.0, TWO_PI))
        j00 = (flow(z + h, phi)[0] - flow(z - h, phi)[0]) / (2 * h)
        j01 = (flow(z, phi + h)[0] - flow(z, phi - h)[0]) / (2 * h)
        j10 = (flow(z + h, phi)[1] - flow(z - h, phi)[1]) / (2 * h)
        j11 = (flow(z, phi + h)[1] - flow(z, phi - h)[1]) / (2 * h)
        det = j00 * j11 - j01 * j10
        worst = max(worst, abs(det - 1.0))
    return FlowReport(max_abs_det_minus_one=worst, samples=sample_count, step=step)
