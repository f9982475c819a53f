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
evaluated by Gauss-Legendre quadrature, the right side as the fixed-point
sum with the sqrt-det sign convention of locq.pfaffian.  Each of its terms
is a product of one share per factor and pole, so the sum is the product of
the factors' pole pairs (2 pi / (c l_j)) (e^a_j - e^-a_j) = 4 pi r_j^2
sinh(a_j) / a_j, a_j = c mu_j r_j (_pole_pair).  A FactorTable does each
factor's work at one c once; its check on a multiset of them is a left fold.

NumPy is imported inside the quadrature, the only code that uses it.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import DegenerateWeightError, require_double

TWO_PI = 2.0 * math.pi

# A Gauss-Legendre rule of n nodes takes O(n^2) work (_leggauss), and a product
# of n spheres has 2^n fixed points; both are bounded before anything is built.
MAX_QUAD_POINTS = 1024
MAX_FACTORS = 16
# Newton's method from Tricomi's guesses takes 3-4 steps, the last moving no
# node by more than eps, at every n up to MAX_QUAD_POINTS; this caps it.
NEWTON_STEPS = 8
# Gauss-Legendre node counts (_size_term): powers of two, so _leggauss
# caches every size a process can reach.
QUAD_COUNTS = tuple(1 << k for k in range(3, MAX_QUAD_POINTS.bit_length()))
# A quadrature's rounding floor is about (1 + |a|) |a| / kept units u of its
# value (_size_term), large only near a zero of sinh a; a factor whose floor
# exceeds 10^MAX_QUAD_LOSS u (rel_err up to about 2e-9) is refused.
MAX_QUAD_LOSS = 7
# A factor's e^(c mu r), the largest exponential any step forms as a
# double, fits one while |Re c mu r| stays below this.
LOG_FLOAT_MAX = math.log(sys.float_info.max)
# The unit roundoff u, and the roundings in units of u of a pole pair and
# of a multiply of their product, at real and complex c (_pole_pair).
UNIT = sys.float_info.epsilon / 2
PAIR_ROUNDINGS = {False: 11.0, True: 24.0}
STEP_ROUNDINGS = {False: 1.0, True: 3.0}
# Below this |a|, sinh(a) / a is 1 + a^2 / 6 to within |a|^4 / 120 < u / 100.
SERIES_BELOW = 1e-4


class _SphereFields(NamedTuple):
    radius: float
    weight: float


class SphereFactor(_SphereFields):
    """One round 2-sphere: radius and Hamiltonian weight."""

    __slots__ = ()

    def __new__(cls, radius: float, weight: float):
        if not (math.isfinite(radius) and math.isfinite(weight)):
            raise ValueError(f"radius and weight must be finite, got {radius}, {weight}")
        if not radius > 0:
            raise ValueError(f"radius must be positive, got {radius}")
        if weight == 0:
            raise DegenerateWeightError("zero weight makes the fixed circles non-isolated")
        require_double(f"the rate mu / r = {weight!r} / {radius!r}", weight / radius)
        return super().__new__(cls, radius, weight)

    @property
    def rate(self) -> float:
        """Angular speed of the Hamiltonian rotation."""
        return self.weight / self.radius


class _SpaceFields(NamedTuple):
    factors: tuple[SphereFactor, ...]


class SphereProductSpace(_SpaceFields):
    """Product of round 2-spheres, oriented by the product of area forms."""

    __slots__ = ()

    def __new__(cls, factors: tuple[SphereFactor, ...]):
        if not factors:
            raise ValueError("at least one sphere factor is required")
        return super().__new__(cls, factors)

    @classmethod
    def of(cls, *pairs: tuple[float, float]) -> "SphereProductSpace":
        return cls(tuple(SphereFactor(r, mu) for r, mu in pairs))

    @property
    def half_dim(self) -> int:
        return len(self.factors)


def enumerate_fixed_points(space: SphereProductSpace) -> list[float]:
    """H at the 2^n pole combinations, in itertools.product((1, -1), repeat=n)
    order; factor i's rates there are +-SphereFactor.rate.

    H is built by subset doubling: each factor splits every point into its
    north (+1) and south (-1) child, one add per point, so H is the
    left-to-right sum sum_i s_i mu_i r_i from int 0.  Point 2^n - 1 - p flips
    every sign of p, so its sum adds the negated terms, and rounding, which
    is odd, gives exactly 0 - H(p) (0.0 where H(p) is): only the first half
    is summed.  More than MAX_FACTORS factors, or an H that is not a finite
    double, are refused first.
    """
    _check_factor_count(space.half_dim)
    # s * (mu * r) == (s * mu) * r exactly for s = +-1, so each factor adds
    # +-(mu * r) to its parent's H
    pairs = [(f.weight * f.radius, -(f.weight * f.radius)) for f in space.factors]
    top = 0  # H at s_i = sign mu_i; rounding is monotone, so it bounds every |H|
    for north, _ in pairs:
        top += abs(north)
    require_double("H = sum_i |mu_i r_i| at the fixed point s_i = sign mu_i", top)
    half = [0 + pairs[0][0]]
    for steps in pairs[1:]:
        half = [h + step for h in half for step in steps]
    return half + [0 - h for h in reversed(half)]


def _check_factor_count(n: int) -> None:
    if n > MAX_FACTORS:
        raise ValueError(
            f"at most {MAX_FACTORS} sphere factors (2^{MAX_FACTORS} fixed points), got {n}"
        )


@lru_cache(maxsize=32)
def _leggauss(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1]: nodes ascending, weights.

    Newton's method on the three-term recurrence finds the nonnegative roots
    of P_n together from Tricomi's guesses (1 - 1/(8n^2) + 1/(8n^3)) cos(pi
    (4k - 1) / (4n + 2)); weights are 2 / ((1 - x^2) P_n'(x)^2); both are
    mirrored, so the rule is exactly symmetric.  numpy.polynomial is never
    imported; tests/test_localization.py::test_leggauss_nodes_and_weights
    bounds the rule against NumPy's leggauss and mpmath.
    """
    import numpy as np

    k = np.arange(1, n // 2 + 1)
    x = (1 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    x = np.append(x, [0.0] * (n % 2))  # P_n(0) = 0 exactly at odd n
    for _ in range(NEWTON_STEPS):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= sys.float_info.epsilon:
            break
    dp = _legendre(n, x)[1]
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    m = n // 2
    return np.concatenate((-x[:m], x[::-1])), np.concatenate((w[:m], w[::-1]))


def _legendre(n: int, x):
    """P_n(x) and P_n'(x), |x| < 1, by j P_j = (2j - 1) x P_(j-1) - (j - 1) P_(j-2)."""
    p0, p1 = 1.0, x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


def _check_c(c, allow_zero: bool = False) -> None:
    """Reject non-finite c (and zero unless allowed) before any work."""
    if not cmath.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    if c == 0 and not allow_zero:
        raise ValueError("c must be nonzero")


def factor_integral_quad(factor: SphereFactor, c, quad_points: int = 64):
    """2 pi r * integral_{-r}^{r} e^(c mu z) dz by Gauss-Legendre quadrature,
    as (m, e) with value m 2^e (_frexp), so that no step forms r^2 on its
    own: 2 pi m_r m_r times the quadrature, m_r the frexp mantissa of r, is
    2 pi r r times it scaled by 2^(-2 e_r), bit for bit wherever both are
    normal doubles."""
    import numpy as np

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
    m_r, e_r = math.frexp(factor.radius)
    m, e = _frexp(TWO_PI * m_r * m_r * total)
    return m, e + 2 * e_r


def _frexp(value):
    """value as (m, e) with value = m 2^e: math.frexp of a float; for a
    complex, e is the frexp exponent of its larger part, and both parts are
    scaled by 2^-e.  Each is exact where the parts are normal doubles."""
    if isinstance(value, complex):
        e = math.frexp(max(abs(value.real), abs(value.imag)))[1]
        return complex(math.ldexp(value.real, -e), math.ldexp(value.imag, -e)), e
    return math.frexp(value)


def _ldexp(m, e):
    """m 2^e for a float or complex m; inf where that is not a double."""
    try:
        return (complex(math.ldexp(m.real, e), math.ldexp(m.imag, e))
                if isinstance(m, complex) else math.ldexp(m, e))
    except OverflowError:
        return math.inf


def _size_term(factor: SphereFactor, c):
    """The factor's sizes: |mu r|, its Gauss-Legendre node count and the
    digits its quadrature loses to rounding.

    At a = c mu r the quadrature's terms w_i e^(a x_i) are up to 2 e^|Re a|
    in size, and its value 2 sinh(a) / a is about kept / |a| of that, kept ~
    |2 sinh a| / e^|Re a|: 1 - e^(-2|a|) at real c, |sinh a| / cosh(Re a)
    at complex c, taken as |1 - e^(-2a)| / (1 + |e^(-2a)|) with Re a >= 0,
    so that nothing overflows, or from cmath.sinh below SERIES_BELOW, where
    1 - e^(-2a) cancels.  The node count is the least n in QUAD_COUNTS with
    _quad_excess(n, a, kept) <= 0 (8 where a is 0), None where there is
    none or kept is 0.  The loss is log10 of the rounding floor in units u:
    each term carries a few u and a phase error |a x_i| u, about (1 + |a|)
    |a| / kept u of the value (rel_err was at most 1.6 times that over
    10,000 a = i (pi k + d), k <= 60, |d| <= 1).  At real c, |a| < 710, it is
    below 5.8.  A complex c whose Im(c mu r) overflows a double, so that e^a
    has no phase, is refused."""
    scale = abs(factor.weight * factor.radius)
    if isinstance(c, complex):
        require_double(f"Im(c mu r) = {c.imag!r} * {factor.weight!r} * {factor.radius!r}",
                       c.imag * factor.weight * factor.radius)
        a = c * factor.weight * factor.radius
    else:
        a = abs(c) * scale
    if not a:
        return scale, QUAD_COUNTS[0], 0.0
    if not isinstance(a, complex):
        kept = -math.expm1(-2.0 * a)
    elif abs(a) < SERIES_BELOW:
        kept = abs(cmath.sinh(a)) / math.cosh(a.real)
    else:
        e = cmath.exp(a if a.real < 0 else -a) ** 2
        kept = abs(1 - e) / (1 + abs(e))
    if not kept > 0:
        return scale, None, math.inf
    nodes = next((n for n in QUAD_COUNTS if _quad_excess(n, a, kept) <= 0), None)
    return scale, nodes, math.log10((1 + abs(a)) * abs(a) / kept)


def _quad_excess(n: int, a, kept: float) -> float:
    """log of (64/15) e^(|a| (rho + 1/rho) / 2) rho^(-2n) / (rho^2 - 1), the
    n-node Gauss-Legendre error bound on integral_{-1}^{1} e^(a s) ds
    (Trefethen, SIAM Rev. 50, 2008, Thm 4.5) at rho = (2n + sqrt(4n^2 +
    |a|^2)) / |a|, over eps e^|Re a| kept / |a| <= |integral|, which tends
    to 2 eps as a -> 0.  With rho = e^u, sinh u = 2n / |a|, all of it is
    taken in logs, so a subnormal |a| (rho = inf) gives -inf, not an error.
    """
    size = math.hypot(a.real, a.imag)
    u = math.asinh(2 * n / size)
    # |a| (rho + 1/rho) / 2 - |Re a| = hypot(2n, |a|) - |Re a|, without cancellation
    growth = (4 * n * n + a.imag * a.imag) / (math.hypot(2 * n, size) + abs(a.real))
    # log(rho^2 - 1) = log(4n e^u / |a|)
    return (math.log(64 / 15 / sys.float_info.epsilon) + growth - (2 * n + 1) * u
            - math.log(4 * n) + 2 * math.log(size) - math.log(kept))


def _size_check(scale: float, c) -> None:
    """Refuse a c at which some factor's e^(c mu r) overflows a double,
    scale = max_i |mu_i r_i| (no step forms e^(c H) as one: a quadrature
    forms e^(c mu r s) with |s| <= 1, a pole pair sinh(c mu r))."""
    exponent = abs(c.real) * scale
    if not exponent <= LOG_FLOAT_MAX:
        raise ValueError(
            f"overflow: e^(c mu r) exceeds the largest double, since |Re c| * max |mu_i r_i| "
            f"= {exponent!r} > log(sys.float_info.max) = {LOG_FLOAT_MAX!r}"
        )


def _pole_pair(factor: SphereFactor, c):
    """The pole pair 4 pi r^2 sinh(a) / a, a = c mu r, as (m, e) with value
    m 2^e (_frexp, r^2 never formed), and its roundings in units of u.

    a is c mu r as rationals rounded once, da its residual; sinh(a) / a is
    1 + a^2 / 6 below SERIES_BELOW (complex division by a = 1e-300 +
    1e-300j raises), else sinh(a) / a (1 + (coth a - 1/a) da), since
    sinh(a + da) = sinh(a) cosh(da) + cosh(a) sinh(da).  A product of n
    pairs is within E u / (1 - E u) of the exact one at the given doubles,
    to first order (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, ch. 3): E = sum_j (PAIR_ROUNDINGS + (|a_j|^2 + 32 (kappa_j + 1))
    u) + (n - 1) STEP_ROUNDINGS, kappa = |a coth a - 1| the condition number
    of sinh(a) / a, large only near a zero of sinh (a = i pi k).  The
    rounding of a would move the pair by kappa u; corrected, it leaves |da|^2
    |1/2 - coth(a) / a + 1/a^2| <= (|a|^2 / 2 + kappa + 2) u^2 and the
    correction's rounding.  PAIR_ROUNDINGS: real c, 4 pi and its 3 products
    (4), sinh within 2 ulps (4), / a (1), the correction (2); complex c,
    4 pi m_r m_r (3) times a complex (1), sinh from sinh, cosh, sin, cos
    (7), / a (8), the correction (4), a part scaled below the normal
    doubles (1).  STEP_ROUNDINGS: a complex multiply, sqrt(2) gamma_2 < 3.
    """
    is_complex = isinstance(c, complex)
    rate = Fraction(factor.weight) * Fraction(factor.radius)
    exact = [Fraction(x) * rate for x in ((c.real, c.imag) if is_complex else (c,))]
    a, da = [float(x) for x in exact], [float(x - Fraction(float(x))) for x in exact]
    a, da = (complex(*a), complex(*da)) if is_complex else (a[0], da[0])
    if abs(a) < SERIES_BELOW:
        ratio, kappa = 1 + a * a / 6, abs(a) ** 2 / 2  # kappa <= |a|^2 / 3 (1 + |a|^2)
    else:
        sinh, tanh = (cmath.sinh, cmath.tanh) if is_complex else (math.sinh, math.tanh)
        slope = a / tanh(a) - 1  # a (coth a - 1/a)
        ratio, kappa = sinh(a) / a * (1 + slope * da / a), abs(slope)
    m_r, e_r = math.frexp(factor.radius)
    m, e = _frexp(2 * TWO_PI * m_r * m_r * ratio)
    return (m, e + 2 * e_r), PAIR_ROUNDINGS[is_complex] + (abs(a) ** 2 + 32 * (kappa + 1)) * UNIT


class DHReport(NamedTuple):
    lhs: float | complex
    rhs: float | complex
    rel_err: float
    rhs_bound: float
    quad_nodes: tuple[int, ...]


class FactorTable:
    """One c's per-factor work on a list of factors, for the checks on
    multisets of them, named by index.  Building it makes every refusal but
    a result's, in this order: c (_check_c), each factor's Im(c mu r)
    (_size_term), the factor cap, the overflow of a factor's e^(c mu r)
    (_size_check), then the first factor that needs more than
    MAX_QUAD_POINTS nodes or whose quadrature loses more than MAX_QUAD_LOSS
    digits.  Only then is each factor's work done, once: its quadrature and
    pole pair as (quad_m, quad_e, pair_m, pair_e) and the pair's roundings."""

    __slots__ = ("c", "is_complex", "quad_nodes", "steps")

    def __init__(self, c, factors: Sequence[SphereFactor]):
        _check_c(c)
        size_terms = [_size_term(f, c) for f in factors]
        _check_factor_count(len(size_terms))
        _size_check(max(scale for scale, _, _ in size_terms), c)
        for f, (_, nodes, loss) in zip(factors, size_terms):
            if nodes is None or loss > MAX_QUAD_LOSS:
                why = (f"needs more than MAX_QUAD_POINTS = {MAX_QUAD_POINTS} nodes"
                       if nodes is None else f"loses {loss:.1f} digits to rounding, more "
                       f"than MAX_QUAD_LOSS = {MAX_QUAD_LOSS}")
                raise ValueError(f"the Gauss-Legendre quadrature of the factor (r, mu) = "
                                 f"({f.radius!r}, {f.weight!r}) at c = {c!r} {why}")
        self.c = c
        self.is_complex = isinstance(c, complex)
        self.quad_nodes = tuple(nodes for _, nodes, _ in size_terms)
        self.steps = [(*factor_integral_quad(f, c, nodes), *pair, roundings)
                      for f, nodes in zip(factors, self.quad_nodes)
                      for pair, roundings in [_pole_pair(f, c)]]

    def check(self, indices: Sequence[int]):
        """(lhs, rhs, rel_err) on the factors at `indices`, repeats allowed:
        left folds of their mantissas and exponents, in index order, and one
        _ldexp per side (at real c, math.ldexp, with _ldexp's inf where a side
        overflows).  More than MAX_FACTORS indices are refused first, and
        a side whose modulus is not a normal double once known, since rel_err
        divides by |rhs|."""
        _check_factor_count(len(indices))
        steps, is_complex = self.steps, self.is_complex
        lhs_m = rhs_m = 1.0 + 0.0j if is_complex else 1.0
        lhs_e = rhs_e = 0
        for i in indices:
            quad_m, quad_e, pair_m, pair_e, _ = steps[i]
            lhs_m, lhs_e = lhs_m * quad_m, lhs_e + quad_e
            rhs_m, rhs_e = rhs_m * pair_m, rhs_e + pair_e
        tiny = sys.float_info.min  # require_double's test of each modulus, inline
        if is_complex:
            lhs, rhs = _ldexp(lhs_m, lhs_e), _ldexp(rhs_m, rhs_e)
            try:
                normal = tiny <= abs(lhs) < math.inf and tiny <= abs(rhs) < math.inf
            except OverflowError:  # abs() of a complex past the largest double
                normal = False
        else:
            try:
                lhs, rhs = math.ldexp(lhs_m, lhs_e), math.ldexp(rhs_m, rhs_e)
            except OverflowError:
                lhs, rhs = _ldexp(lhs_m, lhs_e), _ldexp(rhs_m, rhs_e)
            normal = tiny <= abs(lhs) < math.inf and tiny <= abs(rhs) < math.inf
        if not normal:
            for what, side in (("Liouville integral", lhs), ("fixed-point sum", rhs)):
                require_double(f"the {what}'s modulus at c = {self.c!r}",
                               math.hypot(side.real, side.imag), normal=True)
        return lhs, rhs, abs(lhs - rhs) / abs(rhs)

    def rhs_bound(self, indices: Sequence[int]) -> float:
        """check(indices)'s rhs bound E u / (1 - E u) (_pole_pair), or inf."""
        multiplies = (len(indices) - 1) * STEP_ROUNDINGS[self.is_complex]
        error = (sum(self.steps[i][4] for i in indices) + multiplies) * UNIT
        return error / (1 - error) if error < 1 else math.inf


def dh_verify(space: SphereProductSpace, c) -> DHReport:
    """Both sides of the localization identity, rel_err, rhs's error bound
    and each factor's node count, from the FactorTable on the space's
    factors; every refusal comes before any work, except a result's."""
    table = FactorTable(c, space.factors)
    indices = range(space.half_dim)
    return DHReport(*table.check(indices), table.rhs_bound(indices), table.quad_nodes)
