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
sum with the sqrt-det sign convention of locq.pfaffian.  A PrefixCheck
folds over its factors, so the check on n + 1 extends its prefix's by one step.

NumPy is imported inside the quadrature, the only code that uses it.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Sequence
from decimal import Decimal, localcontext
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import DegenerateWeightError

TWO_PI = 2.0 * math.pi

# NumPy's leggauss(n) builds an n x n companion matrix, and a product of n
# spheres has 2^n fixed points; both are bounded before anything is built.
MAX_QUAD_POINTS = 1024
MAX_FACTORS = 16
# Gauss-Legendre node counts (_size_term): powers of two, so _leggauss
# caches every size a process can reach.
QUAD_COUNTS = tuple(1 << k for k in range(3, MAX_QUAD_POINTS.bit_length()))
# The real fixed-point sum runs at the precision its cancellation needs
# (_size_check), counted in decimal digits; this caps that precision, and
# so the cost of each operation, before any work.
MAX_DECIMAL_DIGITS = 1000
# Its integer mantissas carry this many bits beyond those digits, so that
# the rounding bound of PrefixCheck._fold, n 2^(2n - 1) units of the last
# bit, stays below 2^GUARD_BITS for every n up to MAX_FACTORS.
GUARD_BITS = 2 * MAX_FACTORS + 4
# The complex sum runs in doubles, so it may cancel at most this many of
# their ~16 digits; a c at which it would cancel more is refused up front.
MAX_COMPLEX_LOSS = 9
# A factor's e^(c mu r), the largest exponential any step forms as a
# double, fits one while |Re c mu r| stays below this.
LOG_FLOAT_MAX = math.log(sys.float_info.max)
_NORMAL_MIN = sys.float_info.min


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
        if not math.isfinite(weight / radius):
            raise ValueError(f"overflow: the rate mu / r = {weight!r} / {radius!r} "
                             f"is not a finite double")
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
    left-to-right sum sum_i s_i mu_i r_i from int 0.  More than MAX_FACTORS
    factors, or an H that is not a finite double, are refused first.
    """
    _check_factor_count(space.half_dim)
    # s * (mu * r) == (s * mu) * r exactly for s = +-1, so each factor adds
    # +-(mu * r) to its parent's H
    pairs = [(f.weight * f.radius, -(f.weight * f.radius)) for f in space.factors]
    top = 0  # H at s_i = sign mu_i; rounding is monotone, so it bounds every |H|
    for north, _ in pairs:
        top += abs(north)
    if not math.isfinite(top):
        raise ValueError("overflow: H = sum_i |mu_i r_i| at the fixed point s_i = sign mu_i "
                         "is not a finite double")
    h_values = [0]
    for steps in pairs:
        h_values = [h + step for h in h_values for step in steps]
    return h_values


def _check_factor_count(n: int) -> None:
    if n > MAX_FACTORS:
        raise ValueError(
            f"at most {MAX_FACTORS} sphere factors (2^{MAX_FACTORS} fixed points), got {n}"
        )


@lru_cache(maxsize=32)
def _leggauss(n: int):
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _check_c(c, allow_zero: bool = False) -> None:
    """Reject non-finite c (and zero unless allowed) before any work."""
    if not cmath.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    if c == 0 and not allow_zero:
        raise ValueError("c must be nonzero")


def _check_normal(what: str, c, value) -> None:
    """Refuse a result that is not a finite double, or is below the normal
    doubles, where it has lost digits, naming `what`."""
    if not cmath.isfinite(value):
        raise ValueError(f"overflow: {what} at c = {c!r} is not a finite double")
    if abs(value) < _NORMAL_MIN:
        raise ValueError(f"underflow: {what} at c = {c!r} is below the normal doubles")


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


def _size_term(factor: SphereFactor, c):
    """The factor's step of the sizes: |mu r|, the digits the sum cancels
    at this factor, -log10 of what its half-terms keep, x = c mu r, and
    its Gauss-Legendre node count: the least n in QUAD_COUNTS with
    _quad_excess(n, x, kept) <= 0, None if there is none or kept is 0.
    A real sum keeps |2 sinh x| / e^|x| = 1 - e^(-2|x|) of its largest
    term, a complex one |sinh x| / cosh(Re x) of the sum of its terms'
    sizes, taken as |1 - e^(-2x)| / (1 + |e^(-2x)|) with Re x >= 0 and
    e^(-2x) = (e^(-x))^2, so that nothing overflows.  A complex c whose
    Im(c mu r) overflows a double, so that e^x has no phase, is refused.

    Where x = c mu r underflows to 0 at real c, whether or not mu r does,
    |x| < 1e-15: kept = 2|x| to rounding, its digits are taken in logs,
    and the least node count is exact to rounding."""
    scale = abs(factor.weight * factor.radius)
    if isinstance(c, complex):
        if not math.isfinite(c.imag * factor.weight * factor.radius):
            raise ValueError(
                f"overflow: Im(c mu r) = {c.imag!r} * {factor.weight!r} * {factor.radius!r} "
                f"is not a finite double"
            )
        x = c * factor.weight * factor.radius
        e = cmath.exp(x if x.real < 0 else -x) ** 2
        kept = abs(1 - e) / (1 + abs(e))
    elif not abs(c) * scale:
        logs = map(math.log10, (2.0, abs(c), abs(factor.weight), factor.radius))
        return scale, -sum(logs), QUAD_COUNTS[0]
    else:
        x = abs(c) * scale
        kept = -math.expm1(-2.0 * abs(c) * scale)  # 1 - e^(-2|x|), accurate at tiny x
    if not kept > 0:
        return scale, math.inf, None
    nodes = next((n for n in QUAD_COUNTS if _quad_excess(n, x, kept) <= 0), None)
    return scale, -math.log10(kept), nodes


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


def _size_check(sizes, c):
    """The digits of the check with these sizes: (max_i |mu_i r_i|, D), left
    folds of _size_term from int 0 and 0.0.

    Refuses, in this order, a c at which some factor's e^(c mu r) overflows
    a double (no step forms e^(c H) as one: a quadrature forms e^(c mu r s)
    with |s| <= 1, and the half-terms are Decimals, or per factor complex
    floats), a real sum that needs more than MAX_DECIMAL_DIGITS and a
    complex sum that cancels more than MAX_COMPLEX_LOSS digits.  A real
    sum, prod_i 2 sinh(x_i) 2 pi / (c l_i) against a largest term prod_i
    e^|x_i| 2 pi / |c l_i|, cancels D digits and runs at max(40, 20 +
    ceil(D)) decimal digits: its half-terms are Decimals at 3 digits more,
    and its terms are integer mantissas with the bits of those digits
    (_half_terms); a complex one runs in doubles (digits None).
    """
    scale_max, loss = sizes
    exponent = abs(c.real) * scale_max
    if not exponent <= LOG_FLOAT_MAX:
        raise ValueError(
            f"overflow: e^(c mu r) exceeds the largest double, since |Re c| * max |mu_i r_i| "
            f"= {exponent!r} > log(sys.float_info.max) = {LOG_FLOAT_MAX!r}"
        )
    if isinstance(c, complex):
        if not loss <= MAX_COMPLEX_LOSS:
            raise ValueError(
                f"the complex fixed-point sum at c = {c!r} cancels {loss:.1f} digits, more "
                f"than the MAX_COMPLEX_LOSS = {MAX_COMPLEX_LOSS} a double can lose"
            )
        return None
    if not loss <= MAX_DECIMAL_DIGITS - 20:
        raise ValueError(
            f"the fixed-point sum at c = {c!r} cancels {loss:.1f} digits, so it needs "
            f"more than MAX_DECIMAL_DIGITS = {MAX_DECIMAL_DIGITS} decimal digits"
        )
    return max(40, 20 + math.ceil(loss))


def _half_terms(factor: SphereFactor, c, digits: int | None):
    """The factor's share of a point's term, (e^x, -e^(-x)) 2 pi / (c l) at
    its north and south pole, with x = c mu r and l = mu / r, so that a
    point's term carries its share of (2 pi / c)^n; as (pair, scale,
    shift): the half-terms are pair / 2^scale, and a product that ends in
    them drops `shift` bits before it is multiplied again
    (PrefixCheck._fold).

    Where digits is None (complex c) the pair is two complex floats, scale
    and shift 0.  At real c the pair is computed in Decimal at digits + 3
    digits from the double TWO_PI, with one exp (e^(-x) = 1 / e^x), and
    returned as two integer mantissas on one binary scale, each within half
    a unit of its Decimal: the larger has exactly ceil(digits log2 10) +
    GUARD_BITS bits, and shift is its bit length.  `digits` counts decimal
    digits.
    """
    if digits is None:
        cw = c * factor.weight
        x, k = cw * factor.radius, TWO_PI * factor.radius / cw
        return (cmath.exp(x) * k, -cmath.exp(-x) * k), 0, 0
    with localcontext() as ctx:
        ctx.prec = digits + 3
        radius, cw = Decimal(factor.radius), Decimal(c) * Decimal(factor.weight)
        x, k = cw * radius, Decimal(TWO_PI) * radius / cw
        exp = x.exp()
        halves = exp * k, -k / exp
    bits = math.ceil(digits * math.log2(10)) + GUARD_BITS
    ratios = [h.as_integer_ratio() for h in halves]
    p, q = ratios[halves[1].copy_abs() > halves[0].copy_abs()]  # the larger
    scale = bits - (abs(p).bit_length() - q.bit_length())
    # 2^(bits - 1) < |p| / q * 2^scale < 2^(bits + 1): at most two steps down
    while abs(_scaled(p, q, scale)).bit_length() > bits:
        scale -= 1
    pair = _scaled(*ratios[0], scale), _scaled(*ratios[1], scale)
    return pair, scale, max(map(abs, pair)).bit_length()


def _scaled(p: int, q: int, scale: int) -> int:
    """p / q * 2^scale rounded to the nearest integer (halves up)."""
    if scale >= 0:
        p <<= scale
    else:
        q <<= -scale
    return (2 * p + q) // (2 * q)


def _times(base, last, shift: int) -> list:
    """[t * h for t in base for h in last], each product rounded to nearest
    (halves up) by `shift` bits where shift > 0."""
    if not shift:
        return [t * h for t in base for h in last]
    half = 1 << (shift - 1)
    return [(t * h + half) >> shift for t in base for h in last]


class DHReport(NamedTuple):
    lhs: float | complex
    rhs: float | complex
    rel_err: float
    decimal_digits: int | None
    quad_nodes: tuple[int, ...]


class _FactorTable:
    """One c's per-factor work for the PrefixChecks on a list of factors, by
    factor index, each item computed once: the _size_terms up front, the
    quadratures (factor_integral_quad) at their node counts when a check
    first needs them, after its refusals, and every factor's half-terms at
    each digits a check reaches, with each pair's sum h+ + h- in pole_sums.
    It is the only memo of that work, and it lives as long as its checks."""

    def __init__(self, c, factors: Sequence[SphereFactor]):
        self.c, self.factors = c, tuple(factors)
        self.size_terms = [_size_term(f, c) for f in self.factors]
        self.unsized = {i for i, (_, _, nodes) in enumerate(self.size_terms) if nodes is None}
        self._halves: dict[int | None, list[tuple]] = {}
        self.pole_sums: dict[int | None, list] = {}

    @cached_property
    def quads(self) -> list:
        return [factor_integral_quad(f, self.c, nodes) if nodes else None
                for f, (_, _, nodes) in zip(self.factors, self.size_terms)]

    def half_terms(self, digits: int | None) -> list[tuple]:
        if digits not in self._halves:
            halves = [_half_terms(f, self.c, digits) for f in self.factors]
            self._halves[digits] = halves
            self.pole_sums[digits] = [north + south for (north, south), _, _ in halves]
        return self._halves[digits]


class PrefixCheck(NamedTuple):
    """The localization check at one c on a sequence of factors, named by
    index into the list of PrefixCheck.empty, whose _FactorTable does each
    factor's work once.  The fields are left folds over the factors: the
    sizes (_size_check), the quadrature product lhs, and the point terms at
    `digits` digits, sum(terms) / 2^scale, rounded by `shift` bits before
    they are multiplied again; rhs is their sum.  The terms are kept as
    `base`, the prefix's terms already rounded for the last factor, and
    `last`, that factor's half-term pair: terms is [t * h for t in base for
    h in last], built only when it is read or the check is extended.

    extend(*indices) makes every refusal before any work (the factor cap,
    _size_check's, then an unsized factor's), takes one step of each fold
    per new factor and builds the terms once, at the final digits: from
    this check's rounded terms where the digits did not rise, else from
    (1,) over all the factors, since every mantissa depends on the digits.
    children(indices) is [extend(i) for i in indices], bit for bit, with
    this check's terms rounded, and at real c summed, once for all of them,
    so siblings share one base.  A result that is not a normal double is
    refused once it is known (_check_normal), so rel_err divides by a
    normal |rhs|.  An empty check is no check; dh_verify extends it by all
    of a space's factors.
    """

    table: _FactorTable
    indices: tuple[int, ...] = ()
    sizes: tuple = (0, 0.0)
    lhs: float | complex = 1.0
    digits: int | None = None
    base: Sequence = (1,)
    last: Sequence = (1,)
    scale: int = 0
    shift: int = 0
    rhs: float | complex | None = None

    @classmethod
    def empty(cls, c, factors: Sequence[SphereFactor]) -> "PrefixCheck":
        _check_c(c)
        return cls(_FactorTable(c, factors),
                   lhs=1.0 + 0.0j if isinstance(c, complex) else 1.0)

    @property
    def terms(self) -> list:
        """The point terms, in the order of enumerate_fixed_points."""
        return _times(self.base, self.last, 0)

    def extend(self, *indices: int) -> "PrefixCheck":
        return self._fold([indices])[0]

    def children(self, indices) -> list["PrefixCheck"]:
        return self._fold(zip(indices))

    def _fold(self, additions) -> list["PrefixCheck"]:
        """One check per tuple of new indices in `additions`, in order, each
        this check extended by those factors: one step of each fold per new
        factor, and one _size_check and pair of normal checks per check.

        The quadratures are carried as frexp mantissas and exponents
        (factor_integral_quad): lhs is the product of the mantissas times 2
        to the sum of the exponents, taken by one ldexp, so no partial
        product overflows or underflows where lhs does not; it is the
        left-to-right product of the values bit for bit wherever each
        partial product is a normal double, since scaling by a power of two
        commutes with rounding there.

        The point terms (2 pi / c)^n e^(c H(p)) / prod_j l_j are doubled by
        each factor's half-term pair in the order of enumerate_fixed_points:
        each term t splits into t times the factor's two half-terms.
        Complex terms are never rounded and are added left to right from
        int 0 in complex floats.

        At real c a term is a product of integer mantissas.  A product of
        two or more is rounded to nearest, by the bit length b of its last
        factor's larger mantissa, only when it is multiplied again, so a
        check's terms are exact products of its base and last.  So the sum
        is taken in pole pairs: sum_t (t m+ + t m-) = (sum_t t) (m+ + m-)
        exactly in Python ints, one product per check, with sum_t t over
        the base summed once for all of a check's children, and the same
        integer as the sum of the terms.  Its value over 2^b (b its bit
        length) is rounded once to a double by int / int division and
        scaled by 2^(b - scale), so rhs is sum(terms) / 2^scale rounded once
        wherever that is a normal double.

        Error bound, given the mantissas: each rounding is off by at most
        half a unit, and |m| < 2^b keeps an earlier error from growing, so
        each of the 2^n terms is off by fewer than n half-units at the
        terms' scale (a unit is 2^b of the last factor), and their sum by
        at most 2^n n; the last factor, summed in pole pairs, adds no
        rounding.  A rounding drops at most one bit more than its mantissa
        added, so the largest term keeps at least 2 bits - n bits (bits =
        ceil(digits log2 10) + GUARD_BITS), and the bound is at most n 2^(2n
        - 1 - GUARD_BITS) 10^-digits <= 10^-digits / 2 of the largest term:
        at most 10^-20 / 2 of a sum that cancels D <= digits - 20 digits
        (_size_check).  The half-terms' own errors, a few units in their
        (digits + 3)-th digit, reach the sum through prod_j (h_j+ + h_j-)
        and move it by about n 10^(D - digits - 2) of itself.
        """
        table = self.table
        c, size_terms, unsized = table.c, table.size_terms, table.unsized
        lhs_m, lhs_e = _frexp(self.lhs)
        ready = None  # this check's terms rounded for one more factor, once for every child
        out = []
        for indices in additions:
            everything = self.indices + indices
            _check_factor_count(len(everything))
            scale_max, loss = self.sizes
            for i in indices:
                step, step_loss, _ = size_terms[i]
                scale_max, loss = max(scale_max, step), loss + step_loss
            sizes = scale_max, loss
            digits = _size_check(sizes, c)
            if unsized and not unsized.isdisjoint(indices):
                f = table.factors[next(i for i in indices if i in unsized)]
                raise ValueError(
                    f"the Gauss-Legendre quadrature of the factor (r, mu) = "
                    f"({f.radius!r}, {f.weight!r}) at c = {c!r} needs more than "
                    f"MAX_QUAD_POINTS = {MAX_QUAD_POINTS} nodes")
            m, e, quads = lhs_m, lhs_e, table.quads
            for i in indices:
                quad_m, quad_e = quads[i]
                m *= quad_m
                e += quad_e
            try:
                lhs = (math.ldexp(m, e) if digits is not None
                       else complex(math.ldexp(m.real, e), math.ldexp(m.imag, e)))
            except OverflowError:  # too large for a double
                lhs = math.inf
            if not _NORMAL_MIN <= abs(lhs) < math.inf:
                _check_normal("the Liouville integral", c, lhs)
            if digits == self.digits and indices:
                if ready is None:
                    ready = _times(self.base, self.last, self.shift)
                    ready_sum = sum(ready) if digits is not None else None
                    ready_steps = table.half_terms(digits), table.pole_sums[digits]
                base, last, total, scale = ready, None, ready_sum, self.scale - self.shift
                (halves, sums), new = ready_steps, indices
            else:  # from the empty product
                base, last, total, scale, pole_sum = (1,), (1,), 1, 0, 1
                halves, sums, new = table.half_terms(digits), table.pole_sums[digits], everything
            shift = 0
            for i in new:
                if last is not None:
                    base, total = _times(base, last, shift), None
                last, pair_scale, pair_shift = halves[i]
                pole_sum = sums[i]
                scale += pair_scale - shift
                # a term of one mantissa is already at the mantissas' scale
                shift = pair_shift if len(base) > 1 else 0
            if digits is None:
                rhs = 0
                for t in base:
                    for h in last:
                        rhs += t * h
            else:
                total = (sum(base) if total is None else total) * pole_sum
                bits = total.bit_length()
                try:
                    rhs = math.ldexp(total / (1 << bits), bits - scale)
                except OverflowError:  # too large for a double
                    rhs = math.inf
            if not _NORMAL_MIN <= abs(rhs) < math.inf:
                _check_normal("the fixed-point sum", c, rhs)
            out.append(PrefixCheck(table, everything, sizes, lhs, digits, base, last, scale,
                                   shift, rhs))
        return out

    @property
    def rel_err(self) -> float:
        return abs(self.lhs - self.rhs) / abs(self.rhs)


def dh_verify(space: SphereProductSpace, c) -> DHReport:
    """Both sides of the localization identity, their mismatch and each
    factor's quadrature node count (_size_term): the PrefixCheck on all of
    the space's factors.

    The right side is the fixed-point sum (2 pi / c)^n sum_p e^(c H(p)) /
    prod_j l_j, each factor's half-terms carrying its 2 pi / (c l_j).  For
    real c it cancels far beyond double precision at small c, so it runs on
    integer mantissas with the bits of the decimal digits _size_check
    sizes, and is rounded once; complex c takes complex floats.  Every
    refusal comes before any work, except that of a result that is not a
    normal double.
    """
    check = PrefixCheck.empty(c, space.factors).extend(*range(space.half_dim))
    return DHReport(lhs=check.lhs, rhs=check.rhs, rel_err=check.rel_err,
                    decimal_digits=check.digits,
                    quad_nodes=tuple(nodes for _, _, nodes in check.table.size_terms))
