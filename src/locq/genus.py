"""Level-N elliptic genus machinery.

Builds the Weierstrass-sigma-like building block

    Phi(x) = (1 - e^-x) prod_{n>=1} (1-q^n e^-x)(1-q^n e^x) / (1-q^n)^2

as a truncated power series in x with numerically evaluated q-coefficients
(and pointwise, as a plain complex product), the twisted characteristic
function

    f(x) = e^(k x / N) Phi(x) Phi(-beta) / Phi(x - beta),
    beta = 2 pi i (k tau + l) / N,

and the genus of complex projective spaces via residue extraction from
(x/f(x))^(m+1).  Quasi-ellipticity of f is not assumed: translations over
a trial window of the lattice 2 pi i (Z tau + Z) are scanned, and the index
of the sublattice they generate is computed exactly by Euclid's algorithm.
Phi depends on x only through e^x, so f(x + 2 pi i m') is f(x) times the
root of unity e^(2 pi i k m' / N): the scan evaluates f once per row m of
the direction 2 pi i m tau, and compares each row once per residue k m' mod N.

This module is numeric by necessity (generic tau admits no exact
coefficients); every series carries a propagated bound for the truncation
error of its q-products.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from itertools import islice
from typing import NamedTuple

from .errors import BetaSingularityError, ScanInconclusiveError
from .series import _check_order
from .spectral import Tau, check_tolerance, factor_cap, factor_count, q_power

TWO_PI_I = 2j * math.pi

# The period scan evaluates f at 3 points per lattice row m, 3 (2B + 1) in
# all for trial bound B, and compares each row with the base at N residues.
MAX_TRIAL_BOUND = 64
# The points x at which the period scan compares f(x + omega) with f(x).
SCAN_POINTS = (0.31 + 0.17j, -0.23 + 0.41j, 0.11 - 0.29j)


def _check_exponent(what: str, z: complex) -> None:
    """Refuse, naming `what`, a z at which e^z or e^-z is not a normal
    double; Phi forms both at its argument, f both at beta."""
    if math.exp(-abs(z.real)) < sys.float_info.min:
        raise ValueError(f"overflow: e^(+-{what}) is not a normal double at {what} = {z!r}")


class _LevelFields(NamedTuple):
    level: int
    k: int
    l: int
    tau: Tau


class LevelData(_LevelFields):
    """Level N >= 2 with twist indices 0 <= k, l < N, (k, l) != (0, 0)."""

    __slots__ = ()

    def __new__(cls, level: int, k: int, l: int, tau: Tau):
        if level < 2:
            raise ValueError("level must be an integer >= 2")
        if not (0 <= k < level and 0 <= l < level):
            raise ValueError("indices must satisfy 0 <= k, l < N")
        if k == 0 and l == 0:
            raise ValueError("(k, l) = (0, 0) makes the twist point vanish")
        return super().__new__(cls, level, k, l, tau)

    @property
    def beta(self) -> complex:
        return TWO_PI_I * (self.k * self.tau.value + self.l) / self.level


class XSeries(NamedTuple):
    """Power series in the formal variable x with complex coefficients.

    `coeff_error` bounds the absolute error of every coefficient: the
    truncation of the underlying q-products plus the floating-point
    rounding of series products.
    """

    order: int
    coeffs: tuple[complex, ...]
    coeff_error: float = 0.0

    @staticmethod
    def from_coeffs(coeffs, error: float = 0.0) -> "XSeries":
        """The series with these coefficients, as complex, and this error bound."""
        coeffs = tuple(complex(c) for c in coeffs)
        return XSeries(len(coeffs) - 1, coeffs, error)

    @classmethod
    def one(cls, order: int) -> "XSeries":
        return cls.from_coeffs([1.0] + [0.0] * order)

    def norm1(self) -> float:
        return sum(abs(c) for c in self.coeffs)

    def __mul__(self, other: "XSeries") -> "XSeries":
        if self.order != other.order:
            raise ValueError(f"x-series orders differ: {self.order} and {other.order}")
        a, b = self.coeffs, other.coeffs
        n = len(a)
        a_norm, b_norm = self.norm1(), other.norm1()
        # coefficient k adds a_i b_(k-i) for i = 0..k, left to right from 0j.
        # Where every coefficient is finite (so both norms are), a product
        # past either factor's last nonzero coefficient is a zero, which
        # leaves such a sum as it is, signed zeros included, so none is
        # added: a is cut after its last, and past k = last_b the products
        # start at b's last nonzero coefficient.
        last_a = last_b = n - 1
        if math.isfinite(a_norm) and math.isfinite(b_norm):  # else inf * 0 is nan
            while last_a >= 0 and not a[last_a]:
                last_a -= 1
            while last_b >= 0 and not b[last_b]:
                last_b -= 1
        cut = a[:last_a + 1]
        out = [sum(map(operator.mul, cut[:k + 1], b[k::-1]), 0j) for k in range(last_b + 1)]
        if last_b < n - 1:
            tail = b[last_b::-1]
            out += [sum(map(operator.mul, cut[k - last_b:k + 1], tail), 0j)
                    for k in range(last_b + 1, n)]
        # each coefficient sums at most n products: rounding <= n eps |a|_1 |b|_1
        rounding = n * sys.float_info.epsilon * a_norm * b_norm
        err = self.coeff_error * b_norm + other.coeff_error * a_norm + rounding
        return XSeries.from_coeffs(out, err)

    def invert(self) -> "XSeries":
        if self.coeffs[0] == 0:
            raise ZeroDivisionError("cannot invert an x-series with zero constant term")
        out = _reciprocal(self.coeffs)
        inv_norm = sum(abs(c) for c in out)
        err = self.coeff_error * inv_norm * inv_norm
        return XSeries.from_coeffs(out, err)

    def int_pow(self, exponent: int) -> "XSeries":
        """Nonnegative integer power by square-and-multiply."""
        if exponent < 0:
            raise ValueError(f"the exponent must be nonnegative, got {exponent}")
        base, result = self, XSeries.one(self.order)
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base if exponent > 1 else base
            exponent >>= 1
        return result

    def shift_down(self) -> "XSeries":
        """Divide by x: drops the constant coefficient (which must vanish)."""
        return XSeries(self.order - 1, self.coeffs[1:], self.coeff_error)


def _reciprocal(a):
    """Coefficients of 1 / sum_k a[k] x**k to the length of `a`.

    Works over any field whose elements support +, * and /, such as
    Fraction or complex; a[0] must be nonzero (the caller checks).  From
    a * r = 1,
        r_0 = 1 / a_0,   r_n = -(sum_{k=1..n} a_k r_{n-k}) / a_0.
    """
    a0 = a[0]
    out = [1 / a0]
    for n in range(1, len(a)):
        out.append(-sum(map(operator.mul, a[1:n + 1], out[n - 1::-1])) / a0)
    return out


def _exp_series(rate: complex, order: int) -> XSeries:
    """Series of e^(rate * x)."""
    coeffs = [1.0 + 0j]
    term = 1.0 + 0j
    for k in range(1, order + 1):
        term *= rate / k
        coeffs.append(term)
    return XSeries.from_coeffs(coeffs)


def _product_factor_count(absq: float, q_tol: float, magnitude: float,
                          cap: int | None = None) -> int:
    """Number of q-product factors for a truncation tail below q_tol, at |q| = absq.

    `magnitude` bounds |e^x| and |e^-x| over the evaluation arguments: the
    dropped factor at index n differs from 1 by up to |q|^n * magnitude.
    `cap` is factor_cap(), which factor_count reads when it is not given.
    """
    return factor_count(1.0, absq, 1, q_tol / 8.0 / max(magnitude, 1.0), cap)


def _tail_error(tau: Tau, m: int, magnitude: float) -> float:
    absq = abs(q_power(tau, 1))
    return 8.0 * (magnitude * absq ** (m + 1)) / (1 - absq) ** 2


def _phi_product(tau: Tau, u: complex, x_order: int, q_tol: float) -> XSeries:
    """(1 - u e^-x) prod_{n=1..m} (1 - a e^-x)(1 - b e^x) / ((1-a)(1-b)) in x.

    Here a = q^n u and b = q^n / u.  At u = 1 this is Phi(x); at u = e^beta
    each factor is that of Phi(x - beta) up to a constant, so the result is
    Phi(x - beta) times a constant.  Coefficient k >= 1 of a pair factor
    is -(a (-1)^k + b) / (k! (1-a)(1-b)) and its constant term is exactly
    1, so the constant term of the result is exactly 1 - u, truncated or
    not.

    Tail bound, for q_tol <= 1: let M = max(|u|, 1/|u|) and s = |q|.  The
    factor count makes s^(m+1) / (1-s) < q_tol / (8M), so
    D = M s^(m+1) / (1-s) < 1/8, and every dropped factor n > m has
    |a|, |b| <= M s^n <= D.  In the l1 norm of coefficients, which bounds
    each coefficient and is submultiplicative for truncated products, a
    dropped pair factor P_n has
        |P_n - 1| <= (|a| + |b|)(e - 1) / (1 - D)^2 <= 4.5 M s^n,
    so |prod_{n>m} P_n - 1| <= exp(4.5 D) - 1 <= 8 D.  The full product
    therefore differs from the truncated one T by at most |T| 8 D; the
    bound below is that with one more factor 1/(1-s).  Without M it
    under-covers: at u = e^beta, M reaches e^(2 pi Im tau (N-1)/N).
    """
    _check_order(x_order)
    check_tolerance(q_tol, "q_tol")
    magnitude = max(abs(u), 1.0 / abs(u))
    m = _product_factor_count(abs(q_power(tau, 1)), q_tol, magnitude)
    # (1 - u e^-x): coefficient k >= 1 is -u (-1)^k / k!
    lead = [1.0 - u]
    term = 1.0 + 0j
    for k in range(1, x_order + 1):
        term *= -1.0 / k
        lead.append(-(u * term))
    out = XSeries.from_coeffs(lead)
    for n in range(1, m + 1):
        w = q_power(tau, n)
        a, b = w * u, w / u
        if abs(1.0 - a) < 1e-14 or abs(1.0 - b) < 1e-14:
            raise BetaSingularityError("a q-product factor of the building block vanishes")
        denom = (1.0 - a) * (1.0 - b)
        pair = [1.0 + 0j] + [0j] * x_order
        fact = 1.0
        for k in range(1, x_order + 1):
            fact *= k
            num = b - a if k % 2 else b + a
            if num != 0:  # at u = 1 every odd k; 0j / denom could give -0.0
                pair[k] = -num / fact / denom
        out = out * XSeries.from_coeffs(pair)
    return XSeries(out.order, out.coeffs,
                   _tail_error(tau, m, magnitude) * out.norm1() + out.coeff_error)


def phi_series(tau: Tau, x_order: int, q_tol: float = 1e-12) -> XSeries:
    """Phi as an x-series; Phi(0) = 0 and Phi'(0) = 1 hold exactly.

    This is the normalized product at u = 1: the leading factor
    (1 - e^-x) is written down analytically and each pair factor has
    constant coefficient exactly 1, so the first two coefficients of the
    result carry no rounding at all.
    """
    return _phi_product(tau, 1.0, x_order, q_tol)


class _PointEvaluator:
    """Pointwise Phi and f at one tau and q_tol, sharing q^n and (1 - q^n)^2.

    The (q^n, (1 - q^n)^2) table grows to the largest factor count asked
    for so far; a point that needs m factors reads its first m rows, so
    each value equals that of a fresh evaluator bit for bit.  An evaluator
    lives for one call or one scan and is never cached across them: tau
    values that compare equal can differ in the sign of a zero, and
    LOCQ_MAX_FACTORS, which it reads once, like |q|, may change between
    scans.
    """

    __slots__ = ("tau", "q_tol", "_absq", "_cap", "_rows")

    def __init__(self, tau: Tau, q_tol: float):
        check_tolerance(q_tol, "q_tol")
        self.tau = tau
        self.q_tol = q_tol
        self._absq = abs(q_power(tau, 1))
        # factor_count rejects |q| >= 1 before it reads the cap; so does this
        self._cap = factor_cap() if self._absq < 1 else None
        self._rows: list[tuple[complex, complex]] = []

    def phi(self, x: complex) -> complex:
        ex, emx = cmath.exp(x), cmath.exp(-x)
        m = _product_factor_count(self._absq, self.q_tol, max(abs(ex), abs(emx)), self._cap)
        rows = self._rows
        for n in range(len(rows) + 1, m + 1):
            qn = q_power(self.tau, n)
            rows.append((qn, (1.0 - qn) ** 2))
        val = 1.0 - emx
        for qn, den in islice(rows, m):
            val *= (1.0 - qn * emx) * (1.0 - qn * ex) / den
        return val

    def f(self, level: LevelData, x: complex, phi_mb: complex) -> complex:
        """f(x), given phi_mb = self.phi(-level.beta)."""
        phi_xb = self.phi(x - level.beta)
        if abs(phi_xb) < 1e-14:
            raise BetaSingularityError("x - beta hits a zero of the building block")
        return cmath.exp(level.k / level.level * x) * self.phi(x) * phi_mb / phi_xb


def f_point(level: LevelData, x: complex, q_tol: float = 1e-12) -> complex:
    """Pointwise numeric evaluation of the twisted function f.

    Refuses, by a ValueError naming x, an x at which e^(+-x) or
    e^(+-(x - beta)) is not a normal double, before any product, and an x
    at which the value is not finite.
    """
    _check_exponent("beta", level.beta)
    _check_exponent("x", x)
    _check_exponent("(x - beta)", x - level.beta)
    points = _PointEvaluator(level.tau, q_tol)
    value = points.f(level, x, points.phi(-level.beta))
    if not cmath.isfinite(value):
        raise ValueError(f"overflow: f is not finite at x = {x!r}, got {value!r}")
    return value


def f_series(level: LevelData, x_order: int, q_tol: float = 1e-12) -> XSeries:
    """f as an x-series with f(0) = 0 and f'(0) = 1 exact.

    The ratio Phi(-beta)/Phi(x-beta) is the inverse of P(x)/P(0), where P
    is the normalized product at u = e^beta: P is Phi(x - beta) times a
    constant and P(0) = 1 - u exactly, so the series inverted has constant
    term exactly 1 and no rounding enters the normalization.
    """
    _check_exponent("beta", level.beta)
    shifted = _phi_product(level.tau, cmath.exp(level.beta), x_order, q_tol)
    z0 = shifted.coeffs[0]  # = 1 - e^beta
    if abs(z0) < 1e-14:
        raise BetaSingularityError("the twist point is a zero of the building block")
    normalized = [1.0 + 0j] + [c / z0 for c in shifted.coeffs[1:]]
    ratio = XSeries.from_coeffs(normalized, shifted.coeff_error / abs(z0)).invert()
    prefactor = _exp_series(level.k / level.level, x_order)
    return prefactor * phi_series(level.tau, x_order, q_tol) * ratio


class GenusValue(NamedTuple):
    value: complex
    error_bound: float


def genus_cpm(level: LevelData, m: int, q_tol: float = 1e-12) -> GenusValue:
    """Genus of the m-dimensional complex projective space.

    All m+1 Chern roots equal the hyperplane class x, so the pairing with
    the fundamental class extracts the coefficient of x^m from
    (x / f(x))^(m+1); x/f is a unit series because f(0)=0, f'(0)=1.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    f = f_series(level, m + 1, q_tol)
    unit = f.shift_down()  # f(x)/x, constant term exactly 1
    g = unit.invert().int_pow(m + 1)
    return GenusValue(value=g.coeffs[m], error_bound=max(g.coeff_error, q_tol))


class PeriodScanReport(NamedTuple):
    periods: tuple[tuple[int, int], ...]
    index: int | None
    level: int
    max_deviation: float


def _lattice_index(vectors) -> int | None:
    """Index in Z^2 of the sublattice generated by integer vectors, None
    when they do not span a finite-index sublattice.

    Euclid's algorithm on first coordinates, by unimodular row operations
    (Cohen, GTM 138, 2.4): one generator (a, b) keeps the gcd of the first
    coordinates so far, and each vector's leftover (0, y) folds into
    d = gcd(d, y).  The lattice is then spanned by (a, b) and (0, d), so
    its index is |a| d, which is 0 when it has rank below 2.
    """
    a = b = d = 0
    for x, y in vectors:
        while x:
            t = a // x
            a, b, x, y = x, y, a - t * x, b - t * y
        d = math.gcd(d, y)
    return abs(a) * d or None


def lattice_periodicity_scan(
    level: LevelData,
    trial_bound: int | None = None,
    tol: float = 1e-8,
    q_tol: float = 1e-12,
) -> PeriodScanReport:
    """Scan lattice translations for exact periods of f.

    Tests every omega = 2 pi i (m tau + m') with |m|, |m'| <= trial_bound
    (N by default, at most MAX_TRIAL_BOUND) at SCAN_POINTS and keeps
    those with max |f(x+omega) - f(x)| < tol max(1, max |f(x)|).

    Phi is a function of e^z, so f(z + 2 pi i m') = w^(k m') f(z) exactly,
    with w = e^(2 pi i / N).  Each row m is evaluated once, at
    z = x + 2 pi i m tau (row 0 is the base f(x)), and its deviation from
    the base taken as w^r times the row at each residue r < N; translate
    (m, m') has that of residue k m' mod N.  Phi(-beta) and the q^n table
    are computed once, so a scan evaluates Phi 7 + 12 B times at trial
    bound B.  The kept translations must generate a sublattice of index
    exactly N / gcd(k, l, N) in 2 pi i (Z tau + Z), which is N for a
    primitive twist; otherwise ScanInconclusive is raised with the partial
    findings attached.
    """
    check_tolerance(tol)
    n = level.level
    expected = n // math.gcd(level.k, level.l, n)
    bound = trial_bound if trial_bound is not None else n
    if bound < n:
        raise ValueError("trial_bound must be at least the level")
    if bound > MAX_TRIAL_BOUND:
        raise ValueError(f"trial_bound must be at most {MAX_TRIAL_BOUND}, got {bound}")
    tau = level.tau
    _check_exponent("beta", level.beta)
    # Re(x + omega) is affine in m and free of m', so the points at m = +-B
    # bound every argument x + omega and x + omega - beta of Phi
    for m in (-bound, bound):
        for x in SCAN_POINTS:
            z = x + TWO_PI_I * (m * tau.value)
            _check_exponent("z", z)
            _check_exponent("z", z - level.beta)
    points = _PointEvaluator(tau, q_tol)
    phi_mb = points.phi(-level.beta)
    base = [points.f(level, x, phi_mb) for x in SCAN_POINTS]
    cut = tol * max(max(abs(v) for v in base), 1.0)
    roots = [cmath.exp(TWO_PI_I * r / n) for r in range(n)]
    periods: list[tuple[int, int]] = []
    worst_kept = 0.0
    for m in range(-bound, bound + 1):
        shift = TWO_PI_I * (m * tau.value)
        row = base if m == 0 else [points.f(level, x + shift, phi_mb) for x in SCAN_POINTS]
        devs = [max(abs(w * g - b) for g, b in zip(row, base)) for w in roots]
        for mp in range(-bound, bound + 1):
            dev = devs[level.k * mp % n]
            if dev < cut:
                periods.append((m, mp))
                worst_kept = max(worst_kept, dev)
    index = _lattice_index(periods)
    report = PeriodScanReport(
        periods=tuple(periods), index=index, level=n, max_deviation=worst_kept
    )
    if index != expected:
        raise ScanInconclusiveError(
            f"expected an index-{expected} sublattice, found index {index}; "
            f"periods={report.periods}"
        )
    return report
