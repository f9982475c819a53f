"""Level-N elliptic genus machinery.

Builds the Weierstrass-sigma-like building block

    Phi(x) = (1 - e^-x) prod_{n>=1} (1-q^n e^-x)(1-q^n e^x) / (1-q^n)^2

as a truncated power series in x: by Jacobi's triple product it is
theta_1(x) / theta_1'(0), theta_u(x) = sum_j (-1)^j q^(j(j-1)/2) u^j e^(-jx),
whose x^k coefficients are sums over a few pairs of indices (j, 1 - j).
Pointwise, Phi is the plain complex q-product, the series' independent
route.  The twisted characteristic function

    f(x) = e^(k x / N) Phi(x) Phi(-beta) / Phi(x - beta),
    beta = 2 pi i (k tau + l) / N,

takes Phi(x - beta) up to a constant from theta_u at u = e^beta.  The
genus of complex projective spaces is the x^m coefficient of Q(x)^(m+1),
where Q = x/f is Hirzebruch's characteristic series, built with one
series inversion.  Quasi-ellipticity of f is not assumed: translations over
a trial window of the lattice 2 pi i (Z tau + Z) are scanned, and the index
of the sublattice they generate is computed exactly by Euclid's algorithm.
Phi depends on x only through e^x, so f(x + 2 pi i m') is f(x) times the
root of unity e^(2 pi i k m' / N): the scan evaluates f once per row m of
the direction 2 pi i m tau, and compares each row once per residue k m' mod N.

This module is numeric by necessity (generic tau admits no exact
coefficients); every series carries a propagated bound for the truncation
of its theta series or q-products and for its floating-point rounding.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from bisect import bisect_left
from itertools import islice
from typing import NamedTuple

from .errors import (BetaSingularityError, NonConvergentError, ScanInconclusiveError,
                     ToleranceUnreachableError, require_double)
from .series import MAX_ORDER, _check_order
from .spectral import Tau, check_tolerance, factor_cap, factor_count, q_power

TWO_PI_I = 2j * math.pi
EPS = sys.float_info.epsilon

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
    """Level N >= 2 with twist indices 0 <= k, l < N, (k, l) != (0, 0).

    f is invariant under tau -> tau + N (q^n depends on tau mod 1, and beta
    moves by 2 pi i k, a period of Phi's e^x), so Re tau is kept mod N by
    fmod: exact, the sign of a zero kept, no tau with |Re tau| < N moved.
    """

    __slots__ = ()

    def __new__(cls, level: int, k: int, l: int, tau: Tau):
        if level < 2:
            raise ValueError("level must be an integer >= 2")
        if not (0 <= k < level and 0 <= l < level):
            raise ValueError("indices must satisfy 0 <= k, l < N")
        if k == 0 and l == 0:
            raise ValueError("(k, l) = (0, 0) makes the twist point vanish")
        reduced = Tau(complex(math.fmod(tau.value.real, level), tau.value.imag))
        return super().__new__(cls, level, k, l, reduced)

    @property
    def beta(self) -> complex:
        return TWO_PI_I * (self.k * self.tau.value + self.l) / self.level


class XSeries(NamedTuple):
    """Power series in the formal variable x with complex coefficients.

    `coeff_error` bounds the absolute error of every coefficient: the
    truncation of the underlying theta series plus the floating-point
    rounding of its sums and of series products.
    """

    order: int
    coeffs: tuple[complex, ...]
    coeff_error: float = 0.0

    @staticmethod
    def from_coeffs(coeffs, error: float = 0.0) -> "XSeries":
        """The series with these coefficients, as complex, and this error bound."""
        coeffs = tuple(complex(c) for c in coeffs)
        return XSeries(len(coeffs) - 1, coeffs, error)

    def norm1(self) -> float:
        return sum(abs(c) for c in self.coeffs)

    def __mul__(self, other: "XSeries") -> "XSeries":
        if self.order != other.order:
            raise ValueError(f"x-series orders differ: {self.order} and {other.order}")
        a, b = self.coeffs, other.coeffs
        n = len(a)
        a_norm, b_norm = self.norm1(), other.norm1()
        # coefficient k adds a_i b_(k-i) for i = 0..k, left to right from 0j
        out = [sum(map(operator.mul, a[:k + 1], b[k::-1]), 0j) for k in range(n)]
        # each coefficient sums at most n products: rounding <= n eps |a|_1 |b|_1
        rounding = n * EPS * a_norm * b_norm
        err = self.coeff_error * b_norm + other.coeff_error * a_norm + rounding
        return XSeries.from_coeffs(out, err)

    def invert(self) -> "XSeries":
        if self.coeffs[0] == 0:
            raise ZeroDivisionError("cannot invert an x-series with zero constant term")
        out = _reciprocal(self.coeffs)
        inv_norm = sum(abs(c) for c in out)
        # r_n sums n products and divides by a_0, so a * r = 1 + d with
        # |d_n| <= (n + 2) eps |a|_1 |r|_1 as in __mul__, the 2 for the
        # division; r is then off by r * d, and by r^2 times a's own error
        rounding = (len(out) + 2) * EPS * self.norm1() * inv_norm
        err = (self.coeff_error * inv_norm + rounding) * inv_norm
        return XSeries.from_coeffs(out, err)

    def int_pow(self, exponent: int) -> "XSeries":
        """Positive integer power by square-and-multiply, from the base itself:
        the bits of the exponent after its leading one, left to right."""
        if exponent < 1:
            raise ValueError(f"the exponent must be positive, got {exponent}")
        result = self
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result


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


def _theta_pairs(im_tau: float, growth: float, threshold: float, cap: int) -> tuple[int, float]:
    """The least J >= 1 whose dropped pairs (j, 1 - j), j > J, sum to below
    `threshold` on |x| = 1, with that sum's bound.  Pair j's terms are each
    at most e^g(j) there, g(j) = growth j - pi Im(tau) j (j - 1), whose steps
    d = g(j + 1) - g(j) fall with j: once d < 0 after J + 1, the tail is at
    most 2 e^g(J + 1) / (1 - e^d), which falls with J.  All in logs; a count
    past the cap is refused first, and J is found by bisection."""
    a = math.pi * im_tau

    def log_tail(count: int) -> float:
        t = count + 1
        step = growth - 2.0 * a * t
        return (math.log(2.0) + growth * t - a * t * count - math.log(-math.expm1(step))
                if step < 0 else math.inf)

    log_threshold = math.log(threshold) if threshold > 0 else -math.inf
    if cap < 1 or not log_tail(cap) < log_threshold:
        raise ToleranceUnreachableError(
            f"needed more than {cap} theta pairs for a tail below {threshold}")
    count = 1 + bisect_left(range(1, cap), True, key=lambda c: log_tail(c) < log_threshold)
    return count, math.exp(log_tail(count))


def _theta_ratio(tau: Tau, beta: complex, x_order: int, q_tol: float, lead: int,
                 rate: float = 0.0) -> XSeries:
    """e^(rate x) theta_u(x) / [e^(rate x) theta_u][lead] as an x-series,
    [g][k] the x^k coefficient of g.  By Jacobi's triple product, u = e^beta,
        theta_u(x) = sum_j (-1)^j q^(j(j-1)/2) u^j e^(-jx)
                   = (1 - u e^-x) prod_n (1 - q^n u e^-x)(1 - q^n e^x / u)(1 - q^n),
    so lead 1 at u = 1 is e^(rate x) Phi(x), and lead 0 is P(x)/P(0).
    Coefficient k sums w_j (rate - j)^k / k! over the terms of J pairs (j,
    1 - j), a column of running products at a time: O(J n) work, O(J + n)
    memory, J (n + 1) capped by LOCQ_MAX_FACTORS.  Each is off by at most E:
    the dropped pairs by Cauchy's estimate on |x| = 1 (_theta_pairs), and the
    rounding of each weight's exponent and exp, of the running product (at
    most its peak |c|^p / p!, c = rate - j, p = min(n, floor|c|)), of the
    term and of the sum.  With s the largest |coefficient| of the ratio, its
    bound is (1 + s) E / (|top| - E) plus the division's rounding.  A
    theta_u[0] below 1e-14 of its terms is a zero of the building block; a
    bound that is not finite is refused."""
    _check_order(x_order)
    check_tolerance(q_tol, "q_tol")
    absq = abs(q_power(tau, 1))
    if not absq < 1:
        raise NonConvergentError(f"the theta series needs |q| < 1, got {absq}")
    order = max(x_order, lead)
    # |e^((rate - j) x)| <= e^(|rate| + j) on |x| = 1, and |u^j| <= e^(j |Re beta|)
    pairs, tail = _theta_pairs(tau.value.imag, 1.0 + abs(rate) + abs(beta.real), q_tol / 8.0,
                               factor_cap() // (order + 1))
    # q^m = e^(2 pi i tau m) for integer m: Re tau counts only mod 1, exactly
    log_q = TWO_PI_I * complex(math.fmod(tau.value.real, 1.0), tau.value.imag)
    weights, steps, rounding = [], [], 0.0
    for j in range(1, pairs + 1):
        m = j * (j - 1) // 2
        for power, sign in ((j, (-1) ** j), (1 - j, -(-1) ** j)):
            weights.append(sign * cmath.exp(log_q * m + power * beta))
            steps.append(rate - power)
            size = abs(rate - power)
            peak = min(order, int(size))
            log_peak = peak * math.log(size) - math.lgamma(peak + 1) if peak else 0.0
            spread = abs(log_q) * m + abs(power * beta)  # the exponent's rounding, relative
            rounding += (abs(weights[-1]) * (math.exp(log_peak) if log_peak < 709 else math.inf)
                         * (8 + 4 * spread + 2 * order + 4 * pairs))
    column, coeffs = [1.0] * len(steps), []
    for k in range(order + 1):
        column = [p * c / k for p, c in zip(column, steps)] if k else column
        coeffs.append(sum(map(operator.mul, weights, column), 0j))
    # and below the normal doubles each operation errs by up to 2^-1075
    error = tail + EPS * rounding + 2 * pairs * (order + 3) * math.ulp(0.0)
    top = coeffs[lead]
    if lead == 0 and abs(top) < 1e-14 * sum(map(abs, weights)):
        raise BetaSingularityError(f"the twist point is a zero of the building block: "
                                   f"theta_u(0) = {top!r} to the rounding of its terms")
    out = [0j] * lead + [1.0 + 0j] + [c / top for c in coeffs[lead + 1:x_order + 1]]
    big = max(map(abs, out)) if sum(map(abs, out)) < math.inf else math.inf  # and not NaN
    slack = abs(top) - error
    bound = (1.0 + big) * error / slack + 4 * EPS * big if slack > 0 else math.inf
    require_double(f"the x-series bound at tau = {tau.value!r} (theta_u[{lead}] = {top!r}, by "
                   f"which it divides, is off by up to {error!r})", bound)
    return XSeries.from_coeffs(out[:x_order + 1], bound)


def phi_series(tau: Tau, x_order: int, q_tol: float = 1e-12) -> XSeries:
    """Phi as an x-series; Phi(0) = 0 and Phi'(0) = 1 hold exactly.

    Phi is theta_1(x) / theta_1'(0) (_theta_ratio); theta_1'(0) =
    prod (1 - q^n)^3 is Jacobi's identity.  The first two coefficients are
    written down, not computed, so they carry no rounding at all; the
    pointwise q-product `_PointEvaluator.phi` is the independent route.
    """
    return _theta_ratio(tau, 0j, x_order, q_tol, 1)


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
        # the dropped factor n differs from 1 by up to |q|^n max(|e^x|, |e^-x|)
        m = factor_count(1.0, self._absq, 1, self.q_tol / 8.0 / max(abs(ex), abs(emx), 1.0),
                         self._cap)
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
    return require_double(f"f at x = {x!r}", points.f(level, x, points.phi(-level.beta)))


def characteristic_series(level: LevelData, x_order: int, q_tol: float = 1e-12) -> XSeries:
    """Hirzebruch's characteristic series Q(x) = x / f(x), with Q(0) = 1 exact.

    f(x) = e^(kx/N) Phi(x) / (P(x)/P(0)), where P is Phi(x - beta) up to a
    constant: P(x)/P(0) = theta_u(x)/theta_u(0) at u = e^beta, and
    e^(kx/N) Phi(x) / x is the lead-1 theta series divided by x
    (_theta_ratio).  Both have constant term exactly 1, so Q is the first
    times the inverse of the second: one inversion, no rounding in Q(0).
    """
    _check_exponent("beta", level.beta)
    shifted = _theta_ratio(level.tau, level.beta, x_order, q_tol, 0)
    lead = _theta_ratio(level.tau, 0j, x_order + 1, q_tol, 1, level.k / level.level)
    # lead / x: its constant coefficient, which vanishes, drops
    return shifted * XSeries(x_order, lead.coeffs[1:], lead.coeff_error).invert()


class GenusValue(NamedTuple):
    value: complex
    error_bound: float


def genus_cpm(level: LevelData, m: int, q_tol: float = 1e-12) -> GenusValue:
    """Genus of the m-dimensional complex projective space.

    All m+1 Chern roots equal the hyperplane class x, so the pairing with
    the fundamental class extracts the coefficient of x^m from Q(x)^(m+1),
    Q = x/f the characteristic series.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > MAX_ORDER - 1:  # the theta series of e^(kx/N) Phi goes to order m + 1
        raise ValueError(f"m must be at most {MAX_ORDER - 1}, got {m}")
    g = characteristic_series(level, m, q_tol).int_pow(m + 1)
    bound = require_double(f"the error bound of the genus of CP^{m} at tau = {level.tau.value!r}",
                           max(g.coeff_error, q_tol))
    return GenusValue(value=g.coeffs[m], error_bound=bound)


class PeriodScanReport(NamedTuple):
    periods: tuple[tuple[int, int], ...]
    index: int | None
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
    if n > MAX_TRIAL_BOUND:  # the trial bound is at least N
        raise ValueError(f"the level N must be at most MAX_TRIAL_BOUND = {MAX_TRIAL_BOUND}, "
                         f"got {n}")
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
    report = PeriodScanReport(periods=tuple(periods), index=index, max_deviation=worst_kept)
    if index != expected:
        raise ScanInconclusiveError(
            f"expected an index-{expected} sublattice, found index {index}; "
            f"periods={report.periods}"
        )
    return report
