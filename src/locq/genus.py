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
a trial window of the lattice 2 pi i (Z tau + Z) are scanned numerically
and the index of the sublattice they generate is computed exactly.

This module is numeric by necessity (generic tau admits no exact
coefficients); every series carries a propagated bound for the truncation
error of its q-products.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import BetaSingularityError, NonConvergentError, ScanInconclusiveError
from .spectral import Tau, q_power

TWO_PI_I = 2j * math.pi


@dataclass(frozen=True, slots=True)
class LevelData:
    """Level N >= 2 with twist indices 0 <= k, l < N, (k, l) != (0, 0)."""

    level: int
    k: int
    l: int
    tau: Tau

    def __post_init__(self):
        if self.level < 2:
            raise ValueError("level must be an integer >= 2")
        if not (0 <= self.k < self.level and 0 <= self.l < self.level):
            raise ValueError("indices must satisfy 0 <= k, l < N")
        if self.k == 0 and self.l == 0:
            raise ValueError("(k, l) = (0, 0) makes the twist point vanish")

    @property
    def beta(self) -> complex:
        return TWO_PI_I * (self.k * self.tau.value + self.l) / self.level


@dataclass(frozen=True, slots=True)
class XSeries:
    """Power series in the formal variable x with complex coefficients.

    `coeff_error` bounds the absolute error of every coefficient coming
    from truncating the underlying q-products.
    """

    order: int
    coeffs: tuple[complex, ...]
    coeff_error: float = 0.0

    @staticmethod
    def _make(coeffs, error: float = 0.0) -> "XSeries":
        coeffs = tuple(complex(c) for c in coeffs)
        return XSeries(len(coeffs) - 1, coeffs, error)

    @classmethod
    def one(cls, order: int) -> "XSeries":
        return cls._make([1.0] + [0.0] * order)

    def norm1(self) -> float:
        return sum(abs(c) for c in self.coeffs)

    def _common(self, other):
        order = min(self.order, other.order)
        return self.truncate(order), other.truncate(order)

    def truncate(self, order: int) -> "XSeries":
        if order >= self.order:
            return self
        return XSeries(order, self.coeffs[: order + 1], self.coeff_error)

    def __add__(self, other: "XSeries") -> "XSeries":
        a, b = self._common(other)
        return XSeries._make([x + y for x, y in zip(a.coeffs, b.coeffs)],
                             a.coeff_error + b.coeff_error)

    def __sub__(self, other: "XSeries") -> "XSeries":
        a, b = self._common(other)
        return XSeries._make([x - y for x, y in zip(a.coeffs, b.coeffs)],
                             a.coeff_error + b.coeff_error)

    def __mul__(self, other) -> "XSeries":
        if isinstance(other, (int, float, complex)):
            return XSeries._make([c * other for c in self.coeffs],
                                 self.coeff_error * abs(other))
        a, b = self._common(other)
        n = a.order + 1
        out = [0j] * n
        for i in range(n):
            ai = a.coeffs[i]
            if ai != 0:
                for j in range(n - i):
                    out[i + j] += ai * b.coeffs[j]
        err = a.coeff_error * b.norm1() + b.coeff_error * a.norm1()
        return XSeries._make(out, err)

    def __rmul__(self, other) -> "XSeries":
        return self.__mul__(other)

    def invert(self) -> "XSeries":
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("cannot invert an x-series with zero constant term")
        n = self.order + 1
        out = [0j] * n
        out[0] = 1.0 / c0
        for m in range(1, n):
            acc = 0j
            for k in range(1, m + 1):
                acc += self.coeffs[k] * out[m - k]
            out[m] = -acc / c0
        inv_norm = sum(abs(c) for c in out)
        err = self.coeff_error * inv_norm * inv_norm
        return XSeries._make(out, err)

    def int_pow(self, exponent: int) -> "XSeries":
        if exponent == 0:
            return XSeries.one(self.order)
        base = self if exponent > 0 else self.invert()
        e = abs(exponent)
        result = XSeries.one(self.order)
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def shift_down(self) -> "XSeries":
        """Divide by x: drops the constant coefficient (which must vanish)."""
        return XSeries(self.order - 1, self.coeffs[1:], self.coeff_error)

    def eval(self, x: complex) -> complex:
        total = 0j
        for c in reversed(self.coeffs):
            total = total * x + c
        return total


def _exp_series(rate: complex, order: int) -> XSeries:
    """Series of e^(rate * x)."""
    coeffs = [1.0 + 0j]
    term = 1.0 + 0j
    for k in range(1, order + 1):
        term *= rate / k
        coeffs.append(term)
    return XSeries._make(coeffs)


def _product_factor_count(tau: Tau, q_tol: float, magnitude: float = 1.0) -> int:
    """Number of q-product factors for a truncation tail below q_tol.

    `magnitude` bounds |e^x| and |e^-x| over the evaluation arguments: the
    dropped factor at index n differs from 1 by up to |q|^n * magnitude.
    """
    absq = abs(q_power(tau, 1))
    if absq >= 1:
        raise NonConvergentError("|q| >= 1")
    m = 1
    threshold = q_tol / (8.0 * max(magnitude, 1.0))
    while absq ** (m + 1) / (1 - absq) >= threshold and m < 10**6:
        m += 1
    return m


def _tail_error(tau: Tau, m: int) -> float:
    absq = abs(q_power(tau, 1))
    return 8.0 * absq ** (m + 1) / (1 - absq) ** 2


def phi_series(tau: Tau, x_order: int, q_tol: float = 1e-12) -> XSeries:
    """Phi as an x-series; Phi(0) = 0 and Phi'(0) = 1 hold exactly.

    The leading factor (1 - e^-x) is written down analytically and each
    normalized pair (1-q^n e^-x)(1-q^n e^x)/(1-q^n)^2 is constructed with
    constant coefficient exactly 1, so the first two coefficients of the
    result carry no rounding at all.
    """
    m = _product_factor_count(tau, q_tol)
    # (1 - e^-x): coefficient k is -(-1)^k / k!
    lead = [0j]
    term = 1.0 + 0j
    for k in range(1, x_order + 1):
        term *= -1.0 / k
        lead.append(-term)
    out = XSeries._make(lead)
    for n in range(1, m + 1):
        out = out * _normalized_pair(q_power(tau, n), x_order)
    return XSeries(out.order, out.coeffs, _tail_error(tau, m) * out.norm1())


def _normalized_pair(w: complex, x_order: int) -> XSeries:
    """(1 - w e^-x)(1 - w e^x) / (1 - w)^2 with exact unit constant term.

    The unnormalized pair is 1 - w(e^x + e^-x) + w^2, whose nonconstant
    coefficients are -2w / k! for even k >= 2; the constant is (1-w)^2,
    so after normalization it is exactly 1.
    """
    denom = (1.0 - w) ** 2
    coeffs = [1.0 + 0j] + [0j] * x_order
    fact = 1.0
    for k in range(1, x_order + 1):
        fact *= k
        if k % 2 == 0:
            coeffs[k] = -2.0 * w / fact / denom
    return XSeries._make(coeffs)


def phi_product_part(tau: Tau, x_order: int, q_tol: float = 1e-12) -> XSeries:
    """The normalized infinite-product part of Phi alone (an even series)."""
    m = _product_factor_count(tau, q_tol)
    out = XSeries.one(x_order)
    for n in range(1, m + 1):
        out = out * _normalized_pair(q_power(tau, n), x_order)
    return XSeries(out.order, out.coeffs, _tail_error(tau, m) * out.norm1())


def phi_shifted_series(tau: Tau, shift: complex, x_order: int,
                       q_tol: float = 1e-12) -> XSeries:
    """Phi(x + shift) as an x-series."""
    e_shift = cmath.exp(-shift)
    m = _product_factor_count(tau, q_tol, max(abs(e_shift), 1.0 / abs(e_shift)))
    out = XSeries.one(x_order) - e_shift * _exp_series(-1.0, x_order)
    for n in range(1, m + 1):
        qn = q_power(tau, n)
        norm = (1.0 - qn) ** 2
        f_minus = XSeries.one(x_order) - (qn * e_shift) * _exp_series(-1.0, x_order)
        f_plus = XSeries.one(x_order) - (qn / e_shift) * _exp_series(1.0, x_order)
        out = out * f_minus * f_plus * (1.0 / norm)
    return XSeries(out.order, out.coeffs, _tail_error(tau, m) * out.norm1())


def phi_point(tau: Tau, x: complex, q_tol: float = 1e-12) -> complex:
    """Pointwise numeric evaluation of Phi."""
    ex, emx = cmath.exp(x), cmath.exp(-x)
    m = _product_factor_count(tau, q_tol, max(abs(ex), abs(emx)))
    val = 1.0 - emx
    for n in range(1, m + 1):
        qn = q_power(tau, n)
        val *= (1.0 - qn * emx) * (1.0 - qn * ex) / (1.0 - qn) ** 2
    return val


def f_point(level: LevelData, x: complex, q_tol: float = 1e-12) -> complex:
    """Pointwise numeric evaluation of the twisted function f."""
    tau = level.tau
    beta = level.beta
    phi_mb = phi_point(tau, -beta, q_tol)
    phi_xb = phi_point(tau, x - beta, q_tol)
    if abs(phi_xb) < 1e-14:
        raise BetaSingularityError("x - beta hits a zero of the building block")
    return cmath.exp(level.k / level.level * x) * phi_point(tau, x, q_tol) * phi_mb / phi_xb


def f_series(level: LevelData, x_order: int, q_tol: float = 1e-12) -> XSeries:
    """f as an x-series with f(0) = 0 and f'(0) = 1 exact.

    The ratio Phi(-beta)/Phi(x-beta) is computed as the inverse of the
    series Phi(x-beta)/Phi(-beta), whose constant term is exactly 1 by
    construction, so no rounding enters the normalization.
    """
    tau = level.tau
    beta = level.beta
    shifted = phi_shifted_series(tau, -beta, x_order, q_tol)
    z0 = shifted.coeffs[0]  # = Phi(-beta)
    if abs(z0) < 1e-14:
        raise BetaSingularityError("the twist point is a zero of the building block")
    normalized = [1.0 + 0j] + [c / z0 for c in shifted.coeffs[1:]]
    ratio = XSeries._make(normalized, shifted.coeff_error / abs(z0)).invert()
    prefactor = _exp_series(level.k / level.level, x_order)
    return prefactor * phi_series(tau, x_order, q_tol) * ratio


def chern_character_product(chern_roots, tau: Tau, q_tol: float = 1e-12) -> complex:
    """prod_j prod_{n>=1} (1 - q^n e^(x_j))(1 - q^n e^(-x_j)), numerically."""
    val = 1.0 + 0j
    for x in chern_roots:
        ex, emx = cmath.exp(complex(x)), cmath.exp(-complex(x))
        m = _product_factor_count(tau, q_tol, max(abs(ex), abs(emx)))
        for n in range(1, m + 1):
            qn = q_power(tau, n)
            val *= (1.0 - qn * ex) * (1.0 - qn * emx)
    return val


@dataclass(frozen=True, slots=True)
class GenusValue:
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


@dataclass(frozen=True, slots=True)
class PeriodScanReport:
    periods: tuple[tuple[int, int], ...]
    index: int | None
    level: int
    max_deviation: float


def _lattice_index(vectors) -> int | None:
    """Index in Z^2 of the sublattice generated by integer vectors.

    Hermite-style reduction of the 2 x n generator matrix; returns None
    when the vectors do not span a finite-index sublattice.
    """
    vecs = [list(v) for v in vectors if v != (0, 0)]
    if not vecs:
        return None
    # reduce first coordinate to a single pivot by gcd steps
    while True:
        vecs = [v for v in vecs if v != [0, 0]]
        nonzero_first = [v for v in vecs if v[0] != 0]
        if len(nonzero_first) <= 1:
            break
        nonzero_first.sort(key=lambda v: abs(v[0]))
        pivot = nonzero_first[0]
        for v in nonzero_first[1:]:
            k = v[0] // pivot[0]
            v[0] -= k * pivot[0]
            v[1] -= k * pivot[1]
    pivot_rows = [v for v in vecs if v[0] != 0]
    rest = [v for v in vecs if v[0] == 0]
    if not pivot_rows or not rest:
        return None
    g2 = 0
    for v in rest:
        g2 = math.gcd(g2, abs(v[1]))
    if g2 == 0:
        return None
    return abs(pivot_rows[0][0]) * g2


def lattice_periodicity_scan(
    level: LevelData,
    trial_bound: int | None = None,
    tol: float = 1e-8,
    q_tol: float = 1e-12,
    sample_points=(0.31 + 0.17j, -0.23 + 0.41j, 0.11 - 0.29j),
) -> PeriodScanReport:
    """Scan lattice translations for exact periods of f.

    Tests every omega = 2 pi i (m tau + m') with |m|, |m'| <= trial_bound
    at the sample points and keeps those with max |f(x+omega) - f(x)| < tol.
    The kept translations must generate a sublattice of index exactly
    N / gcd(k, l, N) in 2 pi i (Z tau + Z), which is N for a primitive
    twist; otherwise ScanInconclusive is raised with the partial findings
    attached.
    """
    n = level.level
    expected = n // math.gcd(level.k, level.l, n)
    bound = trial_bound if trial_bound is not None else n
    if bound < n:
        raise ValueError("trial_bound must be at least the level")
    tau = level.tau
    base = [f_point(level, x, q_tol) for x in sample_points]
    scale = max(max(abs(v) for v in base), 1.0)
    periods: list[tuple[int, int]] = []
    worst_kept = 0.0
    for m in range(-bound, bound + 1):
        for mp in range(-bound, bound + 1):
            omega = TWO_PI_I * (m * tau.value + mp)
            dev = max(
                abs(f_point(level, x + omega, q_tol) - b)
                for x, b in zip(sample_points, base)
            )
            if dev < tol * scale:
                periods.append((m, mp))
                worst_kept = max(worst_kept, dev)
    index = _lattice_index(periods)
    report = PeriodScanReport(
        periods=tuple(sorted(periods)), index=index, level=n, max_deviation=worst_kept
    )
    if index != expected:
        raise ScanInconclusiveError(
            f"expected an index-{expected} sublattice, found index {index}; "
            f"periods={report.periods}"
        )
    return report
