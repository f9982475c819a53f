"""Self-contained verification suites behind the `verify-all` command.

Each suite returns one Row per identity: `exact` compares (got, want)
pairs with ==, `within` holds errors to a tolerance, and one rule
(Row.passed) decides every row.  The suites are deliberately oracle-based:
product formulas are compared against independent enumerations, both
sides of the localization identity are evaluated by unrelated numerical
routes, and exact identities are checked with rational arithmetic.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction
from typing import NamedTuple

from . import genfunc, genus, kernel, localization, pfaffian, qhyper, spectral
from .errors import LocqError
from .series import IntegerProductSpec, expand_product
from .spectral import SpectralParams, Tau


class Row(NamedTuple):
    """One identity's result: `checks` cases, their `worst`, and its `tolerance`.

    An exact row (tolerance None) passes iff worst, its mismatch count, is
    0; a tolerance row passes iff worst < tolerance, so a NaN or infinite
    worst fails it; a row with no checks fails.
    """

    identity: str
    checks: int
    worst: float
    tolerance: float | None = None

    @property
    def passed(self) -> bool:
        if self.checks == 0:
            return False
        if self.tolerance is None:
            return self.worst == 0
        return self.worst < self.tolerance


def _or_none(fn, *args, **kwargs):
    """fn(*args, **kwargs), or None where it refuses with a LocqError."""
    try:
        return fn(*args, **kwargs)
    except LocqError:
        return None


def exact(identity: str, pairs) -> Row:
    """An exact row from (got, want) pairs: worst counts the pairs with got != want."""
    checks = mismatches = 0
    for got, want in pairs:
        checks += 1
        mismatches += got != want
    return Row(identity, checks, mismatches)


def within(identity: str, errors, tolerance: float) -> Row:
    """A tolerance row from errors.  A NaN error stays the worst, where
    max(worst, err) would pass over it."""
    checks, worst = 0, 0.0
    for err in errors:
        checks += 1
        if err > worst or math.isnan(err):
            worst = float(err)
    return Row(identity, checks, worst, tolerance)


class SuiteResult(NamedTuple):
    name: str
    rows: tuple[Row, ...]

    @property
    def passed(self) -> bool:
        return bool(self.rows) and all(row.passed for row in self.rows)


# -- 1. localization ---------------------------------------------------------

DH_VALUES = (0.5, 1.0, 2.0, 3.0)
DH_CS = (0.01, 0.1, 1.0, 5.0)
DH_TOL = 1e-8
DH_MAX_FACTORS = 4


def localization_checks():
    """Every check of suite_localization, as (c, indices, lhs, rhs, rel_err):
    each multiset of one to DH_MAX_FACTORS of the 16 factors with radius and
    weight in DH_VALUES, as itertools.combinations_with_replacement gives it,
    at every c in DH_CS, from one localization.FactorTable per c, which does
    each factor's work once.  Each check is dh_verify's on its space."""
    factors = [localization.SphereFactor(r, mu) for r in DH_VALUES for mu in DH_VALUES]
    for c in DH_CS:
        table = localization.FactorTable(c, factors)
        for n in range(1, DH_MAX_FACTORS + 1):
            for indices in itertools.combinations_with_replacement(range(len(factors)), n):
                yield (c, indices, *table.check(indices))


def suite_localization() -> SuiteResult:
    """Both sides of the fixed-point identity on every sphere product
    with radii and weights drawn from DH_VALUES, up to four factors."""
    return SuiteResult("dh-localization", (
        within("fixed-point sum = Liouville integral, rel err",
               map(operator.itemgetter(-1), localization_checks()), DH_TOL),
    ))


# -- 2. pfaffian --------------------------------------------------------------


def suite_pfaffian() -> SuiteResult:
    import numpy as np

    rng = np.random.default_rng(20240915)

    def skew(dims):
        d = dims[rng.integers(len(dims))]
        raw = rng.normal(size=(d, d))
        return pfaffian.SkewMatrix(raw - raw.T)

    def square_errors():
        for _ in range(500):
            a = skew([2, 4, 6, 8, 10, 12])
            pf, det = pfaffian.pfaffian(a), a.det()
            yield abs(pf * pf - det) / max(abs(det), 1e-30)

    def congruence_errors():
        for _ in range(200):
            a = skew([2, 4, 6, 8])
            b = rng.normal(size=(a.dim, a.dim))
            lhs = pfaffian.pfaffian(pfaffian.SkewMatrix(b @ a.mat @ b.T))
            rhs = float(np.linalg.det(b)) * pfaffian.pfaffian(a)
            yield abs(lhs - rhs) / max(abs(rhs), 1e-30)

    def path_errors():
        for _ in range(100):
            a = skew([2, 4, 6, 8])
            pc = pfaffian.pfaffian_combinatorial(a)
            yield abs(pc - pfaffian.pfaffian_tridiagonal(a)) / max(abs(pc), 1e-30)

    return SuiteResult("pfaffian", (
        within("Pf(A)^2 = det(A), rel err", square_errors(), 1e-9),
        within("Pf(B A B^T) = det(B) Pf(A), rel err", congruence_errors(), 1e-8),
        within("combinatorial Pf = tridiagonal Pf, rel err", path_errors(), 1e-10),
    ))


# -- 3/4/5/6. generating functions -------------------------------------------


def betti_family(max_total: int, max_degree: int) -> list:
    """All Betti tuples with the given total rank and top degree, no
    trailing zeros (trailing zeros change nothing), plus the empty space;
    those of length L as the gaps of c_1 < ... < c_L in range(max_total + L)."""
    family = [genfunc.BettiData.of()]
    for length in range(1, max_degree + 2):
        for cut in itertools.combinations(range(max_total + length), length):
            combo = tuple(c - p - 1 for p, c in zip((-1, *cut), cut))
            if sum(combo) > 0 and (length == 1 or combo[-1] > 0):
                family.append(genfunc.BettiData(combo))
    return family


def suite_macdonald() -> SuiteResult:
    """Product formula vs graded-symmetric-power enumeration, n <= 8."""
    return SuiteResult("macdonald-oracle", (
        exact("Macdonald product q^n = symmetric-power enumeration, n <= 8",
              ((series.q_coefficient(n), want)
               for b in betti_family(max_total=4, max_degree=5)
               for series in [genfunc.macdonald_series(b, 8)]
               for n, want in enumerate(genfunc.sym_poincare_oracle_series(b, 8)))),
    ))


def suite_euler() -> SuiteResult:
    """y = -1 specialization and the equivariant partition-number check."""
    # independent partition counts by bounded-part dynamic programming
    nmax = 20
    dp = [1] + [0] * nmax
    for part in range(1, nmax + 1):
        for n in range(part, nmax + 1):
            dp[n] += dp[n - part]
    closed = {chi: tuple(kernel.sparse_power([(1, -1)], -chi, nmax))
              for chi in range(-4, 5)}  # |chi| <= 4
    return SuiteResult("euler-specializations", (
        exact("Macdonald series at y = -1 = (1 - q)^(-chi), to q^20",
              ((genfunc.macdonald_series(b, nmax).specialize_y(-1).coeffs, closed[b.chi])
               for b in betti_family(max_total=4, max_degree=5))),
        exact("equivariant series at chi = 1 = partition numbers p(n), n <= 20",
              zip(genfunc.equivariant_euler_series(1, nmax).coeffs, dp)),
    ))


def suite_orbifold() -> SuiteResult:
    """Orbifold product (q-index from 1, degree index from 0) vs the
    partition-sum oracle, coefficient by coefficient for n <= 8."""
    return SuiteResult("orbifold-oracle", (
        exact("orbifold product q^n = partition-sum enumeration, n <= 8",
              ((series.q_coefficient(n), want)
               for b in betti_family(max_total=3, max_degree=3) + [genfunc.BettiData.of(1, 2, 1)]
               for series in [genfunc.orbifold_series(b, 8)]
               for n, want in enumerate(genfunc.orbifold_oracle_series(b, 8)))),
    ))


def suite_twisted() -> SuiteResult:
    """Constant term 2 at chi = 0, integer coefficients for chi in [-4, 4],
    and the spin-partition oracle coefficient by coefficient for chi in
    [0, 4], n <= 20."""
    # refused (None) where the halved difference is not an integer
    series = {chi: _or_none(genfunc.twisted_sym_series, chi, 20) for chi in range(-4, 5)}
    return SuiteResult("twisted-sym", (
        exact("twisted series at chi = 0 = 2, orders 0, 1, 5, 12, 20",
              ((list(genfunc.twisted_sym_series(0, order).coeffs), [2] + [0] * order)
               for order in (0, 1, 5, 12, 20))),
        exact("twisted series has integer coefficients, chi in [-4, 4]",
              ((s is not None, True) for s in series.values())),
        # the oracle counts tuples: chi >= 0 only
        exact("twisted series q^n = spin-partition count, chi in [0, 4], n <= 20",
              ((s and s.coeffs[n], genfunc.twisted_sym_oracle(chi, n))
               for chi, s in series.items() if chi >= 0
               for n in range(21))),
    ))


# -- 7. q-identities -----------------------------------------------------------


def _random_fraction(rng: random.Random) -> Fraction:
    num = rng.choice([v for v in range(-9, 10) if v != 0])
    den = rng.randint(1, 9)
    return Fraction(num, den)


def _saalschutz_pairs(rng: random.Random):
    """(lhs, rhs) on 60 random legal parameter sets; running out of 2000
    attempts before that is one more, failing, pair."""
    found = 0
    for _ in range(2000):
        n = rng.randint(0, 6)
        a, b, c = (_random_fraction(rng) for _ in range(3))
        q = Fraction(rng.randint(1, 8), rng.randint(9, 12))
        try:
            result = qhyper.saalschutz_check(a, b, c, n, q)
        except LocqError:
            continue
        yield result.lhs, result.rhs
        found += 1
        if found == 60:
            return
    yield found, 60


def _shift_pairs(rng: random.Random):
    """(a;q)_{m+n} against (a;q)_m (a q^m;q)_n on 200 legal random draws."""
    found = 0
    while found < 200:
        a = _random_fraction(rng)
        q = Fraction(rng.randint(1, 8), rng.randint(9, 12))
        m = rng.randint(-5, 5)
        n = rng.randint(-5, 5)
        try:
            lhs = qhyper.pochhammer(a, q, m + n)
            rhs = qhyper.pochhammer(a, q, m) * qhyper.pochhammer(a * q**m, q, n)
        except LocqError:
            continue
        found += 1
        yield lhs, rhs


def suite_qidentities() -> SuiteResult:
    rng = random.Random(777)
    return SuiteResult("q-identities", (
        exact("terminating q-Saalschutz sum = closed form, n <= 6", _saalschutz_pairs(rng)),
        exact("(a;q)_(m+n) = (a;q)_m (a q^m;q)_n, |m|, |n| <= 5", _shift_pairs(rng)),
    ))


# -- 8. spectral ----------------------------------------------------------------


def suite_spectral() -> SuiteResult:
    product = spectral.evaluate_product(SpectralParams(1.0, 0.0, 1, "minus", Tau(1j)),
                                        rel_tol=1e-13)
    closed = math.exp(math.pi / 12.0) * math.gamma(0.25) / (2.0 * math.pi**0.75)

    def series_errors():
        for tv in (1j, 0.3 + 0.9j):
            tau = Tau(tv)
            q = spectral.nome(tau)
            for a, eps, ell, sign in ((1, 0, 1, "minus"), (1, 0, 1, "plus"),
                                      (2, 1, 0, "minus"), (3, 2, 1, "plus")):
                poly = expand_product(IntegerProductSpec(a, eps, ell, sign), 40)
                poly_val = sum(complex(c) * q**k for k, c in enumerate(poly.coeffs))
                numeric = spectral.evaluate_product(
                    SpectralParams(float(a), complex(eps), ell, sign, tau), rel_tol=1e-13)
                yield abs(numeric.value - poly_val)

    return SuiteResult("spectral-products", (
        within("product at tau = i = e^(pi/12) Gamma(1/4) / (2 pi^(3/4)), abs err",
               [abs(product.value - closed)], 1e-9),
        exact("s(plus) - s(minus) = i sigma(tau) to its two roundings",
              ((spectral.branch_shift_check(
                  SpectralParams(a, eps, ell, "minus", Tau(tv))).passed, True)
               for a, eps, ell in ((1.0, 0.0, 1), (2.0, 1.0, 0), (0.5, 0.25 + 0.5j, 3))
               for tv in (1j, 2j, 1 + 1j, 0.5 + 0.8j))),
        within("numeric product = integer series to q^40, abs err", series_errors(), 1e-10),
    ))


# -- 9. genus --------------------------------------------------------------------


def suite_genus() -> SuiteResult:
    tau = Tau(0.3 + 1.1j)

    series = {tv: genus.phi_series(Tau(tv), 12).coeffs for tv in (1j, 2j, 0.5 + 1j)}

    def normalization_errors():
        for coeffs in series.values():
            yield abs(coeffs[0]) + abs(coeffs[1] - 1.0)

    def pointwise_errors():
        # the theta series against the q-product of the pointwise route
        for tv, coeffs in series.items():
            points = genus._PointEvaluator(Tau(tv), 1e-12)
            for x in (0.1, 0.05 + 0.03j, -0.08j):
                yield abs(sum(c * x**k for k, c in enumerate(coeffs)) - points.phi(x))

    def quasi_errors():
        for level, k, l in ((2, 1, 0), (2, 1, 1), (3, 1, 2), (3, 2, 1)):
            lvl = genus.LevelData(level, k, l, tau)
            phase = complex(math.cos(2 * math.pi * k / level), math.sin(2 * math.pi * k / level))
            for x in (0.37 + 0.21j, -0.4 + 0.05j):
                yield abs(genus.f_point(lvl, x + 2j * math.pi) - phase * genus.f_point(lvl, x))

    genus_one = genus.genus_cpm(genus.LevelData(2, 1, 0, Tau(2j)), 0)
    return SuiteResult("genus-level-n", (
        within("Phi(0) = 0 and Phi'(0) = 1, |Phi(0)| + |Phi'(0) - 1|",
               normalization_errors(), 1e-10),
        within("Phi x-series = pointwise q-product Phi, abs err", pointwise_errors(), 1e-12),
        within("f(x + 2 pi i) = e^(2 pi i k/N) f(x), abs err", quasi_errors(), 1e-8),
        exact("period-scan sublattice index = N, N in {2, 3}, every twist (k, l) != 0",
              ((report and report.index, level)
               for level in (2, 3)
               for k in range(level)
               for l in range(level)
               if (k, l) != (0, 0)
               for report in [_or_none(genus.lattice_periodicity_scan,
                                       genus.LevelData(level, k, l, tau),
                                       trial_bound=level, tol=1e-8)])),
        exact("genus of a point = 1", [(genus_one.value, 1.0)]),
    ))


ALL_SUITES = (
    suite_localization,
    suite_pfaffian,
    suite_macdonald,
    suite_euler,
    suite_orbifold,
    suite_twisted,
    suite_qidentities,
    suite_spectral,
    suite_genus,
)


def run_all() -> list[SuiteResult]:
    return [fn() for fn in ALL_SUITES]
