"""Self-contained verification suites behind the `verify-all` command.

Each suite checks one family of identities at its published tolerance and
returns a SuiteResult; run_all() executes every suite.  The suites are
deliberately oracle-based: product formulas are compared against
independent enumerations, both sides of the localization identity are
evaluated by unrelated numerical routes, and exact identities are checked
with rational arithmetic and no tolerance at all.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import genfunc, genus, localization, pfaffian, qhyper, spectral
from .errors import LocqError
from .series import IntegerProductSpec, expand_product
from .spectral import SpectralParams, Tau


@dataclass(slots=True)
class SuiteResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


# -- 1. localization ---------------------------------------------------------

DH_VALUES = (0.5, 1.0, 2.0, 3.0)
DH_CS = (0.01, 0.1, 1.0, 5.0)
DH_TOL = 1e-8
DH_MAX_FACTORS = 4


def localization_checks():
    """Every check of suite_localization, as a localization.PrefixCheck.

    The spaces are the sphere products with radii and weights drawn from
    DH_VALUES, up to four factors, as itertools.combinations_with_replacement
    gives them; each is checked at every c in DH_CS.  Every prefix of such a
    space is another of them, so the walk goes depth first over that tree
    and extends each parent's checks by one factor, named by its index in
    the list of 16, so that each c's per-factor work is done once.
    """
    factors = [localization.SphereFactor(r, mu) for r in DH_VALUES for mu in DH_VALUES]

    def walk(checks, start):
        for i in range(start, len(factors)):
            children = [check.extend(i) for check in checks]
            yield from children
            if len(children[0].indices) < DH_MAX_FACTORS:
                yield from walk(children, i)

    return walk([localization.PrefixCheck.empty(c, factors, quad_points=64) for c in DH_CS], 0)


def suite_localization() -> SuiteResult:
    """Both sides of the fixed-point identity on every sphere product
    with radii and weights drawn from DH_VALUES, up to four factors."""
    worst = 0.0
    checks = 0
    for check in localization_checks():
        worst = max(worst, check.rel_err)
        checks += 1
    return SuiteResult(
        name="dh-localization",
        passed=worst < DH_TOL,
        details={"checks": checks, "worst_rel_err": worst, "tolerance": DH_TOL},
    )


# -- 2. pfaffian --------------------------------------------------------------


def suite_pfaffian() -> SuiteResult:
    import numpy as np

    rng = np.random.default_rng(20240915)
    worst_square = 0.0
    for _ in range(500):
        d = int(rng.choice([2, 4, 6, 8, 10, 12]))
        raw = rng.normal(size=(d, d))
        a = pfaffian.SkewMatrix(raw - raw.T)
        pf = pfaffian.pfaffian(a)
        det = a.det()
        worst_square = max(worst_square, float(abs(pf * pf - det)) / max(abs(det), 1e-30))
    worst_congruence = 0.0
    for _ in range(200):
        d = int(rng.choice([2, 4, 6, 8]))
        raw = rng.normal(size=(d, d))
        a = pfaffian.SkewMatrix(raw - raw.T)
        b = rng.normal(size=(d, d))
        lhs = pfaffian.pfaffian(pfaffian.SkewMatrix(b @ a.mat @ b.T))
        rhs = float(np.linalg.det(b)) * pfaffian.pfaffian(a)
        worst_congruence = max(worst_congruence, float(abs(lhs - rhs)) / max(abs(rhs), 1e-30))
    worst_paths = 0.0
    for _ in range(100):
        d = int(rng.choice([2, 4, 6, 8]))
        raw = rng.normal(size=(d, d))
        a = pfaffian.SkewMatrix(raw - raw.T)
        pc = pfaffian.pfaffian_combinatorial(a)
        pt = pfaffian.pfaffian_tridiagonal(a)
        worst_paths = max(worst_paths, float(abs(pc - pt)) / max(abs(pc), 1e-30))
    passed = worst_square < 1e-9 and worst_congruence < 1e-8 and worst_paths < 1e-10
    return SuiteResult(
        name="pfaffian",
        passed=passed,
        details={
            "worst_pf_squared_vs_det": worst_square,
            "worst_congruence": worst_congruence,
            "worst_path_disagreement": worst_paths,
        },
    )


# -- 3/4/5/6. generating functions -------------------------------------------


def betti_family(max_total: int, max_degree: int):
    """All Betti tuples with the given total rank and top degree, no
    trailing zeros (trailing zeros change nothing), plus the empty space."""
    family = [genfunc.BettiData.of()]
    for length in range(1, max_degree + 2):
        for combo in itertools.product(range(max_total + 1), repeat=length):
            if 0 < sum(combo) <= max_total and (length == 1 or combo[-1] > 0):
                family.append(genfunc.BettiData(combo))
    return family


def suite_macdonald() -> SuiteResult:
    """Product formula vs graded-symmetric-power enumeration, n <= 8."""
    mismatches = 0
    cases = 0
    for b in betti_family(max_total=4, max_degree=5):
        series = genfunc.macdonald_series(b, 8)
        for n in range(9):
            cases += 1
            if series.q_coefficient(n) != genfunc.sym_poincare_oracle(b, n):
                mismatches += 1
    return SuiteResult(
        name="macdonald-oracle",
        passed=mismatches == 0,
        details={"cases": cases, "mismatches": mismatches},
    )


def suite_euler() -> SuiteResult:
    """y = -1 specialization and the equivariant partition-number check."""
    failures = []
    for b in betti_family(max_total=4, max_degree=5):
        if not genfunc.euler_specialization(b, 20).matches:
            failures.append(tuple(b.betti))
    # independent partition counts by bounded-part dynamic programming
    nmax = 20
    dp = [1] + [0] * nmax
    for part in range(1, nmax + 1):
        for n in range(part, nmax + 1):
            dp[n] += dp[n - part]
    series = genfunc.equivariant_euler_series(1, nmax)
    partition_ok = list(series.coeffs) == dp
    return SuiteResult(
        name="euler-specializations",
        passed=not failures and partition_ok,
        details={
            "betti_failures": failures,
            "partition_numbers_match": partition_ok,
            "p_20": dp[20],
        },
    )


def suite_orbifold() -> SuiteResult:
    """Orbifold product (q-index from 1, degree index from 0) vs the
    partition-sum oracle, coefficient by coefficient for n <= 8."""
    family = betti_family(max_total=3, max_degree=3)
    family.append(genfunc.BettiData.of(1, 2, 1))
    mismatches = 0
    cases = 0
    for b in family:
        series = genfunc.orbifold_series(b, 8)
        for n in range(9):
            cases += 1
            if series.q_coefficient(n) != genfunc.orbifold_oracle(b, n):
                mismatches += 1
    return SuiteResult(
        name="orbifold-oracle",
        passed=mismatches == 0,
        details={"cases": cases, "mismatches": mismatches},
    )


def suite_twisted() -> SuiteResult:
    """Constant term 2 at chi = 0, integer coefficients for chi in [-4, 4],
    and the spin-partition oracle coefficient by coefficient for chi in
    [0, 4], n <= 20."""
    constant_ok = True
    for order in (0, 1, 5, 12, 20):
        series = genfunc.twisted_sym_series(0, order)
        constant_ok = constant_ok and list(series.coeffs) == [2] + [0] * order
    integer_ok = True
    mismatches = 0
    cases = 0
    for chi in range(-4, 5):
        try:
            series = genfunc.twisted_sym_series(chi, 20)
        except LocqError:
            integer_ok = False
            continue
        if chi < 0:
            continue  # the oracle counts tuples: chi >= 0 only
        for n, got in enumerate(series.coeffs):
            cases += 1
            if got != genfunc.twisted_sym_oracle(chi, n):
                mismatches += 1
    return SuiteResult(
        name="twisted-sym",
        passed=constant_ok and integer_ok and mismatches == 0,
        details={"constant_two": constant_ok, "integer_coefficients": integer_ok,
                 "cases": cases, "mismatches": mismatches},
    )


# -- 7. q-identities -----------------------------------------------------------


def _random_fraction(rng: random.Random) -> Fraction:
    num = rng.choice([v for v in range(-9, 10) if v != 0])
    den = rng.randint(1, 9)
    return Fraction(num, den)


def suite_qidentities() -> SuiteResult:
    rng = random.Random(777)
    saal_pass = 0
    saal_total = 0
    attempts = 0
    while saal_pass < 60 and attempts < 2000:
        attempts += 1
        n = rng.randint(0, 6)
        a, b, c = (_random_fraction(rng) for _ in range(3))
        q = Fraction(rng.randint(1, 8), rng.randint(9, 12))
        try:
            result = qhyper.saalschutz_check(a, b, c, n, q)
        except LocqError:
            continue
        saal_total += 1
        if result.equal:
            saal_pass += 1
    shift_fail = 0
    shift_total = 0
    while shift_total < 200:
        a = _random_fraction(rng)
        q = Fraction(rng.randint(1, 8), rng.randint(9, 12))
        m = rng.randint(-5, 5)
        n = rng.randint(-5, 5)
        try:
            lhs = qhyper.pochhammer(a, q, m + n)
            rhs = qhyper.pochhammer(a, q, m) * qhyper.pochhammer(a * q**m, q, n)
        except LocqError:
            continue
        shift_total += 1
        if lhs != rhs:
            shift_fail += 1
    passed = saal_pass >= 50 and saal_pass == saal_total and shift_fail == 0
    return SuiteResult(
        name="q-identities",
        passed=passed,
        details={
            "saalschutz_exact": saal_pass,
            "saalschutz_tried": saal_total,
            "shift_identity_checks": shift_total,
            "shift_identity_failures": shift_fail,
        },
    )


# -- 8. spectral ----------------------------------------------------------------


def suite_spectral() -> SuiteResult:
    tau_i = Tau(1j)
    product = spectral.evaluate_product(
        SpectralParams(1.0, 0.0, 1, "minus", tau_i), rel_tol=1e-13
    )
    closed = math.exp(math.pi / 12.0) * math.gamma(0.25) / (2.0 * math.pi**0.75)
    eta_err = abs(product.value - closed)
    shift_ok = all(
        spectral.branch_shift_check(
            SpectralParams(a, eps, ell, "minus", Tau(tv))
        ).passed
        for a, eps, ell in ((1.0, 0.0, 1), (2.0, 1.0, 0), (0.5, 0.25 + 0.5j, 3))
        for tv in (1j, 2j, 1 + 1j, 0.5 + 0.8j)
    )
    worst_series = 0.0
    for tv in (1j, 0.3 + 0.9j):
        tau = Tau(tv)
        q = spectral.nome(tau)
        for spec_params in (
            IntegerProductSpec(1, 0, 1, "minus"),
            IntegerProductSpec(1, 0, 1, "plus"),
            IntegerProductSpec(2, 1, 0, "minus"),
            IntegerProductSpec(3, 2, 1, "plus"),
        ):
            order = 40
            poly = expand_product(spec_params, order)
            poly_val = sum(
                complex(c) * q**k for k, c in enumerate(poly.coeffs)
            )
            numeric = spectral.evaluate_product(
                SpectralParams(
                    float(spec_params.a),
                    complex(spec_params.epsilon),
                    spec_params.ell,
                    spec_params.sign,
                    tau,
                ),
                rel_tol=1e-13,
            )
            worst_series = max(worst_series, abs(numeric.value - poly_val))
    passed = eta_err < 1e-9 and shift_ok and worst_series < 1e-10
    return SuiteResult(
        name="spectral-products",
        passed=passed,
        details={
            "eta_closed_form_err": eta_err,
            "branch_shift_exact": shift_ok,
            "worst_series_vs_numeric": worst_series,
        },
    )


# -- 9. genus --------------------------------------------------------------------


def suite_genus() -> SuiteResult:
    normalization_ok = True
    for tv in (1j, 2j, 0.5 + 1j):
        phi = genus.phi_series(Tau(tv), 4)
        if abs(phi.coeffs[0]) > 1e-10 or abs(phi.coeffs[1] - 1.0) > 1e-10:
            normalization_ok = False
    quasi_worst = 0.0
    tau = Tau(0.3 + 1.1j)
    for level, k, l in ((2, 1, 0), (2, 1, 1), (3, 1, 2), (3, 2, 1)):
        lvl = genus.LevelData(level, k, l, tau)
        for x in (0.37 + 0.21j, -0.4 + 0.05j):
            lhs = genus.f_point(lvl, x + 2j * math.pi)
            rhs = (
                complex(math.cos(2 * math.pi * k / level),
                        math.sin(2 * math.pi * k / level))
                * genus.f_point(lvl, x)
            )
            quasi_worst = max(quasi_worst, abs(lhs - rhs))
    scan_ok = True
    indices = {}
    for level in (2, 3):
        for k in range(level):
            for l in range(level):
                if (k, l) == (0, 0):
                    continue
                try:
                    report = genus.lattice_periodicity_scan(
                        genus.LevelData(level, k, l, tau), trial_bound=level, tol=1e-8
                    )
                    indices[f"N{level}k{k}l{l}"] = report.index
                except LocqError:
                    scan_ok = False
                    indices[f"N{level}k{k}l{l}"] = None
    genus_one = genus.genus_cpm(genus.LevelData(2, 1, 0, Tau(2j)), 0)
    exact_one = genus_one.value == 1.0
    passed = normalization_ok and quasi_worst < 1e-8 and scan_ok and exact_one
    return SuiteResult(
        name="genus-level-n",
        passed=passed,
        details={
            "normalization_ok": normalization_ok,
            "quasi_periodicity_worst": quasi_worst,
            "sublattice_indices": indices,
            "projective_point_exactly_one": exact_one,
        },
    )


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
