"""Acceptance suite: every published criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in the
verify-all CLI output) and asserts the criterion itself.  Frozen expected
values were computed with independent oracles: partition counts by
bounded-part dynamic programming, the infinite-product value at the square
lattice point from its gamma-function closed form, and the terminating
summation instances by direct rational Pochhammer products.
"""

import json
import math
from fractions import Fraction

from locq import cli, verify
from locq.qhyper import saalschutz_check
from locq.spectral import SpectralParams, Tau, evaluate_product

# p(0)..p(20), frozen from the independent bounded-part counting recursion
PARTITION_NUMBERS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135,
                     176, 231, 297, 385, 490, 627]

# e^(pi/12) * Gamma(1/4) / (2 pi^(3/4))
ETA_PRODUCT_AT_I = 0.9981290699259586


# Every row of verify-all: (identity, checks, tolerance), None for exact rows
TABLE = {
    "dh-localization": [
        ("fixed-point sum = Liouville integral, rel err", 19376, 1e-8),
    ],
    "pfaffian": [
        ("Pf(A)^2 = det(A), rel err", 500, 1e-9),
        ("Pf(B A B^T) = det(B) Pf(A), rel err", 200, 1e-8),
        ("combinatorial Pf = tridiagonal Pf, rel err", 100, 1e-10),
    ],
    "macdonald-oracle": [
        ("Macdonald product q^n = symmetric-power enumeration, n <= 8", 1890, None),
    ],
    "euler-specializations": [
        ("Macdonald series at y = -1 = (1 - q)^(-chi), to q^20", 210, None),
        ("equivariant series at chi = 1 = partition numbers p(n), n <= 20", 21, None),
    ],
    "orbifold-oracle": [
        ("orbifold product q^n = partition-sum enumeration, n <= 8", 324, None),
    ],
    "twisted-sym": [
        ("twisted series at chi = 0 = 2, orders 0, 1, 5, 12, 20", 5, None),
        ("twisted series has integer coefficients, chi in [-4, 4]", 9, None),
        ("twisted series q^n = spin-partition count, chi in [0, 4], n <= 20", 105, None),
    ],
    "q-identities": [
        ("terminating q-Saalschutz sum = closed form, n <= 6", 60, None),
        ("(a;q)_(m+n) = (a;q)_m (a q^m;q)_n, |m|, |n| <= 5", 200, None),
    ],
    "spectral-products": [
        ("product at tau = i = e^(pi/12) Gamma(1/4) / (2 pi^(3/4)), abs err", 1, 1e-9),
        ("s(plus) - s(minus) = i sigma(tau) to its two roundings", 12, None),
        ("numeric product = integer series to q^40, abs err", 8, 1e-10),
    ],
    "genus-level-n": [
        ("Phi(0) = 0 and Phi'(0) = 1, |Phi(0)| + |Phi'(0) - 1|", 3, 1e-10),
        ("Phi x-series = pointwise q-product Phi, abs err", 9, 1e-12),
        ("f(x + 2 pi i) = e^(2 pi i k/N) f(x), abs err", 8, 1e-8),
        ("period-scan sublattice index = N, N in {2, 3}, every twist (k, l) != 0", 11, None),
        ("genus of a point = 1", 1, None),
    ],
}


def _rows(result) -> list:
    """The suite's rows, after checking them against TABLE and that all pass."""
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name}: {cli.suite_json(result)['details']}")
    assert [(r.identity, r.checks, r.tolerance) for r in result.rows] == TABLE[result.name]
    assert result.passed and all(r.passed for r in result.rows)
    return list(result.rows)


def test_verify_all_rows_are_pinned():
    """Every suite's rows, in order: no case count or tolerance moves
    without an edit to TABLE."""
    results = verify.run_all()
    assert {r.name: [(row.identity, row.checks, row.tolerance) for row in r.rows]
            for r in results} == TABLE
    assert [r.name for r in results] == list(TABLE)


def test_criterion_1_localization_identity():
    """Fixed-point identity on every sphere product from the value grid,
    rel err < 1e-8, each factor's quadrature at its sized node count."""
    (row,) = _rows(verify.suite_localization())
    assert row.checks == 19376 and row.worst < 1e-8


def test_criterion_2_pfaffian():
    """Pf^2 = det on 500 random matrices (dims 2-12), congruence
    covariance on 200 pairs, and both evaluation paths agree."""
    square, congruence, paths = _rows(verify.suite_pfaffian())
    assert square.worst < 1e-9 and congruence.worst < 1e-8 and paths.worst < 1e-10


def test_criterion_3_macdonald_oracle():
    """Product formula equals the symmetric-power enumeration exactly for
    n <= 8 over all Betti lists with total rank <= 4."""
    (row,) = _rows(verify.suite_macdonald())
    assert row.worst == 0


def test_criterion_4_euler_specializations():
    """y = -1 reduces to (1-q)^(-chi) exactly to order 20; the chi = 1
    equivariant series lists the partition numbers."""
    assert [row.worst for row in _rows(verify.suite_euler())] == [0, 0]
    from locq.genfunc import equivariant_euler_series

    series = equivariant_euler_series(1, 20)
    assert list(series.coeffs) == PARTITION_NUMBERS


def test_criterion_5_orbifold_oracle():
    """Orbifold product coefficients equal the partition-sum oracle
    exactly through q^8."""
    (row,) = _rows(verify.suite_orbifold())
    assert row.worst == 0


def test_criterion_6_twisted_series():
    """Twisted series: constant 2 at chi = 0 for every order; integer
    coefficients for chi in [-4, 4] at order 20; the spin-partition oracle
    for chi in [0, 4], n <= 20."""
    constant, integer, oracle = _rows(verify.suite_twisted())
    assert oracle.checks == 5 * 21
    assert constant.worst == integer.worst == oracle.worst == 0


def test_criterion_7_q_identities():
    """Terminating summation exact on >= 50 random legal parameter sets
    (n <= 6); Pochhammer shift identity exact including negative indices."""
    saalschutz, shift = _rows(verify.suite_qidentities())
    assert saalschutz.checks >= 50 and saalschutz.worst == 0
    assert shift.worst == 0
    # one frozen instance, value from direct rational products
    frozen = saalschutz_check(Fraction(2), Fraction(3), Fraction(5), 1, Fraction(1, 2))
    assert frozen.equal and frozen.lhs == Fraction(-3, 2)


def test_criterion_8_spectral():
    """Square-lattice product matches its closed form to 1e-9; the branch
    shift is exact; numeric products match series expansion to 1e-10."""
    closed_form, shift, series = _rows(verify.suite_spectral())
    assert closed_form.worst < 1e-9 and shift.worst == 0 and series.worst < 1e-10
    value = evaluate_product(
        SpectralParams(1.0, 0.0, 1, "minus", Tau(1j)), rel_tol=1e-13
    ).value
    assert abs(value - ETA_PRODUCT_AT_I) < 1e-9
    closed = math.exp(math.pi / 12) * math.gamma(0.25) / (2 * math.pi**0.75)
    assert abs(closed - ETA_PRODUCT_AT_I) < 1e-15


def test_criterion_9_genus():
    """Normalization to 1e-10, quasi-periodicity to 1e-8, an index-N
    sublattice for N in {2, 3} and all legal twists, point genus exactly 1."""
    normalization, pointwise, quasi, scan, point = _rows(verify.suite_genus())
    assert normalization.worst < 1e-10 and pointwise.worst < 1e-12 and quasi.worst < 1e-8
    # the 11 twists (k, l) != (0, 0) of N = 2 and 3, each of index N
    assert (scan.checks, scan.worst) == (11, 0)
    assert point.worst == 0


def test_criterion_10_verify_all_cli(capsys):
    """The verify-all subcommand runs every suite and exits 0."""
    code = cli.main(["verify-all"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out.count("\n") == 1 and captured.out.endswith("\n")
    payload = json.loads(captured.out)
    assert payload["all_passed"] is True
    assert {suite["name"]: [(row["identity"], row["checks"], row["tolerance"])
                            for row in suite["details"]["rows"]]
            for suite in payload["suites"]} == TABLE
    for suite in payload["suites"]:
        details = suite["details"]
        assert set(details) == {"checks", "rows"}
        assert details["checks"] == sum(row["checks"] for row in details["rows"])
        assert suite["passed"] is all(row["passed"] for row in details["rows"])
    print("PASS verify-all: exit status 0")
