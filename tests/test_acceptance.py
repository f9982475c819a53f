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


def _report(result) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name}: {result.details}")


def test_criterion_1_localization_identity():
    """Fixed-point identity on every sphere product from the value grid,
    rel err < 1e-8 with 64 quadrature nodes per factor."""
    result = verify.suite_localization()
    _report(result)
    assert result.passed
    assert result.details["checks"] == 19376
    assert result.details["worst_rel_err"] < 1e-8


def test_criterion_2_pfaffian():
    """Pf^2 = det on 500 random matrices (dims 2-12), congruence
    covariance on 200 pairs, and both evaluation paths agree."""
    result = verify.suite_pfaffian()
    _report(result)
    assert result.passed
    assert result.details["worst_pf_squared_vs_det"] < 1e-9


def test_criterion_3_macdonald_oracle():
    """Product formula equals the symmetric-power enumeration exactly for
    n <= 8 over all Betti lists with total rank <= 4."""
    result = verify.suite_macdonald()
    _report(result)
    assert result.passed
    assert result.details["mismatches"] == 0


def test_criterion_4_euler_specializations():
    """y = -1 reduces to (1-q)^(-chi) exactly to order 20; the chi = 1
    equivariant series lists the partition numbers."""
    result = verify.suite_euler()
    _report(result)
    assert result.passed
    from locq.genfunc import equivariant_euler_series

    series = equivariant_euler_series(1, 20)
    assert list(series.coeffs) == PARTITION_NUMBERS


def test_criterion_5_orbifold_oracle():
    """Orbifold product coefficients equal the partition-sum oracle
    exactly through q^8."""
    result = verify.suite_orbifold()
    _report(result)
    assert result.passed
    assert result.details["mismatches"] == 0


def test_criterion_6_twisted_series():
    """Twisted series: constant 2 at chi = 0 for every order; integer
    coefficients for chi in [-4, 4] at order 20; the spin-partition oracle
    for chi in [0, 4], n <= 20."""
    result = verify.suite_twisted()
    _report(result)
    assert result.passed
    assert result.details["cases"] == 5 * 21
    assert result.details["mismatches"] == 0


def test_criterion_7_q_identities():
    """Terminating summation exact on >= 50 random legal parameter sets
    (n <= 6); Pochhammer shift identity exact including negative indices."""
    result = verify.suite_qidentities()
    _report(result)
    assert result.passed
    assert result.details["saalschutz_exact"] >= 50
    assert result.details["shift_identity_failures"] == 0
    # one frozen instance, value from direct rational products
    frozen = saalschutz_check(Fraction(2), Fraction(3), Fraction(5), 1, Fraction(1, 2))
    assert frozen.equal and frozen.lhs == Fraction(-3, 2)


def test_criterion_8_spectral():
    """Square-lattice product matches its closed form to 1e-9; the branch
    shift is exact; numeric products match series expansion to 1e-10."""
    result = verify.suite_spectral()
    _report(result)
    assert result.passed
    value = evaluate_product(
        SpectralParams(1.0, 0.0, 1, "minus", Tau(1j)), rel_tol=1e-13
    ).value
    assert abs(value - ETA_PRODUCT_AT_I) < 1e-9
    closed = math.exp(math.pi / 12) * math.gamma(0.25) / (2 * math.pi**0.75)
    assert abs(closed - ETA_PRODUCT_AT_I) < 1e-15


def test_criterion_9_genus():
    """Normalization to 1e-10, quasi-periodicity to 1e-8, an index-N
    sublattice for N in {2, 3} and all legal twists, point genus exactly 1."""
    result = verify.suite_genus()
    _report(result)
    assert result.passed
    indices = result.details["sublattice_indices"]
    assert len(indices) == 11
    assert all(
        idx == int(name[1]) for name, idx in indices.items()
    )


def test_criterion_10_verify_all_cli(capsys):
    """The verify-all subcommand runs every suite and exits 0."""
    code = cli.main(["verify-all"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.count("\n") == 1 and captured.out.endswith("\n")
    assert json.loads(captured.out)["all_passed"] is True
    print("PASS verify-all: exit status 0")
