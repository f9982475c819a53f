"""Level-N genus pipeline: series construction, ellipticity scan, genus values."""

import cmath
import math
from fractions import Fraction

import pytest

from locq.errors import ScanInconclusiveError
from locq.genus import (
    LevelData,
    XSeries,
    chern_character_product,
    f_point,
    f_series,
    genus_cpm,
    lattice_periodicity_scan,
    phi_point,
    phi_product_part,
    phi_series,
)
from locq.spectral import Tau, nome

GENERIC_TAU = Tau(0.3 + 1.1j)


class TestLevelData:
    def test_validation(self):
        with pytest.raises(ValueError):
            LevelData(1, 0, 0, Tau(1j))
        with pytest.raises(ValueError):
            LevelData(2, 0, 0, Tau(1j))
        with pytest.raises(ValueError):
            LevelData(2, 2, 0, Tau(1j))

    def test_beta(self):
        lvl = LevelData(2, 1, 0, Tau(1j))
        assert lvl.beta == pytest.approx(2j * math.pi * 1j / 2)


class TestPhi:
    @pytest.mark.parametrize("tau", [1j, 2j, 0.5 + 1j])
    def test_normalization_exact(self, tau):
        phi = phi_series(Tau(tau), 5)
        assert phi.coeffs[0] == 0
        assert phi.coeffs[1] == 1

    def test_q_to_zero_limit(self):
        # at large Im tau the series approaches 1 - e^-x
        phi = phi_series(Tau(50j), 6)
        expect = [0.0, 1.0, -0.5, 1 / 6, -1 / 24, 1 / 120, -1 / 720]
        for k, e in enumerate(expect):
            assert phi.coeffs[k] == pytest.approx(e, abs=1e-14)

    def test_product_part_is_even(self):
        for tau in (1j, 0.5 + 1j):
            part = phi_product_part(Tau(tau), 9)
            for k in range(1, 10, 2):
                assert abs(part.coeffs[k]) <= max(part.coeff_error, 1e-14)

    def test_series_matches_pointwise(self):
        tau = Tau(0.2 + 1.3j)
        phi = phi_series(tau, 14)
        for x in (0.1, 0.05 + 0.03j, -0.08j):
            assert abs(phi.eval(x) - phi_point(tau, x)) < 1e-10


class TestF:
    def test_first_two_coefficients_exact(self):
        for (n, k, l) in ((2, 1, 0), (3, 2, 1), (2, 0, 1)):
            f = f_series(LevelData(n, k, l, GENERIC_TAU), 4)
            assert f.coeffs[0] == 0
            assert f.coeffs[1] == 1

    def test_series_matches_pointwise(self):
        lvl = LevelData(2, 1, 0, Tau(2j))
        f = f_series(lvl, 12)
        for x in (0.11, 0.07 - 0.04j):
            assert abs(f.eval(x) - f_point(lvl, x)) < 1e-10

    def test_quasi_periodicity(self):
        for (n, k, l) in ((2, 1, 0), (3, 1, 2)):
            lvl = LevelData(n, k, l, GENERIC_TAU)
            x = 0.37 + 0.21j
            multiplier = cmath.exp(2j * math.pi * k / n)
            assert abs(
                f_point(lvl, x + 2j * math.pi) - multiplier * f_point(lvl, x)
            ) < 1e-8

    def test_q_to_zero_limit_is_hyperbolic_sine(self):
        # level 2, (k,l) = (1,0): f degenerates to 2 sinh(x/2)
        f = f_series(LevelData(2, 1, 0, Tau(40j)), 7)
        expect = [0, 1, 0, Fraction(1, 24), 0, Fraction(1, 1920), 0, Fraction(1, 322560)]
        for k, e in enumerate(expect):
            assert f.coeffs[k] == pytest.approx(complex(float(e)), abs=1e-12)


class TestPeriodScan:
    def test_index_two(self):
        report = lattice_periodicity_scan(
            LevelData(2, 1, 0, GENERIC_TAU), trial_bound=2
        )
        assert report.index == 2
        assert (0, 0) in report.periods

    @pytest.mark.parametrize("n,k,l", [(2, 0, 1), (2, 1, 1), (3, 1, 0), (3, 2, 2)])
    def test_index_matches_level(self, n, k, l):
        report = lattice_periodicity_scan(
            LevelData(n, k, l, GENERIC_TAU), trial_bound=n
        )
        assert report.index == n
        assert report.max_deviation < 1e-8

    def test_inconclusive_at_tiny_tolerance(self):
        with pytest.raises(ScanInconclusiveError):
            lattice_periodicity_scan(
                LevelData(2, 1, 0, GENERIC_TAU), trial_bound=2, tol=1e-30
            )


class TestChernCharacter:
    def test_zero_roots_match_eta_square(self):
        tau = Tau(1j)
        value = chern_character_product([0.0, 0.0], tau)
        q = math.exp(-2 * math.pi)
        direct = 1.0
        for n in range(1, 50):
            direct *= (1 - q**n) ** 4
        assert abs(value - direct) < 1e-12

    def test_root_sign_symmetry(self):
        tau = Tau(0.4 + 0.9j)
        assert chern_character_product([0.3 + 0.1j], tau) == pytest.approx(
            chern_character_product([-0.3 - 0.1j], tau), rel=1e-12
        )

    def test_first_order_in_q(self):
        tau = Tau(3j)  # |q| ~ 6.5e-9, so O(q^2) is far below 1e-14
        q = nome(tau)
        x = 0.2 + 0.1j
        value = chern_character_product([x], tau)
        first_order = 1 - q * (cmath.exp(x) + cmath.exp(-x))
        assert abs(value - first_order) < 1e-14


class TestGenus:
    def test_point_is_exactly_one(self):
        for lvl in (LevelData(2, 1, 0, Tau(2j)), LevelData(3, 1, 2, GENERIC_TAU)):
            assert genus_cpm(lvl, 0).value == 1.0

    def test_q_to_zero_limit_is_roof_genus(self):
        # x / (2 sinh(x/2)) characteristic series: values 1, 0, -1/8, 0 on
        # projective spaces of complex dimension 0..3
        lvl = LevelData(2, 1, 0, Tau(40j))
        for m, expect in ((0, 1.0), (1, 0.0), (2, -0.125), (3, 0.0)):
            assert genus_cpm(lvl, m).value == pytest.approx(expect, abs=1e-10)

    def test_q_tol_self_consistency(self):
        lvl = LevelData(3, 1, 2, Tau(0.2 + 1.3j))
        coarse = genus_cpm(lvl, 3, q_tol=1e-9)
        fine = genus_cpm(lvl, 3, q_tol=5e-10)
        assert abs(coarse.value - fine.value) <= coarse.error_bound

    def test_independent_series_division_oracle(self):
        # rebuild (x/f)^(m+1) coefficient independently with XSeries algebra
        lvl = LevelData(2, 1, 1, Tau(0.1 + 1.2j))
        m = 2
        f = f_series(lvl, m + 1)
        unit = XSeries(m, f.coeffs[1:], f.coeff_error)
        direct = unit.invert()
        cubed = direct * direct * direct
        assert genus_cpm(lvl, m).value == pytest.approx(cubed.coeffs[m], rel=1e-12)


def test_composite_level_with_common_divisor_has_reduced_index():
    # the period sublattice has index N / gcd(k, l, N); for N = 4 and
    # (k, l) = (2, 2) the true index is 2, and the scan accepts it
    report = lattice_periodicity_scan(LevelData(4, 2, 2, GENERIC_TAU), trial_bound=4)
    assert report.index == 2
    assert report.level == 4


@pytest.mark.parametrize("n,k,l", [(4, 2, 0), (6, 3, 0)])
def test_non_primitive_twist_index(n, k, l):
    report = lattice_periodicity_scan(LevelData(n, k, l, GENERIC_TAU), trial_bound=n)
    assert report.index == 2
    assert report.max_deviation < 1e-8
    # the twist point is pi i tau, as at level 2 with (k, l) = (1, 0):
    # the periods are (m, m') with m' even
    assert all(mp % 2 == 0 for _, mp in report.periods)
    assert (1, 0) in report.periods


def test_non_primitive_twist_still_inconclusive_at_tiny_tolerance():
    with pytest.raises(ScanInconclusiveError, match="expected an index-2 sublattice"):
        lattice_periodicity_scan(LevelData(4, 2, 0, GENERIC_TAU), trial_bound=4, tol=1e-30)
