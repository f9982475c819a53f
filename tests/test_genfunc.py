"""Generating functions vs enumeration oracles, all equalities exact."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from locq.genfunc import (
    BettiData,
    GradedSymBasis,
    equivariant_euler_series,
    euler_specialization,
    macdonald_series,
    orbifold_oracle,
    orbifold_series,
    partition_multiplicities,
    sym_poincare_oracle,
    twisted_sym_series,
)
from locq.series import FormalSeries, IntegerProductSpec, expand_product

POINT = BettiData.of(1)
SPHERE = BettiData.of(1, 0, 1)
TORUS = BettiData.of(1, 2, 1)


def ring_binomials(exponents, sign: int, order: int) -> FormalSeries:
    """prod_e (1 + sign q^e) by FormalSeries multiplication, factor by factor."""
    out = FormalSeries.one(order)
    for e in exponents:
        out = out * (FormalSeries.one(order) + FormalSeries.monomial(sign, e, order))
    return out


class TestBetti:
    def test_chi(self):
        assert POINT.chi == 1
        assert SPHERE.chi == 2
        assert TORUS.chi == 0

    def test_basis_split(self):
        basis = GradedSymBasis.from_betti(TORUS)
        assert basis.even_degrees == (0, 2)
        assert basis.odd_degrees == (1, 1)

    def test_from_string(self):
        assert BettiData.from_string("1,0,1") == SPHERE


class TestSymOracle:
    def test_empty_power(self):
        assert sym_poincare_oracle(SPHERE, 0) == {0: 1}

    def test_sphere_square(self):
        assert sym_poincare_oracle(SPHERE, 2) == {0: 1, 2: 1, 4: 1}

    def test_single_odd_generator_squares_to_zero(self):
        assert sym_poincare_oracle(BettiData.of(0, 1), 2) == {}

    def test_first_power_is_poincare_polynomial(self):
        assert sym_poincare_oracle(TORUS, 1) == {0: 1, 1: 2, 2: 1}


class TestMacdonald:
    def test_point(self):
        series = macdonald_series(POINT, 5)
        for n in range(6):
            assert series.q_coefficient(n) == {0: 1}

    def test_sphere_formula(self):
        # 1 / ((1 - q)(1 - q y^2)): the q^n coefficient is 1 + y^2 + ... + y^(2n)
        series = macdonald_series(SPHERE, 6)
        for n in range(7):
            assert series.q_coefficient(n) == {2 * k: 1 for k in range(n + 1)}

    def test_torus_substitution(self):
        # (1 + q y)^2 / ((1 - q)(1 - q y^2)), built in the ring of q-series over Q
        order = 5
        series = macdonald_series(TORUS, order)
        q = FormalSeries.monomial(1, 1, order)
        one = FormalSeries.one(order)
        for y in (-2, -1, 2, 3):
            expect = (one + y * q).int_pow(2) * ((one - q) * (one - y**2 * q)).invert()
            assert series.specialize_y(y) == expect, y

    @pytest.mark.parametrize("betti", [(1,), (1, 0, 1), (1, 2, 1), (2, 1), (0, 3), (1, 1, 1, 1)])
    def test_matches_oracle(self, betti):
        b = BettiData.of(*betti)
        series = macdonald_series(b, 8)
        for n in range(9):
            assert series.q_coefficient(n) == sym_poincare_oracle(b, n), (betti, n)

    def test_y_bound_marker(self):
        series = macdonald_series(SPHERE, 6, y_bound=4)
        assert series.y_truncated
        assert max(abs(e) for d in series.coeffs for e in d) <= 4


class TestEulerSpecialization:
    def test_sphere(self):
        result = euler_specialization(SPHERE, 8)
        assert result.matches
        assert result.series.coefficients[:4] == (
            Fraction(1), Fraction(2), Fraction(3), Fraction(4),
        )

    def test_torus_constant_one(self):
        result = euler_specialization(TORUS, 8)
        assert result.matches
        assert result.series == FormalSeries.one(8)

    def test_point(self):
        result = euler_specialization(POINT, 8)
        assert result.matches
        assert all(c == 1 for c in result.series.coefficients)


class TestEquivariant:
    @pytest.mark.parametrize("chi", range(-4, 5))
    def test_matches_ring_power(self, chi):
        euler = ring_binomials(range(1, 31), -1, 30)
        assert equivariant_euler_series(chi, 30) == euler.int_pow(-chi)

    def test_partition_series(self):
        series = equivariant_euler_series(1, 6)
        assert [int(c) for c in series.coefficients] == [1, 1, 2, 3, 5, 7, 11]

    def test_chi_zero(self):
        assert equivariant_euler_series(0, 10) == FormalSeries.one(10)

    def test_chi_minus_one_pentagonal(self):
        series = equivariant_euler_series(-1, 12)
        assert series == expand_product(IntegerProductSpec(1, 0, 1, "minus"), 12)


class TestTwisted:
    def test_chi_zero_is_constant_two(self):
        for order in (0, 3, 17):
            series = twisted_sym_series(0, order)
            assert series.coefficients[0] == 2
            assert all(c == 0 for c in series.coefficients[1:])

    def test_chi_two_expansion(self):
        series = twisted_sym_series(2, 2)
        assert [int(c) for c in series.coefficients] == [2, 4, 6]

    def test_constant_term_always_two(self):
        for chi in (-3, -1, 1, 4):
            assert twisted_sym_series(chi, 5).coefficients[0] == 2

    def test_integer_coefficients(self):
        for chi in range(-4, 5):
            series = twisted_sym_series(chi, 20)
            assert all(c.denominator == 1 for c in series.coefficients)

    @pytest.mark.parametrize("chi", range(-4, 5))
    def test_matches_ring_formula(self, chi):
        # A + B (1 + (C+ - C-)/2) over Q, each binomial multiplied in the ring
        order = 30
        odd, even = range(1, order + 1, 2), range(2, order + 1, 2)
        a = ring_binomials(odd, -1, order).int_pow(-chi)
        b = ring_binomials(odd, 1, order).int_pow(chi)
        c_plus = ring_binomials(even, 1, order).int_pow(chi)
        c_minus = ring_binomials(even, -1, order).int_pow(chi)
        expect = a + b * (1 + Fraction(1, 2) * (c_plus - c_minus))
        assert twisted_sym_series(chi, order) == expect


class TestOrbifold:
    def test_point_is_partition_series(self):
        series = orbifold_series(POINT, 10)
        assert series.specialize_y(1) == equivariant_euler_series(1, 10)

    def test_sphere_coefficient(self):
        assert orbifold_series(SPHERE, 3).q_coefficient(2) == {0: 2, 2: 2, 4: 1}

    @pytest.mark.parametrize("betti", [(1,), (1, 0, 1), (1, 2, 1), (0, 2), (2, 0, 1)])
    def test_matches_oracle(self, betti):
        b = BettiData.of(*betti)
        series = orbifold_series(b, 6)
        for n in range(7):
            assert series.q_coefficient(n) == orbifold_oracle(b, n), (betti, n)

    def test_y_minus_one_equals_equivariant(self):
        for b in (POINT, SPHERE, TORUS, BettiData.of(2, 1)):
            assert orbifold_series(b, 8).specialize_y(-1) == equivariant_euler_series(
                b.chi, 8
            )


class TestOrbifoldOracle:
    def test_zeroth(self):
        assert orbifold_oracle(SPHERE, 0) == {0: 1}

    def test_first_is_poincare(self):
        assert orbifold_oracle(TORUS, 1) == {0: 1, 1: 2, 2: 1}

    def test_partition_enumeration(self):
        parts = sorted(tuple(sorted(m.items())) for m in partition_multiplicities(4))
        assert len(parts) == 5  # p(4) = 5


# -- the in-place binomial passes against the ring of q-series over Q -----------


def ring_product(b: BettiData, q_exponents, order: int, y: int) -> FormalSeries:
    """prod_n prod_j (1 + y^j q^n)^(b_j) (odd j) (1 - y^j q^n)^(-b_j) (even j)."""
    out = FormalSeries.one(order)
    for n in q_exponents:
        for j, count in enumerate(b.betti):
            sign = 1 if j % 2 else -1
            binomial = FormalSeries.one(order) + FormalSeries.monomial(sign * y**j, n, order)
            out = out * binomial.int_pow(sign * count)
    return out


BETTI = st.lists(st.integers(0, 3), max_size=4).map(lambda b: BettiData(tuple(b)))
Y_VALUES = st.sampled_from([-2, -1, 2, 3])


@settings(max_examples=60, deadline=None)
@given(BETTI, st.integers(0, 10), Y_VALUES)
def test_macdonald_matches_ring_product(b, order, y):
    assert macdonald_series(b, order).specialize_y(y) == ring_product(b, [1], order, y)


@settings(max_examples=60, deadline=None)
@given(BETTI, st.integers(0, 10), Y_VALUES)
def test_orbifold_matches_ring_product(b, order, y):
    expect = ring_product(b, range(1, order + 1), order, y)
    assert orbifold_series(b, order).specialize_y(y) == expect
