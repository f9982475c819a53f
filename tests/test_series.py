"""Exact series arithmetic: examples, ring axioms, product expansion."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from locq.errors import DegenerateFactorError, ZeroConstantTermError
from locq.series import (
    BivariateSeries,
    FormalSeries,
    IntegerProductSpec,
    binomial_product,
    expand_product,
)


def series(*coeffs, order=None):
    return FormalSeries.from_coefficients(coeffs, order=order)


def rand_series(rng, order, unit=False):
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
    if unit and coeffs[0] == 0:
        coeffs[0] = Fraction(1)
    return FormalSeries.from_coefficients(coeffs, order=order)


class TestAdd:
    def test_cancellation(self):
        assert series(1, 1) + series(1, -1) == series(2, 0)

    def test_identity(self):
        s = series(3, Fraction(1, 2), -4)
        assert s + FormalSeries.zero(2) == s

    def test_quadratic_cancellation(self):
        assert series(1, 2, 3) + series(1, -2, -3) == series(2, 0, 0)


class TestMul:
    def test_geometric_inverse(self):
        one_minus_q = series(1, -1, 0, 0, 0)
        geometric = series(1, 1, 1, 1, 1)
        assert one_minus_q * geometric == FormalSeries.one(4)

    def test_difference_of_squares(self):
        assert series(1, 1, 0) * series(1, -1, 0) == series(1, 0, -1)

    def test_hand_expansion(self):
        lhs = series(1, -1, 0, 0, 0) * series(1, 0, 0, -1, 0)
        assert lhs == series(1, -1, 0, -1, 1)


class TestInvert:
    def test_geometric(self):
        assert series(1, -1, 0, 0).invert() == series(1, 1, 1, 1)

    def test_one(self):
        assert FormalSeries.one(6).invert() == FormalSeries.one(6)

    def test_fibonacci(self):
        inv = series(1, -1, -1, 0, 0).invert()
        assert inv == series(1, 1, 2, 3, 5)

    def test_zero_constant_term(self):
        with pytest.raises(ZeroConstantTermError):
            series(0, 1, 1).invert()

    def test_random_inverse_property(self):
        rng = random.Random(11)
        for _ in range(25):
            s = rand_series(rng, rng.randint(0, 12), unit=True)
            assert s * s.invert() == FormalSeries.one(s.order)


class TestIntPow:
    def test_binomial(self):
        assert series(1, -1, 0, 0).int_pow(-2) == series(1, 2, 3, 4)

    def test_zeroth_power(self):
        rng = random.Random(5)
        s = rand_series(rng, 7)
        assert s.int_pow(0) == FormalSeries.one(7)

    def test_negative_one(self):
        assert series(1, -1, 0, 0).int_pow(-1) == series(1, 1, 1, 1)

    def test_pow_consistency(self):
        rng = random.Random(6)
        s = rand_series(rng, 9, unit=True)
        assert s.int_pow(3) == s * s * s
        assert s.int_pow(-2) == (s * s).invert()


class TestRingAxioms:
    def test_axioms_random(self):
        rng = random.Random(7)
        for _ in range(15):
            order = rng.randint(0, 10)
            a, b, c = (rand_series(rng, order) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_mixed_orders_truncate_to_min(self):
        a = series(1, 2, 3, 4)
        b = series(1, 1)
        assert (a + b).order == 1
        assert (a * b).order == 1
        assert a * b == series(1, 3)


class TestExpandProduct:
    def test_euler_pentagonal_start(self):
        s = expand_product(IntegerProductSpec(1, 0, 1, "minus"), 5)
        assert s == series(1, -1, -1, 0, 0, 1)

    def test_odd_exponent_product(self):
        s = expand_product(IntegerProductSpec(2, 1, 0, "minus"), 4)
        assert s == series(1, -1, 0, -1, 1)

    def test_plus_sign(self):
        s = expand_product(IntegerProductSpec(1, 0, 1, "plus"), 3)
        assert s == series(1, 1, 1, 2)

    def test_degenerate_factor(self):
        with pytest.raises(DegenerateFactorError):
            expand_product(IntegerProductSpec(1, 0, 0, "minus"), 4)

    @pytest.mark.parametrize("a,eps,ell", [(1, 0, 1), (2, 1, 0), (3, 2, 2), (1, 1, 0)])
    def test_telescoping(self, a, eps, ell):
        # prod(1-w) * prod(1+w) == prod(1-w^2) with w = q^(a n + eps)
        order = 24
        minus = expand_product(IntegerProductSpec(a, eps, ell, "minus"), order)
        plus = expand_product(IntegerProductSpec(a, eps, ell, "plus"), order)
        squares = expand_product(IntegerProductSpec(2 * a, 2 * eps, ell, "minus"), order)
        assert minus * plus == squares


def ring_binomials(exponents, sign: int, order: int) -> FormalSeries:
    """prod_e (1 + sign q^e) by FormalSeries multiplication, factor by factor."""
    out = FormalSeries.one(order)
    for e in exponents:
        out = out * (FormalSeries.one(order) + FormalSeries.monomial(sign, e, order))
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 2),
       st.sampled_from(["minus", "plus"]), st.integers(0, 40))
def test_expand_product_matches_ring_product(a, eps, ell, sign, order):
    spec = IntegerProductSpec(a, eps, ell, sign)
    if sign == "minus" and a * ell + eps == 0:
        with pytest.raises(DegenerateFactorError):
            expand_product(spec, order)
        return
    exponents = range(a * ell + eps, order + 1, a)
    expect = ring_binomials(exponents, -1 if sign == "minus" else 1, order)
    assert expand_product(spec, order) == expect


class TestJson:
    def test_schema(self):
        s = series(1, Fraction(-1, 2), 0)
        data = s.to_json_dict()
        assert data == {"var": "q", "order": 2, "coeffs": ["1/1", "-1/2", "0/1"]}
        assert FormalSeries.from_json_dict(data) == s

    def test_bivariate_schema(self):
        b = BivariateSeries._make(2, [{0: 1}, {-2: 3}, {}])
        data = b.to_json_dict()
        assert data["coeffs"][1] == {"-2": 3}
        assert BivariateSeries.from_json_dict(data) == b


class TestBivariate:
    def test_filter_y_marks_truncation(self):
        b = BivariateSeries._make(3, [{0: 1}, {5: 1}, {}, {}])
        filtered = b.filter_y(2)
        assert filtered.y_truncated
        assert filtered.q_coefficient(1) == {}
        assert not b.filter_y(10).y_truncated


class TestBinomialProduct:
    def test_hand_expansion(self):
        # (1 + q y)^2 (1 - q^2 y^-1) = 1 + 2 q y + q^2 (y^2 - y^-1) - 2 q^3 + ...
        b = binomial_product([(1, 1, 1, 2), (-1, 2, -1, 1)], 3)
        assert b.coeffs == ({0: 1}, {1: 2}, {2: 1, -1: -1}, {0: -2})

    def test_division_is_geometric_series(self):
        # 1 / (1 - q^2 y^3) = sum_k q^(2k) y^(3k)
        b = binomial_product([(-1, 2, 3, -1)], 7)
        assert b.coeffs == ({0: 1}, {}, {3: 1}, {}, {6: 1}, {}, {9: 1}, {})

    def test_power_then_inverse_power_is_one(self):
        b = binomial_product([(1, 1, 2, 3), (-1, 2, -1, 2), (1, 1, 2, -3), (-1, 2, -1, -2)], 9)
        assert b.coeffs == ({0: 1},) + ({},) * 9

    def test_factors_beyond_order_or_unit_are_skipped(self):
        b = binomial_product([(1, 4, 1, 5), (0, 1, 1, 3), (1, 1, 0, 0)], 3)
        assert b.coeffs == ({0: 1}, {}, {}, {})

    def test_rejects_nonpositive_q_exponent(self):
        with pytest.raises(ValueError):
            binomial_product([(1, 0, 1, 1)], 3)


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        FormalSeries.from_coefficients([1.5, 2])


# -- power laws of the one int_pow ----------------------------------------------

EXPONENTS = st.integers(-4, 4)


@st.composite
def unit_formal_series(draw):
    order = draw(st.integers(0, 8))
    rational = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    head = draw(rational.filter(bool))
    tail = draw(st.lists(rational, min_size=order, max_size=order))
    return FormalSeries.from_coefficients([head, *tail], order=order)


def check_power_laws(x, a, b):
    one = type(x).one(x.order)
    assert x**a * x**b == x ** (a + b)
    assert x**-1 * x == one
    assert x**0 == one


@settings(max_examples=60, deadline=None)
@given(unit_formal_series(), EXPONENTS, EXPONENTS)
def test_formal_power_laws(x, a, b):
    check_power_laws(x, a, b)
