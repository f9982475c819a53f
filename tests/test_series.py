"""Exact series: the test-side integer ring, product expansion, specialization."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import int_series as ring
from locq.cli import bivariate_series_json, formal_series_json
from locq.errors import DegenerateFactorError
from locq.genfunc import BettiData, _betti_product
from locq.series import BivariateSeries, FormalSeries, IntegerProductSpec, expand_product


def rand_series(rng, order, unit=False):
    coeffs = [rng.randint(-9, 9) for _ in range(order + 1)]
    if unit:
        coeffs[0] = rng.choice((1, -1))
    return coeffs


# -- the test-side ring on hand expansions: the oracle is checked too -------------


class TestMul:
    def test_geometric_inverse(self):
        assert ring.mul([1, -1, 0, 0, 0], [1, 1, 1, 1, 1]) == ring.one(4)

    def test_difference_of_squares(self):
        assert ring.mul([1, 1, 0], [1, -1, 0]) == [1, 0, -1]

    def test_hand_expansion(self):
        assert ring.mul([1, -1, 0, 0, 0], [1, 0, 0, -1, 0]) == [1, -1, 0, -1, 1]


class TestInvert:
    def test_geometric(self):
        assert ring.inverse([1, -1, 0, 0]) == [1, 1, 1, 1]

    def test_one(self):
        assert ring.inverse(ring.one(6)) == ring.one(6)

    def test_fibonacci(self):
        assert ring.inverse([1, -1, -1, 0, 0]) == [1, 1, 2, 3, 5]

    def test_random_inverse_property(self):
        rng = random.Random(11)
        for _ in range(25):
            s = rand_series(rng, rng.randint(0, 12), unit=True)
            assert ring.mul(s, ring.inverse(s)) == ring.one(len(s) - 1)


class TestIntPow:
    def test_binomial(self):
        assert ring.power([1, -1, 0, 0], -2) == [1, 2, 3, 4]

    def test_zeroth_power(self):
        rng = random.Random(5)
        assert ring.power(rand_series(rng, 7), 0) == ring.one(7)

    def test_negative_one(self):
        assert ring.power([1, -1, 0, 0], -1) == [1, 1, 1, 1]

    def test_pow_consistency(self):
        rng = random.Random(6)
        s = rand_series(rng, 9, unit=True)
        assert ring.power(s, 3) == ring.mul(ring.mul(s, s), s)
        assert ring.power(s, -2) == ring.inverse(ring.mul(s, s))


class TestRingAxioms:
    def test_axioms_random(self):
        rng = random.Random(7)
        for _ in range(15):
            order = rng.randint(0, 10)
            a, b, c = (rand_series(rng, order) for _ in range(3))
            b_plus_c = [x + y for x, y in zip(b, c)]
            assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
            assert ring.mul(a, b) == ring.mul(b, a)
            ab, ac = ring.mul(a, b), ring.mul(a, c)
            assert ring.mul(a, b_plus_c) == [x + y for x, y in zip(ab, ac)]

    def test_mixed_orders_truncate_to_min(self):
        assert ring.mul([1, 2, 3, 4], [1, 1]) == [1, 3]


class TestExpandProduct:
    def test_euler_pentagonal_start(self):
        s = expand_product(IntegerProductSpec(1, 0, 1, "minus"), 5)
        assert s == FormalSeries(5, (1, -1, -1, 0, 0, 1))

    def test_odd_exponent_product(self):
        s = expand_product(IntegerProductSpec(2, 1, 0, "minus"), 4)
        assert s == FormalSeries(4, (1, -1, 0, -1, 1))

    def test_plus_sign(self):
        s = expand_product(IntegerProductSpec(1, 0, 1, "plus"), 3)
        assert s == FormalSeries(3, (1, 1, 1, 2))

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
        assert ring.mul(minus.coeffs, plus.coeffs) == list(squares.coeffs)


def ring_binomials(exponents, sign: int, order: int) -> list[int]:
    """prod_e (1 + sign q^e) by schoolbook products, factor by factor."""
    out = ring.one(order)
    for e in exponents:
        out = ring.mul(out, ring.binomial(sign, e, order))
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
    assert list(expand_product(spec, order).coeffs) == expect


class TestJson:
    def test_schema(self):
        data = formal_series_json(FormalSeries(2, (1, -12, 0)))
        assert data == {"var": "q", "order": 2, "coeffs": ["1/1", "-12/1", "0/1"]}

    def test_bivariate_schema(self):
        b = BivariateSeries(2, ({0: 1}, {2: 3}, {}))
        data = bivariate_series_json(b)
        assert data["coeffs"][1] == {"2": 3}
        assert "y_truncated" not in data
        assert bivariate_series_json(BivariateSeries(2, b.coeffs, True))["y_truncated"] is True


class TestBivariate:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.dictionaries(st.integers(0, 5), st.integers(-9, 9), max_size=4),
                 min_size=1, max_size=6),
        st.integers(-4, 4),
    )
    def test_specialize_y_evaluates_each_coefficient(self, coeffs, y):
        b = BivariateSeries(len(coeffs) - 1, tuple(coeffs))
        expect = tuple(sum(c * y**e for e, c in d.items()) for d in b.coeffs)
        assert b.specialize_y(y) == FormalSeries(len(coeffs) - 1, expect)


class TestBinomialProduct:
    """genfunc._betti_product: (1 + q^n y^j)^b for odd j, (1 - q^n y^j)^(-b) for even j."""

    def test_hand_expansion(self):
        # (1 + q y)^2 / (1 - q y^2) = (1 + 2 q y + q^2 y^2)(1 + q y^2 + q^2 y^4 + ...)
        b = _betti_product(BettiData.of(0, 2, 1), [1], 3, None)
        assert b.coeffs == ({0: 1}, {1: 2, 2: 1}, {2: 1, 3: 2, 4: 1}, {4: 1, 5: 2, 6: 1})
        # (1 + q y)^2 (1 + q^2 y)^2 = 1 + 2 q y + q^2 (2 y + y^2) + 4 q^3 y^2 + ...
        b = _betti_product(BettiData.of(0, 2), [1, 2], 3, None)
        assert b.coeffs == ({0: 1}, {1: 2}, {1: 2, 2: 1}, {2: 4})

    def test_division_is_geometric_series(self):
        # 1 / (1 - q^2 y^2) = sum_k q^(2k) y^(2k)
        b = _betti_product(BettiData.of(0, 0, 1), [2], 7, None)
        assert b.coeffs == ({0: 1}, {}, {2: 1}, {}, {4: 1}, {}, {6: 1}, {})

    def test_factors_beyond_order_or_unit_are_skipped(self):
        # a Betti number 0 is the factor 1, and q^4 is past the order
        b = _betti_product(BettiData.of(0, 5), [1, 4], 3, None)
        assert b.coeffs == ({0: 1}, {1: 5}, {2: 10}, {3: 10})
        b = _betti_product(BettiData.of(0, 5), [4], 3, None)
        assert b.coeffs == ({0: 1}, {}, {}, {})
