"""The exact series kernel against independent reference computations."""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import int_series as ring
from locq import kernel
from locq.genfunc import pentagonal_terms


def test_mul_trunc_matches_reference():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 40)
        a = [rng.randint(-50, 50) for _ in range(n)]
        b = [rng.randint(-50, 50) for _ in range(n)]
        assert kernel.mul_trunc(a, b) == ring.mul(a, b)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mul_trunc_property(data):
    # tiny entries next to huge ones: the slot width follows the largest
    n = data.draw(st.integers(1, 30))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70),
                      st.integers(-(2**2000), 2**2000))
    coeffs = st.lists(entry, min_size=n, max_size=n)
    a, b = data.draw(coeffs), data.draw(coeffs)
    assert kernel.mul_trunc(a, b) == ring.mul(a, b)


def test_mul_trunc_carry_past_the_highest_slot():
    # -1 + q^2 packs as X^2 - 1, whose base-X digits are X - 1, X - 1: the
    # carry out of slot 0 runs through slot 1 into slot 2
    assert kernel.mul_trunc([1, -1, 0, 0], [-1, -1, 0, 0]) == [-1, 0, 1, 0]


def test_mul_trunc_negative_product():
    # the packed product 1 - X^2 is negative: its digits are those of X^2 - 1
    assert kernel.mul_trunc([-1, 0, 1, 0], [-1, 0, 0, 0]) == [1, 0, -1, 0]


def test_mul_trunc_zero_operands_and_length_one():
    assert kernel.mul_trunc([0, 0, 0], [5, -7, 2]) == [0, 0, 0]
    assert kernel.mul_trunc([5, -7, 2], [0, 0, 0]) == [0, 0, 0]
    assert kernel.mul_trunc([0], [0]) == [0]
    assert kernel.mul_trunc([-6], [7]) == [-42]
    assert kernel.mul_trunc([2**3000], [-(3**2000)]) == [-(2**3000) * 3**2000]


def test_mul_trunc_past_the_int_str_digit_limit():
    # 10**5000 has more digits than int/str conversion allows by default
    big = 10**5000
    a = [big, -1, 3, 0]
    b = [1, big, -big, 2]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError):
            str(big)
        got = kernel.mul_trunc(a, b)
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == ring.mul(a, b)
    assert got[1] == big * big - 1


def test_euler_transform_of_a_finite_product():
    # (1-q)(1-q^2)(1-q^3) mod q^6
    assert kernel.euler_transform([0, -1, -1, -1], 5) == [1, -1, -1, 0, 1, 1]
    assert kernel.euler_transform([0, -1, -1, -1], 0) == [1]


def ring_euler_product(c, order):
    """prod_k (1 - q^k)^(-c[k]) by schoolbook powers and products."""
    out = ring.one(order)
    for k in range(1, len(c)):
        out = ring.mul(out, ring.power(ring.binomial(-1, k, order), -c[k]))
    return out


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-4, 4), max_size=12), st.integers(0, 40))
def test_euler_transform_matches_ring_product(c, order):
    c = [0, *c]
    assert kernel.euler_transform(c, order) == ring_euler_product(c, order)


def test_euler_transform_pentagonal_theorem():
    # prod (1 - q^n) = sum_k (-1)^k q^(k(3k-1)/2) over all integers k (Euler)
    order = 2000
    expect = [0] * (order + 1)
    k = 0
    while k * (3 * k - 1) // 2 <= order:
        for j in {k, -k}:
            e = j * (3 * j - 1) // 2
            if e <= order:
                expect[e] = (-1) ** k
        k += 1
    assert kernel.euler_transform([0] + [-1] * order, order) == expect


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.integers(1, 45), st.integers(-6, 6), max_size=6),
    st.integers(-12, 12),
    st.integers(0, 40),
)
def test_sparse_power_matches_ring_power(terms, alpha, order):
    # terms past the order and zero coefficients are allowed in the input
    base = [1] + [0] * order
    for k, g in terms.items():
        if k <= order:
            base[k] = g
    assert kernel.sparse_power(terms.items(), alpha, order) == ring.power(base, alpha)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sparse_power_terms_sharing_values(data):
    # many exponents over few coefficient values: the terms of one value are
    # read together, and a value's group grows as its terms become active
    values = data.draw(st.lists(st.integers(-3, 3).filter(bool), min_size=1, max_size=3))
    terms = data.draw(st.dictionaries(st.integers(1, 120), st.sampled_from(values),
                                      max_size=30))
    alpha = data.draw(st.integers(-12, 12))
    order = data.draw(st.integers(0, 120))
    base = [1] + [0] * order
    for k, g in terms.items():
        if k <= order:
            base[k] = g
    assert kernel.sparse_power(terms.items(), alpha, order) == ring.power(base, alpha)


@pytest.mark.parametrize("chi", range(-4, 5))
def test_sparse_power_of_eulers_function_is_its_euler_transform(chi):
    # prod (1 - q^n)^chi from its pentagonal terms and from its exponents
    order = 600
    assert (kernel.sparse_power(pentagonal_terms(order), -chi, order)
            == kernel.euler_transform([0] + [chi] * order, order))


def test_sparse_power_small_cases():
    # (1 - q)^-2 = sum (n+1) q^n; (1 + q^2)^3 = 1 + 3q^2 + 3q^4 + q^6;
    # at alpha = -1, (1 + q + q^2)^-1 = (1 - q) / (1 - q^3)
    assert kernel.sparse_power([(1, -1)], -2, 5) == [1, 2, 3, 4, 5, 6]
    assert kernel.sparse_power([(1, 1), (2, 1)], -1, 7) == [1, -1, 0, 1, -1, 0, 1, -1]
    assert kernel.sparse_power([(2, 1)], 3, 8) == [1, 0, 3, 0, 3, 0, 1, 0, 0]
    assert kernel.sparse_power([(1, 5)], 7, 0) == [1]
    assert kernel.sparse_power([], -3, 4) == [1, 0, 0, 0, 0]


@pytest.mark.parametrize("order", [0, 1, 2, 5, 26, 100, 2000])
def test_pentagonal_terms_are_eulers_function(order):
    dense = [1] + [0] * order
    for k, g in pentagonal_terms(order):
        assert dense[k] == 0
        dense[k] = g
    assert dense == kernel.euler_transform([0] + [-1] * order, order)
