"""The exact series kernel against independent reference computations."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from locq import kernel


def reference_invert(nums, length):
    """Fraction-based series reciprocal, independent of the kernel."""
    r = [Fraction(0)] * length
    r[0] = Fraction(1, nums[0])
    for n in range(1, length):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += nums[k] * r[n - k]
        r[n] = -acc / nums[0]
    return r


def schoolbook_mul(a, b):
    """Truncated Cauchy product written straight from its definition."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def test_mul_trunc_matches_reference():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 40)
        a = [rng.randint(-50, 50) for _ in range(n)]
        b = [rng.randint(-50, 50) for _ in range(n)]
        assert kernel.mul_trunc(a, b) == schoolbook_mul(a, b)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mul_trunc_property(data):
    n = data.draw(st.integers(1, 30))
    coeffs = st.lists(st.integers(-(2**70), 2**70), min_size=n, max_size=n)
    a, b = data.draw(coeffs), data.draw(coeffs)
    assert kernel.mul_trunc(a, b) == schoolbook_mul(a, b)


def test_invert_ints_exactness():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randint(1, 25)
        nums = [rng.choice([1, -1, 2, -2, 3])] + [rng.randint(-9, 9) for _ in range(n - 1)]
        out, den = kernel.invert_ints(nums)
        got = [Fraction(v, den) for v in out]
        assert got == reference_invert(nums, n)


def test_binomial_update_is_polynomial_multiplication():
    nums = [1, 0, 0, 0, 0, 0]
    kernel.mul_binomial_inplace(nums, 1, -1)
    kernel.mul_binomial_inplace(nums, 2, -1)
    kernel.mul_binomial_inplace(nums, 3, -1)
    # (1-q)(1-q^2)(1-q^3) mod q^6
    assert nums == [1, -1, -1, 0, 1, 1]
