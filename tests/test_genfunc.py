"""Generating functions vs enumeration oracles, all equalities exact."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

import int_series as ring
from locq import genfunc, kernel
from locq.genfunc import (
    MAX_CHI,
    BettiData,
    equivariant_euler_series,
    macdonald_series,
    orbifold_oracle,
    orbifold_oracle_series,
    orbifold_series,
    partition_multiplicities,
    sym_poincare_oracle,
    sym_poincare_oracle_series,
    theta4_terms,
    twisted_sym_oracle,
    twisted_sym_series,
)
from locq.cli import parse_betti
from locq.series import FormalSeries, IntegerProductSpec, expand_product

POINT = BettiData.of(1)
SPHERE = BettiData.of(1, 0, 1)
TORUS = BettiData.of(1, 2, 1)


def ring_binomials(exponents, sign: int, order: int) -> list[int]:
    """prod_e (1 + sign q^e) by schoolbook products, factor by factor."""
    out = ring.one(order)
    for e in exponents:
        out = ring.mul(out, ring.binomial(sign, e, order))
    return out


class TestBetti:
    def test_chi(self):
        assert POINT.chi == 1
        assert SPHERE.chi == 2
        assert TORUS.chi == 0

    def test_from_string(self):
        assert parse_betti("1,0,1") == SPHERE
        assert parse_betti(" ") == BettiData.of()


def listed_sym_power(b: BettiData, n: int) -> dict[int, int]:
    """The n-th graded symmetric power's Poincare polynomial, one basis element
    at a time: every subset of odd generators with every multiset of even
    generators that makes the size n up."""
    even = [j for j, count in enumerate(b.betti) if j % 2 == 0 for _ in range(count)]
    odd = [j for j, count in enumerate(b.betti) if j % 2 for _ in range(count)]
    out: dict[int, int] = {}
    for n_odd in range(min(n, len(odd)) + 1):
        n_even = n - n_odd
        for odd_choice in itertools.combinations(odd, n_odd):
            odd_deg = sum(odd_choice)
            for even_choice in itertools.combinations_with_replacement(even, n_even):
                deg = odd_deg + sum(even_choice)
                out[deg] = out.get(deg, 0) + 1
    return out


class TestSymOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=6).map(lambda b: BettiData(tuple(b))),
           st.integers(0, 8))
    def test_series_is_the_listing_order_by_order(self, b, order):
        assert sym_poincare_oracle_series(b, order) == [listed_sym_power(b, n)
                                                       for n in range(order + 1)]

    def test_negative_order_is_refused(self):
        for call in (sym_poincare_oracle, sym_poincare_oracle_series):
            with pytest.raises(ValueError, match="must be nonnegative"):
                call(SPHERE, -1)

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
        # (1 + q y)^2 / ((1 - q)(1 - q y^2)), built by schoolbook products
        order = 5
        series = macdonald_series(TORUS, order)
        for y in (-2, -1, 2, 3):
            numerator = ring.power(ring.binomial(y, 1, order), 2)
            denominator = ring.mul(ring.binomial(-1, 1, order), ring.binomial(-y * y, 1, order))
            expect = ring.mul(numerator, ring.inverse(denominator))
            assert list(series.specialize_y(y).coeffs) == expect, y

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
    """The Macdonald series at y = -1 is (1 - q)^(-chi)."""

    @staticmethod
    def specialized(b: BettiData) -> FormalSeries:
        series = macdonald_series(b, 8).specialize_y(-1)
        assert series.coeffs == tuple(kernel.sparse_power([(1, -1)], -b.chi, 8))
        return series

    def test_sphere(self):
        assert self.specialized(SPHERE).coeffs[:4] == (1, 2, 3, 4)

    def test_torus_constant_one(self):
        assert self.specialized(TORUS) == FormalSeries(8, (1,) + (0,) * 8)

    def test_point(self):
        assert all(c == 1 for c in self.specialized(POINT).coeffs)


class TestEquivariant:
    @pytest.mark.parametrize("chi", range(-4, 5))
    def test_matches_ring_power(self, chi):
        euler = ring_binomials(range(1, 31), -1, 30)
        assert list(equivariant_euler_series(chi, 30).coeffs) == ring.power(euler, -chi)

    def test_partition_series(self):
        series = equivariant_euler_series(1, 6)
        assert series.coeffs == (1, 1, 2, 3, 5, 7, 11)

    def test_chi_zero(self):
        assert equivariant_euler_series(0, 10) == FormalSeries(10, (1,) + (0,) * 10)

    def test_chi_minus_one_pentagonal(self):
        series = equivariant_euler_series(-1, 12)
        assert series == expand_product(IntegerProductSpec(1, 0, 1, "minus"), 12)

    @pytest.mark.parametrize("chi", [MAX_CHI, -MAX_CHI])
    def test_matches_euler_transform_at_max_chi(self, chi):
        order = 500
        expect = kernel.euler_transform([0] + [chi] * order, order)
        assert list(equivariant_euler_series(chi, order).coeffs) == expect

    def test_jacobi_cube_identity(self):
        # prod (1 - q^n)^3 = sum_{n>=0} (-1)^n (2n + 1) q^(n(n+1)/2) (Jacobi)
        order = 4000
        expect = [0] * (order + 1)
        n = 0
        while n * (n + 1) // 2 <= order:
            expect[n * (n + 1) // 2] = (-1) ** n * (2 * n + 1)
            n += 1
        assert list(equivariant_euler_series(-3, order).coeffs) == expect


class TestRamanujanTau:
    """q prod (1 - q^n)^24 = sum tau(n) q^n, the discriminant modular form."""

    N = 2000

    @pytest.fixture(scope="class")
    def tau(self):
        # tau[n] is the coefficient of q^(n-1)
        return [0, *equivariant_euler_series(-24, self.N - 1).coeffs]

    def test_first_values(self, tau):
        assert tau[1:12] == [1, -24, 252, -1472, 4830, -6048, -16744, 84480,
                             -113643, -115920, 534612]

    def test_congruence_mod_691(self, tau):
        # tau(n) = sigma_11(n) mod 691 (Ramanujan)
        sigma = [0] * (self.N + 1)
        for d in range(1, self.N + 1):
            for m in range(d, self.N + 1, d):
                sigma[m] += d**11
        for n in range(1, self.N + 1):
            assert (tau[n] - sigma[n]) % 691 == 0, n

    def test_multiplicative(self, tau):
        for m in range(2, self.N + 1):
            for n in range(m + 1, self.N // m + 1):
                if math.gcd(m, n) == 1:
                    assert tau[m * n] == tau[m] * tau[n], (m, n)

    def test_prime_squares(self, tau):
        for p in range(2, math.isqrt(self.N) + 1):
            if all(p % d for d in range(2, math.isqrt(p) + 1)):
                assert tau[p * p] == tau[p] ** 2 - p**11, p


class TestTwisted:
    def test_chi_zero_is_constant_two(self):
        for order in (0, 3, 17):
            series = twisted_sym_series(0, order)
            assert series.coeffs == (2,) + (0,) * order

    def test_chi_two_expansion(self):
        series = twisted_sym_series(2, 2)
        assert series.coeffs == (2, 4, 6)

    def test_constant_term_always_two(self):
        for chi in (-3, -1, 1, 4):
            assert twisted_sym_series(chi, 5).coeffs[0] == 2

    def test_integer_coefficients(self):
        for chi in range(-4, 5):
            series = twisted_sym_series(chi, 20)
            assert all(type(c) is int for c in series.coeffs)

    @pytest.mark.parametrize("chi", range(-4, 5))
    def test_matches_ring_formula(self, chi):
        # A + B (1 + (C+ - C-)/2), each binomial multiplied by schoolbook products
        order = 30
        odd, even = range(1, order + 1, 2), range(2, order + 1, 2)
        a = ring.power(ring_binomials(odd, -1, order), -chi)
        b = ring.power(ring_binomials(odd, 1, order), chi)
        c_plus = ring.power(ring_binomials(even, 1, order), chi)
        c_minus = ring.power(ring_binomials(even, -1, order), chi)
        bracket = [2 * (k == 0) + p - m for k, (p, m) in enumerate(zip(c_plus, c_minus))]
        twice = [2 * x + y for x, y in zip(a, ring.mul(b, bracket))]
        assert all(v % 2 == 0 for v in twice)
        assert list(twisted_sym_series(chi, order).coeffs) == [v // 2 for v in twice]


def euler_transform_route(chi: int, order: int) -> list[int]:
    """The twisted series as A + B + (A - D)/2 over three Euler transforms.

    As products prod (1 - q^k)^(-c_k), the exponent c_k of A, B and D is,
    by k mod 4: k odd: chi, chi, chi; k = 2: 0, -chi, -2 chi; k = 0: 0, 0,
    -chi, with A, B and D as in twisted_sym_series.
    """

    def product(odd: int, two: int, four: int) -> list[int]:
        by_residue = (four, odd, two, odd)
        return kernel.euler_transform([by_residue[k % 4] for k in range(order + 1)], order)

    a = product(chi, 0, 0)
    b = product(chi, -chi, 0)
    d = product(chi, -2 * chi, -chi)
    assert all((x - z) % 2 == 0 for x, z in zip(a, d))
    return [x + y + (x - z) // 2 for x, y, z in zip(a, b, d)]


class TestTwistedRoutes:
    """The eta-quotient route against the three Euler transforms."""

    @pytest.mark.parametrize("chi", range(-4, 5))
    def test_small_chi_every_order(self, chi):
        for order in range(42):
            assert list(twisted_sym_series(chi, order).coeffs) == euler_transform_route(chi, order)

    @pytest.mark.parametrize("chi, order", [(1000, 200), (-1000, 200), (300, 600),
                                            (-300, 600), (24, 2000)])
    def test_large_corners(self, chi, order):
        assert list(twisted_sym_series(chi, order).coeffs) == euler_transform_route(chi, order)


class TestTwistedOracle:
    def test_matches_series(self):
        for chi in range(5):
            series = twisted_sym_series(chi, 24)
            assert [twisted_sym_oracle(chi, n) for n in range(25)] == list(series.coeffs), chi

    def test_first_values(self):
        assert [twisted_sym_oracle(3, n) for n in range(8)] == [2, 6, 12, 26, 45, 75, 128, 201]
        assert [twisted_sym_oracle(0, n) for n in range(4)] == [2, 0, 0, 0]

    def test_spin_count_at_chi_one(self):
        # n = 4: the strict partitions 4 (n - l odd, weight 2) and 3+1 (n - l
        # even, weight 1), and 3+1 again as the one into distinct odd parts
        assert twisted_sym_oracle(1, 4) == 2 + 1 + 1

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError, match="chi >= 0"):
            twisted_sym_oracle(-1, 3)
        with pytest.raises(ValueError, match="nonnegative"):
            twisted_sym_oracle(2, -1)


@pytest.mark.parametrize("order", [0, 1, 3, 4, 50, 2000])
def test_theta4_terms_are_an_eta_quotient(order):
    # theta_4(t) = E(t)^2 / E(t^2): exponent -2 at odd k, -1 at even k
    dense = [1] + [0] * order
    for k, g in theta4_terms(order):
        assert dense[k] == 0
        dense[k] = g
    assert dense == kernel.euler_transform([0] + [-2 + (k % 2 == 0) for k in range(1, order + 1)],
                                           order)


@pytest.mark.parametrize("build", [equivariant_euler_series, twisted_sym_series])
def test_chi_is_bounded(build):
    assert build(MAX_CHI, 3).coeffs[0] in (1, 2)
    assert build(-MAX_CHI, 3).coeffs[0] in (1, 2)
    for chi in (MAX_CHI + 1, -MAX_CHI - 1, 10**6 + 1):
        # checked before the order, which -1 would otherwise fail
        with pytest.raises(ValueError, match=rf"^\|chi\| must be at most {MAX_CHI}, got {chi}$"):
            build(chi, -1)


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
        assert [series.q_coefficient(n) for n in range(7)] == orbifold_oracle_series(b, 6)

    def test_y_minus_one_equals_equivariant(self):
        for b in (POINT, SPHERE, TORUS, BettiData.of(2, 1)):
            assert orbifold_series(b, 8).specialize_y(-1) == equivariant_euler_series(
                b.chi, 8
            )


class TestOrbifoldOracle:
    def test_zeroth(self):
        assert orbifold_oracle_series(SPHERE, 0) == [{0: 1}]

    def test_first_is_poincare(self):
        assert orbifold_oracle_series(TORUS, 1)[1] == {0: 1, 1: 2, 2: 1}
        assert orbifold_oracle(TORUS, 1) == {0: 1, 1: 2, 2: 1}

    def test_partition_enumeration(self):
        parts = sorted(tuple(sorted(m.items())) for m in partition_multiplicities(4))
        assert len(parts) == 5  # p(4) = 5

    @pytest.mark.parametrize("betti", [(1,), (1, 0, 1), (1, 2, 1), (0, 3), (2, 1, 0, 2)])
    def test_equals_the_partition_by_partition_sum(self, betti):
        # one product per multiplicity pattern, against one per partition
        b = BettiData.of(*betti)
        for order in range(11):
            powers = [sym_poincare_oracle(b, mult) for mult in range(order + 1)]
            want = []
            for n in range(order + 1):
                out = {}
                for mults in partition_multiplicities(n):
                    term = {0: 1}
                    for mult in mults.values():
                        new = {}
                        for e1, c1 in term.items():
                            for e2, c2 in powers[mult].items():
                                new[e1 + e2] = new.get(e1 + e2, 0) + c1 * c2
                        term = new
                    for e, c in term.items():
                        out[e] = out.get(e, 0) + c
                want.append({e: c for e, c in out.items() if c})
            assert orbifold_oracle_series(b, order) == want

    def test_each_symmetric_power_enumerated_once(self, monkeypatch):
        # one listing of the powers 0-8 serves every coefficient to q^8, where
        # one oracle call per power listed the lower powers again
        calls = []

        def counted(b, order):
            calls.append((b, order))
            return sym_poincare_oracle_series(b, order)

        monkeypatch.setattr(genfunc, "sym_poincare_oracle_series", counted)
        got = orbifold_oracle_series(TORUS, 8)
        assert calls == [(TORUS, 8)]
        series = orbifold_series(TORUS, 8)
        assert got == [series.q_coefficient(n) for n in range(9)]


# -- the in-place binomial passes against schoolbook products ------------------


def ring_product(b: BettiData, q_exponents, order: int, y: int) -> list[int]:
    """prod_n prod_j (1 + y^j q^n)^(b_j) (odd j) (1 - y^j q^n)^(-b_j) (even j)."""
    out = ring.one(order)
    for n in q_exponents:
        for j, count in enumerate(b.betti):
            sign = 1 if j % 2 else -1
            binomial = ring.binomial(sign * y**j, n, order)
            out = ring.mul(out, ring.power(binomial, sign * count))
    return out


BETTI = st.lists(st.integers(0, 3), max_size=4).map(lambda b: BettiData(tuple(b)))
Y_VALUES = st.sampled_from([-2, -1, 2, 3])


@settings(max_examples=60, deadline=None)
@given(BETTI, st.integers(0, 10), Y_VALUES)
def test_macdonald_matches_ring_product(b, order, y):
    expect = ring_product(b, [1], order, y)
    assert list(macdonald_series(b, order).specialize_y(y).coeffs) == expect


@settings(max_examples=60, deadline=None)
@given(BETTI, st.integers(0, 10), Y_VALUES)
def test_orbifold_matches_ring_product(b, order, y):
    expect = ring_product(b, range(1, order + 1), order, y)
    assert list(orbifold_series(b, order).specialize_y(y).coeffs) == expect


@settings(max_examples=80, deadline=None)
@given(BETTI, st.integers(0, 10), st.integers(0, 30),
       st.sampled_from([macdonald_series, orbifold_series]))
def test_y_bound_drops_only_the_terms_past_it(b, order, y_bound, build):
    # terms past the bound are dropped where they are made, so the bounded
    # series is the unbounded one restricted to y-degrees <= y_bound
    full = build(b, order)
    bounded = build(b, order, y_bound)
    assert not full.y_truncated
    assert bounded.coeffs == tuple({e: c for e, c in d.items() if e <= y_bound}
                                   for d in full.coeffs)
    assert bounded.y_truncated == any(e > y_bound for d in full.coeffs for e in d)
