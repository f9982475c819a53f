"""Fixed-point localization on sphere products: the identity is the oracle."""

import itertools
import math
import sys
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings, strategies as st

from locq import localization, verify
from locq.errors import DegenerateWeightError
from locq.localization import (
    SphereFactor,
    SphereProductSpace,
    dh_lhs,
    dh_lhs_closed,
    dh_rhs,
    dh_verify,
    enumerate_fixed_points,
    factor_integral_closed,
    factor_integral_quad,
    fixed_point_digits,
    _exp_pair,
)


class TestFixedPoints:
    def test_single_sphere(self):
        pts = enumerate_fixed_points(SphereProductSpace.of((1.0, 1.0)))
        data = {(p.pole_signs, p.h_value, p.lambdas) for p in pts}
        assert data == {((1,), 1.0, (1.0,)), ((-1,), -1.0, (-1.0,))}

    def test_two_spheres_h_values(self):
        pts = enumerate_fixed_points(SphereProductSpace.of((1.0, 1.0), (1.0, 1.0)))
        assert sorted(p.h_value for p in pts) == [-2.0, 0.0, 0.0, 2.0]

    def test_rate_scaling(self):
        pts = enumerate_fixed_points(SphereProductSpace.of((2.0, 3.0)))
        assert {p.lambdas[0] for p in pts} == {1.5, -1.5}

    def test_numerical_linearization_agrees(self):
        space = SphereProductSpace.of((2.0, 3.0), (0.5, -1.25))
        analytic = enumerate_fixed_points(space)
        numeric = enumerate_fixed_points(space, numerical=True)
        for pa, pn in zip(analytic, numeric):
            for la, ln in zip(pa.lambdas, pn.lambdas):
                assert la == pytest.approx(ln, abs=1e-9)

    def test_zero_weight_rejected(self):
        with pytest.raises(DegenerateWeightError):
            SphereFactor(1.0, 0.0)

    @pytest.mark.parametrize(
        "r,mu", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, -math.inf),
                 (1.0, math.nan)]
    )
    def test_non_finite_factor_rejected(self, r, mu):
        with pytest.raises(ValueError, match="finite"):
            SphereFactor(r, mu)


class TestLhs:
    def test_closed_form_single_sphere(self):
        value = factor_integral_closed(SphereFactor(1.0, 1.0), 1.0)
        assert value == pytest.approx(2 * math.pi * (math.e - 1 / math.e), rel=1e-14)

    def test_quadrature_matches_closed_form(self):
        for r, mu, c in ((1.0, 1.0, 1.0), (2.0, 3.0, 0.7), (0.5, 3.0, 5.0)):
            f = SphereFactor(r, mu)
            assert factor_integral_quad(f, c, 64) == pytest.approx(
                factor_integral_closed(f, c), rel=1e-10
            )

    def test_small_c_approaches_liouville_volume(self):
        f = SphereFactor(1.5, 2.0)
        assert factor_integral_closed(f, 1e-8) == pytest.approx(
            4 * math.pi * 1.5**2, rel=1e-16 + 1e-10
        )

    def test_product_space_factorizes(self):
        space = SphereProductSpace.of((1.0, 1.0), (2.0, 3.0))
        expect = factor_integral_closed(SphereFactor(1.0, 1.0), 0.7) * \
            factor_integral_closed(SphereFactor(2.0, 3.0), 0.7)
        assert dh_lhs_closed(space, 0.7) == pytest.approx(expect, rel=1e-14)
        assert dh_lhs(space, 0.7) == pytest.approx(expect, rel=1e-12)

    def test_monotone_in_c(self):
        space = SphereProductSpace.of((1.0, 1.0), (2.0, 0.5))
        values = [dh_lhs(space, c) for c in (0.5, 0.6, 0.7, 0.8)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestIdentity:
    def test_single_sphere_closed_form(self):
        # fixed-point side reproduces 2 pi (e - 1/e) identically
        rhs = dh_rhs(SphereProductSpace.of((1.0, 1.0)), 1.0)
        assert rhs == pytest.approx(2 * math.pi * (math.e - 1 / math.e), rel=1e-13)

    @pytest.mark.parametrize("c", [0.01, 0.1, 1.0, 5.0, 10.0])
    def test_identity_on_sample_spaces(self, c):
        spaces = [
            SphereProductSpace.of((1.0, 1.0)),
            SphereProductSpace.of((0.5, 0.5), (0.5, 0.5)),
            SphereProductSpace.of((1.0, 2.0), (2.0, 0.5), (3.0, 3.0)),
            SphereProductSpace.of((0.5, 3.0), (1.0, 1.0), (2.0, 2.0), (3.0, 0.5)),
        ]
        for space in spaces:
            report = dh_verify(space, c, quad_points=64)
            assert report.rel_err < 1e-8

    def test_negative_weights(self):
        space = SphereProductSpace.of((1.0, -2.0), (2.0, 1.5))
        assert dh_verify(space, 0.3).rel_err < 1e-10

    def test_sign_flip_symmetry(self):
        space = SphereProductSpace.of((1.0, 1.0), (2.0, 3.0))
        flipped = SphereProductSpace.of((1.0, -1.0), (2.0, -3.0))
        assert dh_rhs(flipped, -0.7) == pytest.approx(dh_rhs(space, 0.7), rel=1e-12)

    def test_scaling_covariance_of_exponents(self):
        space = SphereProductSpace.of((1.0, 2.0), (2.0, 0.5))
        halved = SphereProductSpace.of((1.0, 1.0), (2.0, 0.25))
        c = 0.8
        exps = sorted(c * p.h_value for p in enumerate_fixed_points(space))
        exps_halved = sorted(2 * c * p.h_value for p in enumerate_fixed_points(halved))
        assert exps == pytest.approx(exps_halved, rel=1e-14)

    def test_via_sqrt_det_path(self):
        space = SphereProductSpace.of((1.0, 1.0), (2.0, -3.0))
        direct = dh_rhs(space, 0.9)
        routed = dh_rhs(space, 0.9, via_sqrt_det=True)
        assert routed == pytest.approx(direct, rel=1e-11)

    def test_imaginary_c_smoke(self):
        space = SphereProductSpace.of((1.0, 1.0), (2.0, 3.0))
        lhs = dh_lhs(space, 0.7j, quad_points=128)
        rhs = dh_rhs(space, 0.7j)
        assert abs(lhs - rhs) / abs(rhs) < 1e-6
        closed = dh_lhs_closed(space, 0.7j)
        assert abs(lhs - closed) / abs(closed) < 1e-10


def _reference_rhs(space, c):
    """The fixed-point sum written out per pole combination, with no cache:
    every exponential is recomputed, at the sum's precision, where it is used."""
    n = space.half_dim
    with localcontext() as ctx:
        ctx.prec = fixed_point_digits(space, c)
        total = Decimal(0)
        for signs in itertools.product((1, -1), repeat=n):
            term = Decimal(1)
            denom = 1.0
            for s, f in zip(signs, space.factors):
                x = Decimal(c) * Decimal(f.weight) * Decimal(f.radius)
                term *= (x if s > 0 else -x).exp()
                denom *= s * (f.weight / f.radius)
            total += term / Decimal(denom)
    return (2.0 * math.pi / c) ** n * float(total)


CACHE_SPACES = [
    SphereProductSpace.of((1.0, 2.0), (1.0, 2.0)),
    SphereProductSpace.of((0.5, 3.0), (2.0, -0.5), (0.5, 3.0)),
    SphereProductSpace.of((3.0, 0.5), (1.0, 1.0), (3.0, 0.5), (0.5, -2.0)),
]


def _clear_caches():
    factor_integral_quad.cache_clear()
    _exp_pair.cache_clear()


class TestCaching:
    @pytest.mark.parametrize("space", CACHE_SPACES)
    @pytest.mark.parametrize("c", [1e-3, -1e-3, 0.05, -0.05, 1.3, -1.3])
    def test_rhs_matches_uncached_reference_exactly(self, space, c):
        _clear_caches()
        assert dh_rhs(space, c) == _reference_rhs(space, c)
        assert dh_rhs(space, c) == _reference_rhs(space, c)  # warm

    @pytest.mark.parametrize("space", CACHE_SPACES)
    def test_cold_cleared_and_warm_results_identical(self, space):
        def key(report):
            return report.lhs, report.rhs, report.rel_err, report.fixed_points

        _clear_caches()
        cold = key(dh_verify(space, 0.7))
        factor_integral_quad.cache_clear()
        assert key(dh_verify(space, 0.7)) == cold
        _exp_pair.cache_clear()
        assert key(dh_verify(space, 0.7)) == cold
        hits = factor_integral_quad.cache_info().hits
        assert key(dh_verify(space, 0.7)) == cold
        assert factor_integral_quad.cache_info().hits == hits + space.half_dim

    @pytest.mark.parametrize("space", CACHE_SPACES)
    def test_report_fixed_points_match_enumeration(self, space):
        assert dh_verify(space, 0.3).fixed_points == tuple(enumerate_fixed_points(space))

    def test_errors_are_not_cached(self):
        f = SphereFactor(1.0, 1.0)
        for _ in range(2):
            with pytest.raises(ValueError, match="quad_points"):
                factor_integral_quad(f, 0.5, 1)

    def test_quadrature_node_cap(self, monkeypatch):
        def forbidden(n):
            raise AssertionError("leggauss reached past the cap")

        monkeypatch.setattr(localization, "_leggauss", forbidden)
        with pytest.raises(ValueError, match="at most 1024"):
            factor_integral_quad(SphereFactor(1.0, 1.0), 0.5, 1025)

    def test_factor_count_cap(self):
        space = SphereProductSpace.of(*[(1.0, 1.0)] * 17)
        for numerical in (False, True):
            with pytest.raises(ValueError, match="at most 16 sphere factors"):
                enumerate_fixed_points(space, numerical=numerical)
        with pytest.raises(ValueError, match="at most 16 sphere factors"):
            dh_verify(space, 0.5)
        assert len(enumerate_fixed_points(SphereProductSpace.of(*[(1.0, 1.0)] * 16))) == 2**16

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, complex(math.nan, 1.0)])
    def test_non_finite_c_rejected_before_caching(self, c):
        space = CACHE_SPACES[1]
        sizes = factor_integral_quad.cache_info().currsize, _exp_pair.cache_info().currsize
        for fn in (dh_lhs, dh_rhs, dh_verify):
            with pytest.raises(ValueError, match="finite"):
                fn(space, c)
        with pytest.raises(ValueError, match="finite"):
            factor_integral_quad(space.factors[0], c)
        assert (factor_integral_quad.cache_info().currsize,
                _exp_pair.cache_info().currsize) == sizes

    def test_cache_keeps_argument_types_apart(self):
        f = SphereFactor(1.0, 1.0)
        assert isinstance(factor_integral_quad(f, 1.0), float)
        assert isinstance(factor_integral_quad(f, 1.0 + 0.0j), complex)


def _reference_points(space, numerical=False):
    """The fixed points as one loop per pole combination over
    itertools.product; H is added up left to right from int 0 by hand,
    since sum() of floats is compensated from Python 3.12 on."""
    out = []
    for signs in itertools.product((1, -1), repeat=space.half_dim):
        h = 0
        for s, f in zip(signs, space.factors):
            h = h + s * (f.weight * f.radius)
        if numerical:
            lams = tuple(localization._numerical_rate(f, s) for s, f in zip(signs, space.factors))
        else:
            lams = tuple(s * (f.weight / f.radius) for s, f in zip(signs, space.factors))
        out.append((signs, h, lams))
    return out


_signed = st.tuples(st.floats(0.1, 4.0), st.sampled_from((1, -1))).map(lambda t: t[0] * t[1])
_spaces = st.lists(st.tuples(st.floats(0.1, 4.0), _signed), min_size=1, max_size=8).map(
    lambda pairs: SphereProductSpace.of(*pairs)
)
_real_cs = st.tuples(st.floats(1e-3, 3.0), st.sampled_from((1, -1))).map(lambda t: t[0] * t[1])


class TestSubsetDoubling:
    """The doubled points and Decimal numerators against the per-point loops."""

    @settings(max_examples=40, deadline=None)
    @given(space=_spaces, numerical=st.booleans())
    def test_points_match_product_loop(self, space, numerical):
        points = enumerate_fixed_points(space, numerical=numerical)
        got = [(p.pole_signs, p.h_value, p.lambdas) for p in points]
        assert got == _reference_points(space, numerical)

    @settings(max_examples=60, deadline=None)
    @given(space=_spaces, c=_real_cs)
    def test_rhs_matches_per_point_loop(self, space, c):
        assert dh_rhs(space, c) == _reference_rhs(space, c)

    @settings(max_examples=30, deadline=None)
    @given(space=_spaces, c=_real_cs)
    def test_verify_with_given_points_matches(self, space, c):
        given_points = dh_verify(space, c, points=enumerate_fixed_points(space))
        assert given_points == dh_verify(space, c)

    @pytest.mark.parametrize("c", [0.7, -1e-9, complex(0.3, 0.4)])
    def test_each_check_sized_once(self, monkeypatch, c):
        calls = []
        for name in ("_size_sum", "_prefactor"):
            original = getattr(localization, name)
            monkeypatch.setattr(localization, name,
                                lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
        space = SphereProductSpace.of((1.0, 2.0), (0.5, -1.5), (2.0, 0.25))
        for run in (lambda: dh_verify(space, c), lambda: dh_rhs(space, c),
                    lambda: dh_rhs(space, c, via_sqrt_det=True)):
            calls.clear()
            run()
            assert calls == ["_size_sum", "_prefactor"]

    @settings(max_examples=30, deadline=None)
    @given(space=_spaces, c=st.one_of(_real_cs, st.builds(complex, _real_cs, _real_cs)))
    def test_verify_rhs_is_dh_rhs(self, space, c):
        report = dh_verify(space, c)
        assert repr(report.rhs) == repr(dh_rhs(space, c))
        assert report.decimal_digits == fixed_point_digits(space, c)

    def test_numerical_rates_run_twice_per_factor(self, monkeypatch):
        calls = []
        rate = localization._numerical_rate

        def counted(factor, pole_sign):
            calls.append(pole_sign)
            return rate(factor, pole_sign)

        monkeypatch.setattr(localization, "_numerical_rate", counted)
        space = SphereProductSpace.of(*[(1.0 + k, 0.5 - k) for k in range(6)])
        assert len(enumerate_fixed_points(space, numerical=True)) == 2**6
        assert calls == [1, -1] * 6


class TestSumPrecision:
    def test_verify_all_cases_stay_at_forty_digits(self):
        pairs = [(r, mu) for r in verify.DH_VALUES for mu in verify.DH_VALUES]
        for k in range(1, 5):
            for combo in itertools.combinations_with_replacement(pairs, k):
                space = SphereProductSpace.of(*combo)
                assert {fixed_point_digits(space, c) for c in verify.DH_CS} == {40}

    def test_digits_follow_the_cancellation(self):
        # 1 - e^(-2e-300) = 2e-300 loses 299.7 digits; 20 more are kept
        assert fixed_point_digits(SphereProductSpace.of((1.0, 1.0)), 1e-300) == 320
        space = SphereProductSpace.of((1.0, 1.0), (2.0, 1.0), (1.0, 3.0), (2.0, 2.0))
        assert fixed_point_digits(space, 1e-9) == 54
        assert fixed_point_digits(space, -1e-9) == 54
        assert fixed_point_digits(space, 1e-9 + 0.5j) is None

    @pytest.mark.parametrize(
        "pairs,c",
        [
            (((1.0, 1.0), (2.0, 1.0), (1.0, 3.0), (2.0, 2.0)), 1e-9),
            (((1.0, 1.0),), 1e-300),
            (((0.5, -2.0), (3.0, 0.25), (1.5, 1.5)), -1e-6),
        ],
    )
    def test_small_c_matches_closed_form(self, pairs, c):
        space = SphereProductSpace.of(*pairs)
        assert dh_rhs(space, c) == pytest.approx(dh_lhs_closed(space, c), rel=1e-14)

    def test_sixteen_factors_at_small_c(self):
        # at 40 digits this sum came out 24 times too large
        space = SphereProductSpace.of(*[(1 + 0.1 * i, 0.5 + 0.07 * i) for i in range(16)])
        report = dh_verify(space, 0.001)
        assert report.decimal_digits == 60
        assert report.rel_err < 1e-12

    @staticmethod
    def _forbid_work(monkeypatch):
        def forbidden(*args):
            raise AssertionError("work ran before the check")

        monkeypatch.setattr(localization, "factor_integral_quad", forbidden)
        monkeypatch.setattr(localization, "enumerate_fixed_points", forbidden)
        monkeypatch.setattr(localization, "_exp_pair", forbidden)

    def test_precision_cap_before_any_work(self, monkeypatch):
        space = SphereProductSpace.of(*[(1.0, 1.0)] * 4)
        self._forbid_work(monkeypatch)
        for fn in (dh_rhs, dh_verify):
            with pytest.raises(ValueError, match="more than MAX_DECIMAL_DIGITS = 1000"):
                fn(space, 1e-300)

    def test_underflowing_exponent_hits_the_cap(self):
        with pytest.raises(ValueError, match="cancels inf digits"):
            fixed_point_digits(SphereProductSpace.of((1e-200, 1e-200)), 1e-200)

    @pytest.mark.parametrize("c", [1000.0, -800.0, 1e308, complex(800.0, 1.0)])
    def test_overflow_named_before_any_work(self, monkeypatch, c):
        space = SphereProductSpace.of((1.0, 1.0))
        self._forbid_work(monkeypatch)
        for fn in (dh_rhs, dh_verify):
            with pytest.raises(ValueError, match=r"^overflow: e\^\(c H\) exceeds"):
                fn(space, c)

    @pytest.mark.parametrize(
        "pairs,c",
        [
            (((1.0, 1.0), (1.0, 1.0)), 1e-300),  # the float power raises OverflowError
            (((1.0, 1.0),), 1e-310),  # 2 pi / c is already inf
            (((1.0, 1.0), (1.0, 1.0)), complex(1e-300, 1e-300)),  # the complex power is nan
        ],
    )
    def test_prefactor_overflow_named_before_any_work(self, monkeypatch, pairs, c):
        space = SphereProductSpace.of(*pairs)
        self._forbid_work(monkeypatch)
        for fn in (dh_rhs, dh_verify):
            with pytest.raises(ValueError, match=r"^overflow: the prefactor \(2 pi / c\)\^n"):
                fn(space, c)

    def test_prefactor_refused_only_when_not_finite(self):
        # (2 pi / c)^2 reaches the largest double at c = 2 pi / sqrt(max)
        space = SphereProductSpace.of((1.0, 1.0), (1.0, 1.0))
        edge = localization.TWO_PI / math.sqrt(sys.float_info.max)
        with pytest.raises(ValueError, match="prefactor"):
            fixed_point_digits(space, edge * (1 - 1e-6))
        report = dh_verify(space, edge * (1 + 1e-6))
        assert report.rel_err < 1e-14

    def test_imaginary_c_is_not_an_overflow(self):
        assert fixed_point_digits(SphereProductSpace.of((1.0, 1.0)), 1000j) is None
