"""Fixed-point localization on sphere products: the identity is the oracle."""

import itertools
import math
from decimal import Decimal, localcontext

import pytest

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
    flow_liouville_check,
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
    every exponential is recomputed at 40 digits where it is used."""
    n = space.half_dim
    with localcontext() as ctx:
        ctx.prec = 40
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


class TestFlow:
    def test_rotation_preserves_area(self):
        report = flow_liouville_check(SphereFactor(1.0, 2.0), t=3.7, sample_count=64)
        assert report.max_abs_det_minus_one < 1e-12

    def test_zero_time(self):
        report = flow_liouville_check(SphereFactor(2.0, 1.0), t=0.0, sample_count=16)
        assert report.max_abs_det_minus_one < 1e-15

    def test_full_period(self):
        f = SphereFactor(0.5, 3.0)
        period = 2 * math.pi * f.radius / f.weight
        report = flow_liouville_check(f, t=period, sample_count=16)
        assert report.max_abs_det_minus_one < 1e-12
