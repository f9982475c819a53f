"""Fixed-point localization on sphere products: the identity is the oracle."""

import cmath
import hashlib
import itertools
import math
import random
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

import point_sums
from locq import localization, pfaffian, verify
from locq.errors import DegenerateWeightError, require_double
from locq.localization import (
    FactorTable,
    SphereFactor,
    SphereProductSpace,
    dh_verify,
    enumerate_fixed_points,
    factor_integral_quad,
)
from locq.oracles import dh_lhs_closed, factor_integral_closed
from test_pfaffian import block_diagonal


# Step of the central difference in _numerical_rate.
RATE_STEP = 1e-6


def _numerical_rate(factor, pole_sign):
    """Oracle: the linearization rate at a pole, by finite differencing the
    ambient field V(p) = rate * z_hat x p.

    The tangent frame at the pole is oriented against the outward normal:
    (x_hat, y_hat) at the north pole, (y_hat, x_hat) at the south pole.
    Returns l with V ~ l * (frame rotation generator).
    """
    import numpy as np

    rate = factor.weight / factor.radius

    def field(p):
        return np.array([-rate * p[1], rate * p[0], 0.0])

    pole = np.array([0.0, 0.0, pole_sign * factor.radius])
    ex = np.array([1.0, 0.0, 0.0])
    ey = np.array([0.0, 1.0, 0.0])
    e1, e2 = (ex, ey) if pole_sign > 0 else (ey, ex)
    dv = (field(pole + RATE_STEP * e1) - field(pole - RATE_STEP * e1)) / (2 * RATE_STEP)
    return float(dv @ e2)


class TestFixedPoints:
    def test_single_sphere(self):
        space = SphereProductSpace.of((1.0, 1.0))
        assert enumerate_fixed_points(space) == [1.0, -1.0]
        assert space.factors[0].rate == 1.0

    def test_two_spheres_h_values(self):
        pts = enumerate_fixed_points(SphereProductSpace.of((1.0, 1.0), (1.0, 1.0)))
        assert sorted(pts) == [-2.0, 0.0, 0.0, 2.0]

    def test_rate_scaling(self):
        assert SphereFactor(2.0, 3.0).rate == 1.5

    def test_numerical_linearization_agrees(self):
        for space in [SphereProductSpace.of((2.0, 3.0), (0.5, -1.25)), *CACHE_SPACES]:
            for f in space.factors:
                numeric = (_numerical_rate(f, 1), _numerical_rate(f, -1))
                assert (f.rate, -f.rate) == pytest.approx(numeric, abs=1e-9)

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

    @pytest.mark.parametrize("r,mu", [(1e-320, 1e10), (1e-300, -1e10)])
    def test_infinite_rate_rejected(self, r, mu):
        with pytest.raises(ValueError, match=r"^overflow: the rate mu / r = .* / .* "
                                             r"is not a finite double, got -?inf$"):
            SphereFactor(r, mu)


def _quad_value(factor, c, quad_points=64):
    """factor_integral_quad's (m, e) as the value m 2^e."""
    m, e = factor_integral_quad(factor, c, quad_points)
    if isinstance(m, complex):
        return complex(math.ldexp(m.real, e), math.ldexp(m.imag, e))
    return math.ldexp(m, e)


@pytest.mark.parametrize("n", sorted({2, 3, 5, 9, *localization.QUAD_COUNTS}))
def test_leggauss_nodes_and_weights(n):
    # the rule from Newton's method on the recurrence, against NumPy's
    # eigenvalue rule and, from 16 nodes on, the integral of e^(3x) in mpmath
    import numpy as np

    x, w = localization._leggauss(n)
    reference = np.polynomial.legendre.leggauss(n)[0]
    assert len(x) == len(w) == n
    assert all(np.diff(x) > 0)
    assert max(abs(x - reference) / np.spacing(abs(reference))) <= 4
    assert list(x) == list(-x[::-1])
    assert all(w > 0) and list(w) == list(w[::-1])
    assert abs(math.fsum(w) - 2) <= 8 * localization.UNIT
    if n >= 16:
        with mpmath.workdps(40):
            exact = 2 * mpmath.sinh(3) / 3
            rule = mpmath.fsum(mpmath.mpf(wi) * mpmath.exp(3 * mpmath.mpf(xi))
                               for xi, wi in zip(x, w))
            assert abs(rule - exact) <= 16 * localization.UNIT * exact


class TestLhs:
    def test_closed_form_single_sphere(self):
        value = factor_integral_closed(SphereFactor(1.0, 1.0), 1.0)
        assert value == pytest.approx(2 * math.pi * (math.e - 1 / math.e), rel=1e-14)

    def test_quadrature_matches_closed_form(self):
        for r, mu, c in ((1.0, 1.0, 1.0), (2.0, 3.0, 0.7), (0.5, 3.0, 5.0)):
            f = SphereFactor(r, mu)
            assert _quad_value(f, c, 64) == pytest.approx(
                factor_integral_closed(f, c), rel=1e-10
            )

    def test_small_c_approaches_liouville_volume(self):
        f = SphereFactor(1.5, 2.0)
        assert factor_integral_closed(f, 1e-8) == pytest.approx(
            4 * math.pi * 1.5**2, rel=1e-16 + 1e-10
        )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-150, 200), st.floats(0.1, 2.5),
                              st.sampled_from((1, -1))), min_size=1, max_size=4),
           st.sampled_from([1.0, -0.5, 1.2, 0.7j, complex(0.3, -1.1)]))
    @example([(200, 1.0, 1), (-100, 1.0, 1)], 1.0)
    def test_closed_form_against_mpmath(self, shapes, c):
        # r = 10^e and mu = +-s / r, so c mu r is about c s, |c s| < pi
        # keeps sinh(c mu r) away from its zeros, and r^2 and r / (c mu)
        # overflow or underflow a double from |e| = 155 on (below e = -153
        # the rate mu / r is not a double, which SphereFactor refuses)
        pairs = [(10.0**e, sign * s / 10.0**e) for e, s, sign in shapes]
        with mpmath.workdps(50):
            cc = mpmath.mpmathify(c)
            want = mpmath.fprod(4 * mpmath.pi * mpmath.mpf(r) * mpmath.sinh(cc * mu * r) / (cc * mu)
                                for r, mu in pairs)
            size = abs(want)
        got = dh_lhs_closed(SphereProductSpace.of(*pairs), c)
        if size > sys.float_info.max:
            assert math.isinf(abs(got))
        elif size > 1e-300:
            assert abs(got - want) <= 1e-14 * size

    def test_product_space_factorizes(self):
        space = SphereProductSpace.of((1.0, 1.0), (2.0, 3.0))
        expect = factor_integral_closed(SphereFactor(1.0, 1.0), 0.7) * \
            factor_integral_closed(SphereFactor(2.0, 3.0), 0.7)
        assert dh_lhs_closed(space, 0.7) == pytest.approx(expect, rel=1e-14)
        assert dh_verify(space, 0.7).lhs == pytest.approx(expect, rel=1e-12)

    def test_monotone_in_c(self):
        space = SphereProductSpace.of((1.0, 1.0), (2.0, 0.5))
        values = [dh_verify(space, c).lhs for c in (0.5, 0.6, 0.7, 0.8)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestIdentity:
    def test_single_sphere_closed_form(self):
        # fixed-point side reproduces 2 pi (e - 1/e) identically
        rhs = dh_verify(SphereProductSpace.of((1.0, 1.0)), 1.0).rhs
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
            report = dh_verify(space, c)
            assert report.rel_err < 1e-8

    def test_negative_weights(self):
        space = SphereProductSpace.of((1.0, -2.0), (2.0, 1.5))
        assert dh_verify(space, 0.3).rel_err < 1e-10

    def test_sign_flip_symmetry(self):
        space = SphereProductSpace.of((1.0, 1.0), (2.0, 3.0))
        flipped = SphereProductSpace.of((1.0, -1.0), (2.0, -3.0))
        assert dh_verify(flipped, -0.7).rhs == pytest.approx(dh_verify(space, 0.7).rhs,
                                                             rel=1e-12)

    def test_scaling_covariance_of_exponents(self):
        space = SphereProductSpace.of((1.0, 2.0), (2.0, 0.5))
        halved = SphereProductSpace.of((1.0, 1.0), (2.0, 0.25))
        c = 0.8
        exps = sorted(c * h for h in enumerate_fixed_points(space))
        exps_halved = sorted(2 * c * h for h in enumerate_fixed_points(halved))
        assert exps == pytest.approx(exps_halved, rel=1e-14)

    def test_via_sqrt_det_path(self):
        spaces = [SphereProductSpace.of((1.0, 1.0), (2.0, -3.0)), *CACHE_SPACES]
        for space in spaces:
            for c in (0.9, -0.9):
                assert _sqrt_det_rhs(space, c) == pytest.approx(dh_verify(space, c).rhs,
                                                                rel=1e-11)

    def test_complex_sum_within_the_rounding_of_its_terms(self):
        # A float sum of terms t_p rounds at the scale of sum_p |t_p|, which is
        # prod_j 2 cosh(Re x_j) 2 pi / |c l_j|, x_j = c mu_j r_j; where
        # the terms cancel (small |c|), that exceeds |closed| by the cancellation.
        rng = random.Random(22)
        for _ in range(400):
            n = rng.randint(1, 12)
            space = SphereProductSpace.of(*[
                (rng.uniform(0.5, 3.0), rng.choice((1, -1)) * rng.uniform(0.5, 3.0))
                for _ in range(n)])
            c = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            scale = abs((2 * math.pi / c) ** n) * math.prod(
                2 * math.cosh((c * f.weight * f.radius).real) / abs(f.rate)
                for f in space.factors)
            assert abs(dh_verify(space, c).rhs - dh_lhs_closed(space, c)) <= 1e-14 * scale

    def test_imaginary_c_smoke(self):
        space = SphereProductSpace.of((1.0, 1.0), (2.0, 3.0))
        report = dh_verify(space, 0.7j)
        lhs, rhs = report.lhs, report.rhs
        assert abs(lhs - rhs) / abs(rhs) < 1e-6
        closed = dh_lhs_closed(space, 0.7j)
        assert abs(lhs - closed) / abs(closed) < 1e-10


def _reference_numerators(space, c, digits):
    """prod_i e^(s_i c mu_i r_i) per pole combination, at `digits` digits:
    every exponential is recomputed where it is used."""
    out = []
    with localcontext() as ctx:
        ctx.prec = digits
        for signs in itertools.product((1, -1), repeat=space.half_dim):
            term = Decimal(1)
            for s, f in zip(signs, space.factors):
                x = Decimal(c) * Decimal(f.weight) * Decimal(f.radius)
                term *= (x if s > 0 else -x).exp()
            out.append(term)
    return out


def _reference_half_terms(f, c, digits):
    """(e^x / l, -e^(-x) / l), x = c mu r, l = mu / r, with two exps in
    Decimal at `digits` digits, for real c."""
    with localcontext() as ctx:
        ctx.prec = digits
        weight, radius = Decimal(f.weight), Decimal(f.radius)
        x, rate = Decimal(c) * weight * radius, weight / radius
        return x.exp() / rate, -(-x).exp() / rate


def _reference_prefactor(space, c):
    """(2 pi / c)^n in Decimal at the current context's precision."""
    with mpmath.workdps(250):
        pi = Decimal(mpmath.nstr(mpmath.pi, 240))
    return (2 * pi / Decimal(c)) ** space.half_dim


def _reference_pairs(space, c):
    """The pole-pair product written out per factor, with no table: each
    factor's _pole_pair, the mantissas multiplied left to right from 1 and
    the result scaled once."""
    m, e = (1.0 + 0.0j if isinstance(c, complex) else 1.0), 0
    for f in space.factors:
        (pair_m, pair_e), _ = localization._pole_pair(f, c)
        m, e = m * pair_m, e + pair_e
    if isinstance(m, complex):
        return complex(math.ldexp(m.real, e), math.ldexp(m.imag, e))
    return math.ldexp(m, e)


def _sqrt_det_rhs(space, c):
    """Oracle: the real fixed-point sum with each point's denominator
    the sqrt_det of the canonical form of its block-diagonal linearization,
    which carries the point's sign, so it divides the unsigned numerators."""
    digits = 40
    points = _reference_points(space)
    terms = _reference_numerators(space, c, digits)
    with localcontext() as ctx:
        ctx.prec = digits
        total = Decimal(0)
        for (_, _, lams), term in zip(points, terms):
            form = pfaffian.canonicalize(block_diagonal(lams))
            total += term / Decimal(form.sqrt_det)
    return (2.0 * math.pi / c) ** space.half_dim * float(total)


CACHE_SPACES = [
    SphereProductSpace.of((1.0, 2.0), (1.0, 2.0)),
    SphereProductSpace.of((0.5, 3.0), (2.0, -0.5), (0.5, 3.0)),
    SphereProductSpace.of((3.0, 0.5), (1.0, 1.0), (3.0, 0.5), (0.5, -2.0)),
]


class TestCaching:
    """Each c's per-factor work is memoized in one factor table per check;
    nothing outlives it, so no result depends on what ran before."""

    @pytest.mark.parametrize("space", CACHE_SPACES)
    @pytest.mark.parametrize("c", [1e-3, -1e-3, 0.05, -0.05, 1.3, -1.3])
    def test_rhs_matches_uncached_reference_exactly(self, space, c):
        report = dh_verify(space, c)
        assert report.rhs == _reference_pairs(space, c)
        assert dh_verify(space, c).rhs == report.rhs

    @pytest.mark.parametrize("space", CACHE_SPACES)
    def test_cold_cleared_and_warm_results_identical(self, space):
        # dh_verify starts a fresh table each call; a second check on one
        # table reads the quadratures and pole pairs the first one read
        def key(lhs, rhs, rel_err, bound):
            return repr((lhs, rhs, rel_err, bound))

        cold = dh_verify(space, 0.7)
        dh_verify(space, 0.3)  # another c's table in between
        assert dh_verify(space, 0.7) == cold
        table, indices = FactorTable(0.7, space.factors), range(space.half_dim)
        for _ in range(2):
            assert key(*table.check(indices), table.rhs_bound(indices)) == \
                key(cold.lhs, cold.rhs, cold.rel_err, cold.rhs_bound)

    @pytest.mark.parametrize("space", CACHE_SPACES)
    def test_dh_verify_enumerates_no_points(self, monkeypatch, space):
        # the check folds its own pole pairs; only the CLI's listing reads H
        reports = [dh_verify(space, c) for c in (0.3, complex(0.3, 0.2))]

        def forbidden(*args):
            raise AssertionError("dh_verify enumerated the fixed points")

        monkeypatch.setattr(localization, "enumerate_fixed_points", forbidden)
        assert [dh_verify(space, c) for c in (0.3, complex(0.3, 0.2))] == reports
        assert "fixed_points" not in localization.DHReport._fields

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
        with pytest.raises(ValueError, match="at most 16 sphere factors"):
            enumerate_fixed_points(space)
        with pytest.raises(ValueError, match="at most 16 sphere factors"):
            dh_verify(space, 0.5)
        assert len(enumerate_fixed_points(SphereProductSpace.of(*[(1.0, 1.0)] * 16))) == 2**16

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, complex(math.nan, 1.0)])
    def test_non_finite_c_rejected_before_caching(self, monkeypatch, c):
        space = CACHE_SPACES[1]
        TestSumPrecision._forbid_work(monkeypatch)
        for _ in range(2):
            with pytest.raises(ValueError, match="finite"):
                dh_verify(space, c)
            with pytest.raises(ValueError, match="finite"):
                FactorTable(c, space.factors)
            with pytest.raises(ValueError, match="finite"):
                factor_integral_quad(space.factors[0], c)

    def test_cache_keeps_argument_types_apart(self):
        f = SphereFactor(1.0, 1.0)
        assert isinstance(factor_integral_quad(f, 1.0)[0], float)
        assert isinstance(factor_integral_quad(f, 1.0 + 0.0j)[0], complex)


def _reference_integral(a):
    """integral_{-1}^{1} e^(a s) ds = 2 sinh(a) / a, and the share `kept`
    of _size_term: 1 - e^(-2|a|) for real a, |sinh a| / cosh(Re a) for
    complex a; both in mpmath at 50 digits."""
    with mpmath.workdps(50):
        x = mpmath.mpmathify(a)
        kept = (-mpmath.expm1(-2 * abs(x)) if isinstance(a, float)
                else abs(mpmath.sinh(x)) / mpmath.cosh(x.real))
        return mpmath.mpc(2 * mpmath.sinh(x) / x), float(kept)


_real_as = st.floats(1e-300, 500.0).flatmap(lambda r: st.sampled_from((r, -r)))
# |a| >= 1e-6, where the complex kept still has most of its digits
_complex_as = st.builds(cmath.rect, st.floats(1e-6, 500.0), st.floats(-math.pi, math.pi))


class TestQuadratureSizing:
    """Each factor's Gauss-Legendre node count, from the a priori error bound
    of _quad_excess at a = c mu r."""

    @settings(max_examples=150, deadline=None)
    @given(a=st.one_of(_real_as, _complex_as))
    @example(a=340.3604103578992j)
    @example(a=500.0)
    def test_count_is_the_least_and_its_error_within_the_bound(self, a):
        # factor (1, 1) at c = a: the quadrature is 2 pi integral_{-1}^{1} e^(a s) ds
        integral, kept = _reference_integral(a)
        n = localization._size_term(SphereFactor(1.0, 1.0), a)[1]
        assert n in localization.QUAD_COUNTS
        assert localization._quad_excess(n, a, kept) <= 0
        assert n == 8 or localization._quad_excess(n // 2, a, kept) > 0
        growth = math.exp(abs(a.real)) * sys.float_info.epsilon
        bound = math.exp(localization._quad_excess(n, a, kept)) * growth * kept / abs(a)
        # the rounding floor: the products a x_i each move a phase by up to
        # |a| eps, and the nodes, the exps and the dot product add a few eps
        # of sum_i |w_i e^(a x_i)| <= 2 e^|Re a|; at most 8 (1 + |a|) eps
        # e^|Re a| was seen over 9,000 random a with |a| <= 500
        floor = 32 * (1 + abs(a)) * growth
        with mpmath.workdps(50):
            error = float(abs(_quad_value(SphereFactor(1.0, 1.0), a, n)
                              - 2 * mpmath.pi * integral))
        assert error <= 2 * math.pi * (bound + floor)

    @settings(max_examples=100, deadline=None)
    @given(n=st.sampled_from(localization.QUAD_COUNTS),
           a=st.one_of(_real_as, _complex_as, st.floats(500.0, 1e300)))
    def test_excess_is_the_bound_over_its_floor(self, n, a):
        # Trefethen's bound at the closed-form rho, over eps e^|Re a| kept / |a|,
        # in mpmath: the floor tends to 2 eps as a -> 0.  |a| (rho + 1/rho) / 2
        # and |Re a| cancel up to 300 digits, so the reference carries 350.
        _, kept = _reference_integral(a) if abs(a) <= 500 else (None, 1.0)
        with mpmath.workdps(350):
            size = abs(mpmath.mpmathify(a))
            rho = (2 * n + mpmath.sqrt(4 * n**2 + size**2)) / size
            log_bound = (mpmath.log(mpmath.mpf(64) / 15) + size * (rho + 1 / rho) / 2
                         - 2 * n * mpmath.log(rho) - mpmath.log(rho**2 - 1))
            log_floor = (mpmath.log(sys.float_info.epsilon) + abs(mpmath.mpf(a.real))
                         + mpmath.log(kept) - mpmath.log(size))
            want = float(log_bound - log_floor)
        assert localization._quad_excess(n, a, kept) == pytest.approx(
            want, rel=1e-12, abs=1e-9)

    def test_subnormal_rate_times_c_needs_the_fewest_nodes(self):
        # |a| = 1e-320: rho = 4n / |a| overflows a double, its log does not
        assert localization._quad_excess(8, 1e-320, 2e-320) == -math.inf
        report = dh_verify(SphereProductSpace.of((1.0, 1e-320)), 1.0)
        assert report.quad_nodes == (8,)
        assert report.rel_err < 1e-8

    @pytest.mark.parametrize("c,nodes", [(0.1, 8), (100j, 128), (300j, 256), (700.0, 128),
                                         (1000j, 1024), (3000j, None), (1e308j, None)])
    def test_counts(self, c, nodes):
        assert localization._size_term(SphereFactor(1.0, 1.0), c)[1] == nodes

    def test_node_cap_before_any_work(self, monkeypatch):
        TestSumPrecision._forbid_work(monkeypatch)
        with pytest.raises(ValueError, match=r"^the Gauss-Legendre quadrature of the factor "
                                             r"\(r, mu\) = \(2.0, 1.5\) at c = 1000j needs more "
                                             r"than MAX_QUAD_POINTS = 1024 nodes$"):
            dh_verify(SphereProductSpace.of((1.0, 1.0), (2.0, 1.5)), 1000j)

    @pytest.mark.parametrize("pairs,c,match", [
        (((1.0, 1.0),), complex(800.0, 3000.0), "^overflow: e"),
        (((1.0, 1.0), (1e-20, 1e-20)), 3000j, "MAX_QUAD_POINTS"),
        (((1.0, 1.0),) * 17, 3000j, "at most 16 sphere factors"),
        (((1.0, 1.0),) * 17, 3.141592653589j, "at most 16 sphere factors"),
        (((1.0, 1.0),), complex(800.0, 3.1415926), "^overflow: e"),
        (((1.0, 1.0),), 1e300j, "needs more than MAX_QUAD_POINTS = 1024 nodes$"),
    ])
    def test_node_cap_after_the_other_refusals(self, pairs, c, match):
        with pytest.raises(ValueError, match=match):
            dh_verify(SphereProductSpace.of(*pairs), c)

    def test_refused_factor_refuses_the_table(self, monkeypatch):
        # a factor past the node cap refuses its table before any work,
        # though a table without it answers
        factors = [SphereFactor(1.0, 1.0), SphereFactor(1.0, 5000.0)]
        assert FactorTable(0.5j, factors[:1]).check((0,))[2] < 1e-12
        TestSumPrecision._forbid_work(monkeypatch)
        with pytest.raises(ValueError, match="MAX_QUAD_POINTS"):
            FactorTable(0.5j, factors)

    def test_table_refusals_in_order_before_any_work(self, monkeypatch):
        # the factor cap, then the overflow of a factor's e^(c mu r), then
        # the first factor past the node cap or the rounding loss; each
        # shows once the factors behind the ones before it are gone
        c = complex(1e-300, 1.0)
        good, nodes, loss, overflow = (SphereFactor(1.0, 1.0), SphereFactor(1.0, 5000.0),
                                       SphereFactor(1.0, 3.141592653589),
                                       SphereFactor(1e151, 1e152))
        what = r"^the Gauss-Legendre quadrature of the factor \(r, mu\) = "
        TestSumPrecision._forbid_work(monkeypatch)
        for factors, match in [
            ([good, nodes, loss, overflow] + [good] * 13, r"^at most 16 sphere factors .*, got 17$"),
            ([good, nodes, loss, overflow], r"^overflow: e\^\(c mu r\) exceeds the largest double"),
            ([good, nodes, loss], what + r"\(1.0, 5000.0\) .* needs more than MAX_QUAD_POINTS"),
            ([good, loss, nodes], what + r"\(1.0, 3.141592653589\) .* loses 13.2 digits"),
        ]:
            for make in (lambda: FactorTable(c, factors),
                         lambda: dh_verify(SphereProductSpace(tuple(factors)), c)):
                with pytest.raises(ValueError, match=match):
                    make()
        monkeypatch.undo()
        assert dh_verify(SphereProductSpace.of((1.0, 1.0)), c).rel_err < 1e-12

    @pytest.mark.parametrize("c,loss", [(3.141592653589j, "13.2"), (3.1415926j, "8.4"),
                                        (6.283185307j, "11.4")])
    def test_rounding_near_a_zero_of_sinh_before_any_work(self, monkeypatch, c, loss):
        TestSumPrecision._forbid_work(monkeypatch)
        with pytest.raises(ValueError, match=(
                r"^the Gauss-Legendre quadrature of the factor \(r, mu\) = \(1.0, 1.0\) at "
                rf"c = {re.escape(repr(c))} loses {loss} digits to rounding, more than "
                r"MAX_QUAD_LOSS = 7$")):
            dh_verify(SphereProductSpace.of((1.0, 1.0)), c)

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, 60), d=st.floats(1e-9, 1.0), sign=st.sampled_from((1, -1)))
    def test_rounding_near_a_zero_of_sinh_within_its_floor(self, k, d, sign):
        # a = i (pi k +- d): the loss is log10((1 + |a|) |a| / kept) against
        # mpmath, a factor past MAX_QUAD_LOSS is refused, and one within it
        # has rel_err within 2 u 10^loss, below dh-verify's default 1e-8
        a = complex(0.0, math.pi * k + sign * d)
        with mpmath.workdps(50):
            x = mpmath.mpmathify(a)
            kept = abs(mpmath.sinh(x)) / mpmath.cosh(x.real)
            want = float(mpmath.log10((1 + abs(x)) * abs(x) / kept))
        _, _, loss = localization._size_term(SphereFactor(1.0, 1.0), a)
        assert loss == pytest.approx(want, abs=1e-6)
        space = SphereProductSpace.of((1.0, 1.0))
        if loss > localization.MAX_QUAD_LOSS:
            with pytest.raises(ValueError, match="MAX_QUAD_LOSS = 7$"):
                dh_verify(space, a)
        else:
            report = dh_verify(space, a)
            assert report.rel_err <= 2 * localization.UNIT * 10**loss
            assert report.rel_err < 1e-8


def _reference_points(space):
    """The fixed points as one loop per pole combination over
    itertools.product; H is added up left to right from int 0 by hand,
    since sum() of floats is compensated from Python 3.12 on."""
    out = []
    for signs in itertools.product((1, -1), repeat=space.half_dim):
        h = 0
        for s, f in zip(signs, space.factors):
            h = h + s * (f.weight * f.radius)
        lams = tuple(s * (f.weight / f.radius) for s, f in zip(signs, space.factors))
        out.append((signs, h, lams))
    return out


_signed = st.tuples(st.floats(0.1, 4.0), st.sampled_from((1, -1))).map(lambda t: t[0] * t[1])
_spaces = st.lists(st.tuples(st.floats(0.1, 4.0), _signed), min_size=1, max_size=8).map(
    lambda pairs: SphereProductSpace.of(*pairs)
)
# magnitudes from subnormal to near the largest double, so that the
# products mu r overflow to inf, underflow to 0 and meet as nan in H (a
# SphereFactor refuses an infinite rate mu / r)
_extreme_spaces = st.lists(
    st.tuples(st.floats(5e-324, 1e300), st.floats(-1e300, 1e300).filter(bool)).filter(
        lambda p: math.isfinite(p[1] / p[0])),
    min_size=1, max_size=8,
).map(lambda pairs: SphereProductSpace.of(*pairs))
_real_cs = st.tuples(st.floats(1e-3, 3.0), st.sampled_from((1, -1))).map(lambda t: t[0] * t[1])
# small enough that the terms cancel tens of digits
_small_real_cs = st.tuples(st.floats(1e-12, 1e-6), st.sampled_from((1, -1))).map(
    lambda t: t[0] * t[1])


class TestSubsetDoubling:
    """The doubled points, and rhs, against the per-point loops."""

    @settings(max_examples=40, deadline=None)
    @given(space=st.one_of(_spaces, _extreme_spaces))
    @example(space=SphereProductSpace.of((1.0, 1e308), (1.0, 1e308)))  # H(+, +) = 2e308
    @example(space=SphereProductSpace.of((1.0, -1e308), (1.0, 1e308)))  # H(-, +) = 0
    @example(space=SphereProductSpace.of((1.0, 1e308), (1.0, 7e307)))  # every H finite
    @example(space=SphereProductSpace.of((1e300, 1e300), (1e300, 1e300)))  # inf - inf = nan
    @example(space=SphereProductSpace.of((1e-200, -1e-200), (1.0, 0.5)))  # mu r = -0.0
    def test_points_match_product_loop(self, space):
        # the plain per-point sums in itertools.product order, as floats, or
        # a refusal by name exactly when one of them is not finite
        want = [h for _, h, _ in _reference_points(space)]
        if not all(map(math.isfinite, want)):
            with pytest.raises(ValueError, match=r"^overflow: H = sum_i \|mu_i r_i\| at the "
                                                 r"fixed point s_i = sign mu_i is not a finite "
                                                 r"double, got inf$"):
                enumerate_fixed_points(space)
            return
        got = enumerate_fixed_points(space)
        assert type(got) is list and len(got) == 2**space.half_dim
        assert all(type(h) is float for h in got)
        assert repr(got) == repr(want)

    @settings(max_examples=60, deadline=None)
    @given(space=_spaces, c=_real_cs)
    def test_rhs_matches_per_point_loop(self, space, c):
        report = dh_verify(space, c)
        assert point_sums.within(report.rhs, point_sums.point_sum(space, c), report.rhs_bound)

    @pytest.mark.parametrize("c", [0.7, -1e-9, complex(0.3, 0.4)])
    def test_each_check_sized_once(self, monkeypatch, c):
        # a check is sized once, for all its factors; past the factor cap it
        # is refused before it is sized and before any work
        calls = []
        for name in ("_size_term", "_size_check"):
            original = getattr(localization, name)
            monkeypatch.setattr(localization, name,
                                lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
        factors = [(1.0, 2.0), (0.5, -1.5), (2.0, 0.25)]
        dh_verify(SphereProductSpace.of(*factors * 2), c)
        assert calls == ["_size_term"] * 6 + ["_size_check"]
        calls.clear()
        TestSumPrecision._forbid_work(monkeypatch)
        with pytest.raises(ValueError, match=r"at most 16 sphere factors .*, got 18$"):
            dh_verify(SphereProductSpace.of(*factors * 6), c)
        assert calls == ["_size_term"] * 18

    @settings(max_examples=30, deadline=None)
    @given(space=_spaces, c=st.one_of(_real_cs, st.builds(complex, _real_cs, _real_cs)))
    def test_verify_rhs_is_the_point_sum(self, space, c):
        # the rhs of dh_verify, real or complex, is the per-point sum within
        # its bound, however many digits the sum's terms cancel
        report = dh_verify(space, c)
        assert type(report.rhs) is type(c)
        assert point_sums.within(report.rhs, point_sums.point_sum(space, c), report.rhs_bound)

    @settings(max_examples=120, deadline=None)
    @given(space=_spaces, c=st.one_of(_real_cs, _small_real_cs,
                                      st.builds(complex, _real_cs, _real_cs)),
           data=st.data())
    def test_table_check_is_dh_verify_on_its_factors(self, space, c, data):
        # a table's check on a multiset of its factors, repeats allowed, is
        # dh_verify on the space of those factors in that order, bit for bit,
        # bound included, or both refuse with one message, at small real c
        # and complex c
        def outcome(make):
            try:
                return repr(make())
            except ValueError as exc:
                return str(exc)

        indices = data.draw(st.lists(st.integers(0, space.half_dim - 1), min_size=1,
                                     max_size=6), label="indices")
        table = FactorTable(c, space.factors)
        sub = SphereProductSpace(tuple(space.factors[i] for i in indices))
        assert outcome(lambda: (*table.check(indices), table.rhs_bound(indices))) == \
            outcome(lambda: tuple(dh_verify(sub, c))[:4])


class TestComplexLoss:
    """A complex sum whose terms cancel more digits than a double has is
    the product of its pole pairs, which cancels nothing: it is answered
    within its bound.  Until the sum was taken as that product, a loss of
    more than 9 digits was refused."""

    SPACE = SphereProductSpace.of(*[(1 + 0.1 * i, 0.5 + 0.07 * i) for i in range(12)])

    @pytest.mark.parametrize("c,loss,err", [(0.3j, 5.2, 1e-12), (0.2j, 7.2, 1e-10),
                                            (0.15j, 8.6, 1e-8)])
    def test_sum_within_the_budget_meets_the_closed_form(self, c, loss, err):
        assert point_sums.lost_digits(self.SPACE, c) == pytest.approx(loss, abs=0.05)
        closed = dh_lhs_closed(self.SPACE, c)
        assert abs(dh_verify(self.SPACE, c).rhs - closed) / abs(closed) < err

    @pytest.mark.parametrize("c,loss", [(0.1j, "10.7"), (0.01j, "22.7"),
                                        (complex(1e-3, 0.01), "22.7")])
    def test_deeper_cancellation_is_answered(self, c, loss):
        # as a sum of 4,096 terms in doubles, 0.1j was off by 6.7e-8 and 0.01j
        # gave rel_err 0.9998
        assert f"{point_sums.lost_digits(self.SPACE, c):.1f}" == loss
        report = dh_verify(self.SPACE, c)
        assert report.rhs_bound < 1e-13
        assert point_sums.within(report.rhs, point_sums.point_sum(self.SPACE, c),
                                 report.rhs_bound)
        assert report.rel_err < 1e-12


# radii and weights k / 16 with k <= 64: every mu r and every H is exact
_dyadic_spaces = st.lists(
    st.tuples(st.integers(1, 64), st.integers(1, 64), st.sampled_from((1, -1))),
    min_size=1, max_size=6,
).map(lambda shapes: SphereProductSpace.of(*[(i / 16, s * j / 16) for i, j, s in shapes]))
_any_magnitude = st.one_of(st.floats(1e-3, 3.0), st.floats(1e-300, 1e-3),
                           st.sampled_from((5e-324, 1e-300, 1e-150)))
_any_real_cs = st.tuples(_any_magnitude, st.sampled_from((1, -1))).map(lambda t: t[0] * t[1])


class TestFixedPointSum:
    """The product of the pole pairs against the fixed-point formula as a
    sum: the 2^n terms (2 pi / c)^n e^(c H(p)) / prod_j l_j(p) in mpmath,
    H(p) from enumerate_fixed_points, at the digits they cancel and 30 more."""

    @settings(max_examples=100, deadline=None)
    @given(space=_dyadic_spaces, c=st.one_of(_any_real_cs, st.builds(complex, _any_real_cs,
                                                                      _any_real_cs)))
    @example(space=SphereProductSpace.of((1.0, 1.0), (1.0, 1.0)), c=complex(1e-300, 1e-300))
    @example(space=SphereProductSpace.of((1.0, 1.0), (0.5, -3.0)), c=3.14159j)
    @example(space=SphereProductSpace.of(*[(4.0, 4.0)] * 6), c=-3.0)
    def test_rhs_is_the_sum_within_its_bound(self, space, c):
        h_values = enumerate_fixed_points(space)
        assert h_values == [h for _, h, _ in _reference_points(space)]
        for h, signs in zip(h_values, itertools.product((1, -1), repeat=space.half_dim)):
            assert Fraction(h) == sum(s * Fraction(f.weight) * Fraction(f.radius)
                                      for s, f in zip(signs, space.factors))
        report = dh_verify(space, c)
        assert point_sums.within(report.rhs, point_sums.point_sum(space, c, h_values),
                                 report.rhs_bound)

    @pytest.mark.parametrize("r", [0.3, 0.7, 1.7])
    def test_rounded_a_is_corrected_near_a_zero_of_sinh(self, r):
        # mu r rounds to 3.14159, so a = 3.14159i, where sinh(a) = 2.7e-6 i and
        # kappa = |a coth a - 1| = 1.2e6: uncorrected, the rounding of a moves
        # the pair by 2e-11 to 7e-11
        factor = SphereFactor(r, 3.14159 / r)
        space = SphereProductSpace((factor,))
        report = dh_verify(space, 1j)
        want = point_sums.point_sum(space, 1j)
        assert report.rhs_bound < 1e-14
        assert point_sums.within(report.rhs, want, report.rhs_bound)
        a = 1j * factor.weight * factor.radius
        assert not point_sums.within(4 * math.pi * r * r * cmath.sinh(a) / a, want, 1e-11)


class TestSumPrecision:
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
        assert dh_verify(space, c).rhs == pytest.approx(dh_lhs_closed(space, c), rel=1e-14)

    def test_sixteen_factors_at_small_c(self):
        # at 40 digits the Decimal sum of these 65,536 terms came out 24 times
        # too large
        space = SphereProductSpace.of(*[(1 + 0.1 * i, 0.5 + 0.07 * i) for i in range(16)])
        report = dh_verify(space, 0.001)
        assert report.rel_err < 1e-12

    SIXTEEN = SphereProductSpace.of(*[(1 + 0.1 * i, 0.5 + 0.07 * i) for i in range(16)])

    @pytest.mark.parametrize("c", [1e-3, 1e-9, *verify.DH_CS])
    def test_sum_within_its_bound(self, c):
        # against a 200-digit Decimal sum of the 65,536 points' terms times
        # (2 pi / c)^n; at c = 1e-9 they cancel 140 digits
        table, indices = FactorTable(c, self.SIXTEEN.factors), range(self.SIXTEEN.half_dim)
        _, rhs, _ = table.check(indices)
        bound = table.rhs_bound(indices)
        with localcontext() as ctx:
            ctx.prec = 200
            terms = [Decimal(1)]
            for f in self.SIXTEEN.factors:
                north, south = _reference_half_terms(f, c, 200)
                terms = [t * h for t in terms for h in (north, south)]
            total = Decimal(0)
            for term in terms:
                total += term
            total *= _reference_prefactor(self.SIXTEEN, c)
            assert abs(Decimal(rhs) - total) <= Decimal(bound) * abs(total)
        assert bound < 1e-13

    @staticmethod
    def _forbid_work(monkeypatch):
        def forbidden(*args):
            raise AssertionError("work ran before the check")

        monkeypatch.setattr(localization, "factor_integral_quad", forbidden)
        monkeypatch.setattr(localization, "enumerate_fixed_points", forbidden)
        monkeypatch.setattr(localization, "_pole_pair", forbidden)

    def test_former_precision_cap_is_answered(self):
        # the terms of four factors at c = 1e-300 cancel 1,200 digits: a
        # Decimal sum capped at 1,000 digits refused them
        space = SphereProductSpace.of(*[(1.0, 1.0)] * 4)
        assert point_sums.lost_digits(space, 1e-300) == pytest.approx(1200, abs=1)
        report = dh_verify(space, 1e-300)
        assert point_sums.within(report.rhs, point_sums.point_sum(space, 1e-300),
                                 report.rhs_bound)
        assert report.rel_err < 1e-14

    def test_factor_cap_before_any_work(self, monkeypatch):
        space = SphereProductSpace.of(*[(1.0, 1.0)] * 17)
        self._forbid_work(monkeypatch)
        with pytest.raises(ValueError, match=r"at most 16 sphere factors .*, got 17$"):
            dh_verify(space, 0.5)

    def test_underflowing_exponent_meets_the_integral_underflow(self):
        # mu r = 1e-400 underflows, but x = c mu r is sized in logs (620
        # digits), so the refusal is the true one: the integral 4 pi 1e-400
        # is below the doubles (before, "cancels inf digits")
        with pytest.raises(ValueError, match=r"^underflow: the Liouville integral's modulus at "
                                             r"c = 1e-200 is below the normal doubles, got 0.0$"):
            dh_verify(SphereProductSpace.of((1e-200, 1e-200)), 1e-200)

    @pytest.mark.parametrize("pairs,c,digits", [
        (((1e-150, 1e-180),), 1.0, 350),  # x = 1e-330, below the doubles
        (((1e-150, 1e-180),), 1e100, 250),  # x = 1e-230, a normal double
        (((1e-150, 1e-180), (1.0, 1.0)), 0.5, 351),
        # mu r is a normal double, x = c mu r is not
        (((1e-15, 1e-15),), 1e-300, 350),
        (((1.0, 1e-30),), 1e-300, 350),
    ])
    def test_underflowing_mu_r_is_sized_from_x(self, pairs, c, digits):
        # before, |mu r| or c mu r rounded to 0: "cancels inf digits"; the
        # terms cancel digits - 20 digits, which a Decimal sum once ran at
        with mpmath.workdps(50):
            closed = float(mpmath.fprod(
                4 * mpmath.pi * r * mpmath.sinh(mpmath.mpf(c) * mu * r) / (mpmath.mpf(c) * mu)
                for r, mu in pairs))
        space = SphereProductSpace.of(*pairs)
        report = dh_verify(space, c)
        assert math.ceil(point_sums.lost_digits(space, c)) == digits - 20
        assert point_sums.within(report.rhs, point_sums.point_sum(space, c), report.rhs_bound)
        assert report.quad_nodes[0] == 8
        assert abs(report.rhs - closed) <= 1e-15 * closed
        assert report.rel_err < 1e-14

    @pytest.mark.parametrize("pairs,c", [
        (((1e-150, 4e152), (1e-150, 4e152)), 1.0),  # sum 800, largest 400
        (((1.0, 350.0), (2.0, -2.75)), 2.0),  # sum 711, largest 700
    ])
    def test_exponent_bound_is_per_factor(self, pairs, c):
        # before, |Re c| sum |mu_i r_i| > log(max double) was refused, though
        # no step forms e^(c H) as a double
        with mpmath.workdps(50):
            closed = float(mpmath.fprod(
                4 * mpmath.pi * r * mpmath.sinh(mpmath.mpf(c) * mu * r) / (mpmath.mpf(c) * mu)
                for r, mu in pairs))
        report = dh_verify(SphereProductSpace.of(*pairs), c)
        assert abs(report.rhs - closed) <= 1e-15 * closed
        assert report.rel_err < 1e-8

    @pytest.mark.parametrize("c", [1000.0, -800.0, 1e308, complex(800.0, 1.0)])
    def test_overflow_named_before_any_work(self, monkeypatch, c):
        space = SphereProductSpace.of((1.0, 1.0))
        self._forbid_work(monkeypatch)
        with pytest.raises(ValueError, match=r"^overflow: e\^\(c mu r\) exceeds"):
            dh_verify(space, c)

    def test_largest_exponent_named_before_any_work(self, monkeypatch):
        # |c| max |mu_i r_i| = 710, one factor's exponent
        space = SphereProductSpace.of((1.0, 355.0), (2.0, -0.25))
        self._forbid_work(monkeypatch)
        with pytest.raises(ValueError, match=r"^overflow: e\^\(c mu r\) exceeds the largest "
                                             r"double, since \|Re c\| \* max \|mu_i r_i\| = 710.0 "):
            dh_verify(space, 2.0)

    def test_overflowing_product_named_once_known(self):
        # each factor's exponent 700 fits a double, their Liouville integral not
        with pytest.raises(ValueError, match=r"^overflow: the Liouville integral's modulus at "
                                             r"c = 1.0 is not a finite double, got inf$"):
            dh_verify(SphereProductSpace.of((1.0, 700.0), (1.0, 700.0)), 1.0)

    # (2 pi / c)^2 reaches the largest double at c = 2 pi / sqrt(max)
    EDGE = localization.TWO_PI / math.sqrt(sys.float_info.max)

    @pytest.mark.parametrize(
        "pairs,c",
        [
            (((1.0, 1.0), (1.0, 1.0)), 1e-300),  # the float power overflows
            (((1.0, 1.0),), 1e-310),  # 2 pi / c is already inf
            (((1.0, 1e-300),) * 2, 1e155),  # the power is 3.9e-309 (subnormal)
            (((1.0, 1e-300),) * 3, 1e110),  # and 2.4e-328 (0.0)
            (((1.0, 1.0), (1.0, 1.0)), EDGE * (1 - 1e-6)),
            (((1.0, 1.0), (1.0, 1.0)), EDGE * (1 + 1e-6)),
        ],
    )
    def test_rhs_fits_where_its_prefactor_does_not(self, pairs, c):
        # each pole pair carries its 2 pi / (c l), so no separate power (2 pi
        # / c)^n is formed: before, the first five were refused for it
        with mpmath.workdps(50):
            closed = float(mpmath.fprod(
                4 * mpmath.pi * r * mpmath.sinh(mpmath.mpf(c) * mu * r) / (mpmath.mpf(c) * mu)
                for r, mu in pairs))
        report = dh_verify(SphereProductSpace.of(*pairs), c)
        assert abs(report.rhs - closed) <= 2e-16 * closed
        assert report.rel_err < 1e-14

    @pytest.mark.parametrize("pairs,c,loss", [
        (((1.0, 1.0), (1.0, 1.0)), complex(1e-300, 1e-300), "599.7"),
        (((1.0, 1e-300), (1.0, 1e-300)), 1e200j, "200.0"),
    ])
    def test_tiny_complex_x_is_answered(self, pairs, c, loss):
        # a = c mu r is tiny, so sinh(a) / a is its series 1 + a^2 / 6, where
        # complex division raises ZeroDivisionError at a = 1e-300 + 1e-300j;
        # the terms cancel `loss` digits, which a sum in doubles refused
        space = SphereProductSpace.of(*pairs)
        assert f"{point_sums.lost_digits(space, c):.1f}" == loss
        report = dh_verify(space, c)
        assert point_sums.within(report.rhs, point_sums.point_sum(space, c), report.rhs_bound)
        assert report.rel_err < 1e-14

    @pytest.mark.parametrize("pairs,c", [(((1e10, 1e100),), 1e200j),
                                         (((1.0, 1.0), (1e10, 1e10)), complex(0.5, 1e300))])
    def test_overflowing_phase_named_before_any_work(self, monkeypatch, pairs, c):
        # x = c mu r is inf j or nan + inf j: e^x has no phase
        self._forbid_work(monkeypatch)
        with pytest.raises(ValueError, match=r"^overflow: Im\(c mu r\) = .* is not a finite double, "
                                             r"got -?inf$"):
            dh_verify(SphereProductSpace.of(*pairs), c)

    def test_liouville_integral_past_r_squared(self):
        # r^2 = 1e400 overflows and the quadratures' product does not: each
        # is carried as a frexp mantissa and exponent. Before, "overflow: the
        # Liouville integral at c = 1.0 is not a finite double"
        pairs = ((1e200, 1e-200), (1e-100, 1e100))
        with mpmath.workdps(50):
            closed = mpmath.fprod(4 * mpmath.pi * mpmath.mpf(r) * mpmath.sinh(mpmath.mpf(mu) * r)
                                  / mu for r, mu in pairs)
        space = SphereProductSpace.of(*pairs)
        report = dh_verify(space, 1.0)
        assert float(closed) == pytest.approx(2.18094229995112567e202, rel=1e-16)
        assert abs(report.lhs - closed) <= 1e-14 * closed
        assert abs(report.rhs - closed) <= 1e-15 * closed
        assert report.rel_err < 1e-10
        # the closed form, which returned inf here, meets both sides
        assert abs(dh_lhs_closed(space, 1.0) - closed) <= 1e-15 * closed
        assert report.rhs == pytest.approx(dh_lhs_closed(space, 1.0), rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(space=_spaces, c=st.one_of(_real_cs, _small_real_cs,
                                      st.builds(complex, _real_cs, _real_cs)))
    def test_lhs_is_the_product_of_the_plain_quadratures(self, space, c):
        # where every partial product is a normal double, lhs is bit for bit
        # the left-to-right product of 2 pi r r times each quadrature
        import numpy as np

        report = dh_verify(space, c)
        lhs = 1.0 + 0.0j if isinstance(c, complex) else 1.0
        for f, n in zip(space.factors, report.quad_nodes):
            x, w = localization._leggauss(n)
            vals = np.exp(np.asarray(c * f.weight * (f.radius * x)))
            total = complex(np.dot(w, vals)) if isinstance(c, complex) else float(np.dot(w, vals))
            lhs *= localization.TWO_PI * f.radius * f.radius * total
        assert repr(report.lhs) == repr(lhs)

    def test_non_finite_results_are_named(self):
        # a Liouville volume of 1.6e802
        with pytest.raises(ValueError, match=r"^overflow: the Liouville integral's modulus at "
                                             r"c = 0.001 is not a finite double, got inf$"):
            dh_verify(SphereProductSpace.of((1e200, 1e-200), (1e200, 1e-200)), 1e-3)

    @pytest.mark.parametrize("radius", [3.5e153, 3.6e153, 3.7e153])
    def test_complex_result_past_the_largest_modulus_is_named(self, radius):
        # the Liouville integral is about 1.06e308 + 1.50e308 j at 3.5e153: each
        # part is a double, its modulus is not, and abs() of it raises (before,
        # a bare "OverflowError: absolute value too large" below 3.7e153)
        with mpmath.workdps(30):
            r, mu, c = mpmath.mpf(radius), mpmath.mpf(1e-153), mpmath.mpc(0.5, 0.5)
            closed = 4 * mpmath.pi * r * mpmath.sinh(c * mu * r) / (c * mu)
        assert abs(closed) > sys.float_info.max
        with pytest.raises(ValueError, match=r"^overflow: the Liouville integral's modulus at "
                                             r"c = \(0.5\+0.5j\) is not a finite double, got inf$"):
            dh_verify(SphereProductSpace.of((radius, 1e-153)), 0.5 + 0.5j)

    def test_subnormal_result_named_before_any_term(self, monkeypatch):
        # a Liouville volume 4 pi r^2 of 1.26e-319: before, rhs 1.25666e-319
        # and lhs 1.2566e-319 differed by 4.8e-5, and rel_err, over a floor
        # of 1e-300, read 4.9e-24
        def forbidden(*args):
            raise AssertionError("a point was built before the check")

        monkeypatch.setattr(localization, "enumerate_fixed_points", forbidden)
        with pytest.raises(ValueError, match=r"^underflow: the Liouville integral's modulus at "
                                             r"c = 1.0 is below the normal doubles, got "
                                             r"1.25666e-319$"):
            dh_verify(SphereProductSpace.of((1e-160, 1e-160)), 1.0)

    @pytest.mark.parametrize("exponent,error", [
        (1100, "overflow: the fixed-point sum's modulus at c = 1.0 is not a finite double, "
               "got inf"),
        (-1100, "underflow: the fixed-point sum's modulus at c = 1.0 is below the normal "
                "doubles, got 0.0"),
    ])
    def test_non_normal_rhs_is_named(self, monkeypatch, exponent, error):
        # rhs is checked after a normal lhs: a pole pair of 2^(exponent - 1)
        monkeypatch.setattr(localization, "_pole_pair", lambda f, c: ((0.5, exponent), 11.0))
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            dh_verify(SphereProductSpace.of((1.0, 1.0)), 1.0)

    @pytest.mark.parametrize("pair,c", [((2.4e131, 4e-136), 1e6), ((1e-100, 1e100), 1e-200),
                                        ((1e-150, 1e150), 1e-300)])
    def test_rhs_fits_where_its_sum_does_not(self, pair, c):
        # the sum, (c / 2 pi)^n times the Liouville integral, overflows (1e311)
        # or underflows (1e-399, 1e-599) a double: before, the first was
        # refused and the others gave rhs 0.0
        r, mu = pair
        with mpmath.workdps(50):
            x = mpmath.mpf(c) * mu
            closed = float(4 * mpmath.pi * r * mpmath.sinh(x * r) / x)
        report = dh_verify(SphereProductSpace.of(pair), c)
        assert abs(report.rhs - closed) <= 1e-13 * closed
        assert report.rel_err < 1e-13

    def test_imaginary_c_is_not_an_overflow(self):
        report = dh_verify(SphereProductSpace.of((1.0, 1.0)), 1000j)
        assert report.rhs_bound < 1e-12
        assert report.quad_nodes == (1024,)
        assert report.rel_err < 1e-10
        # nor is its cancellation (-2x overflows to -inf j here, e^(-x) does
        # not): it is refused for its node count
        with pytest.raises(ValueError, match="MAX_QUAD_POINTS") as info:
            dh_verify(SphereProductSpace.of((1.0, 1.0)), 1e308j)
        assert not str(info.value).startswith("overflow")


def _ldexp_fold(table, indices):
    """FactorTable.check at real c written out from its steps, with _ldexp
    on both sides: (lhs, rhs, rel_err), or a ValueError naming the first
    side that is not a normal double."""
    lhs_m = rhs_m = 1.0
    lhs_e = rhs_e = 0
    for i in indices:
        quad_m, quad_e, pair_m, pair_e, _ = table.steps[i]
        lhs_m, lhs_e = lhs_m * quad_m, lhs_e + quad_e
        rhs_m, rhs_e = rhs_m * pair_m, rhs_e + pair_e
    lhs, rhs = localization._ldexp(lhs_m, lhs_e), localization._ldexp(rhs_m, rhs_e)
    for what, side in (("Liouville integral", lhs), ("fixed-point sum", rhs)):
        require_double(f"the {what}'s modulus at c = {table.c!r}", abs(side), normal=True)
    return lhs, rhs, abs(lhs - rhs) / abs(rhs)


class TestRealCFold:
    """At real c, FactorTable.check equals the _ldexp fold bit for bit
    (repr round-trips every double), refusals included: ordinary
    sides, sides about the least normal double, below it, and about the
    largest double.  A single factor's side is about 4 pi r^2 where c mu r
    is small."""

    LEAST = math.sqrt(sys.float_info.min / (4 * math.pi))  # r of a side at the least normal
    LARGEST = math.sqrt(sys.float_info.max / (4 * math.pi))  # r of a side at the largest

    @staticmethod
    def outcome(call):
        try:
            return "value", repr(call())
        except ValueError as exc:
            return "refused", str(exc)

    @pytest.mark.parametrize("c", [0.5, -1.3, 1.0, 1e-200])
    @pytest.mark.parametrize("factors,indices", [
        ([(1.0, 1.0), (2.0, -0.5), (0.5, 3.0)], (0, 1, 2)),
        ([(1.0, 1.0), (2.0, -0.5)], (1, 1, 0, 1)),
        ([(1e-100, 1e-100), (1e100, 1e-100)], (0, 1)),  # factors of about 1e-199 and 1e201
        ([(1e-100, 1e-100), (1e100, 1e-100)], (0, 0, 1)),  # about 2e-197
        ([(1e-160, 1.0)], (0,)),  # about 1e-319, subnormal
        ([(1e-100, 1.0)], (0, 0, 0, 0)),  # about 1e-796, rounds to 0
        ([(1e154, 1e-154)], (0,)),  # about 1.5e309 at c = 1
        ([(1e100, 1e-100)], (0, 0, 0, 0)),  # about 1e803
    ])
    def test_fold_is_the_ldexp_fold(self, factors, indices, c):
        table = FactorTable(c, [SphereFactor(r, mu) for r, mu in factors])
        assert self.outcome(lambda: table.check(indices)) == \
            self.outcome(lambda: _ldexp_fold(table, indices))

    @pytest.mark.parametrize("edge,weight,seen", [
        (LEAST, 1e-100, {"value", "underflow"}),
        (LARGEST, 1e-160, {"value", "overflow"}),
    ])
    def test_fold_is_the_ldexp_fold_at_the_edges(self, edge, weight, seen):
        # radii a few ulps of 2^-40 about each edge; both outcomes occur
        got = set()
        for k in range(-6, 7):
            table = FactorTable(1.0, [SphereFactor(edge * (1 + k * 2.0 ** -40), weight)])
            want = self.outcome(lambda: _ldexp_fold(table, (0,)))
            assert self.outcome(lambda: table.check((0,))) == want, k
            got.add(want[0] if want[0] == "value" else want[1].split(":")[0])
        assert got == seen


def fold_checks(factors, cs):
    """(c, indices, lhs, rhs, rel_err) of each check of FactorTable.folds on
    the factors at each c in turn, to the suite's size, a c's table built when
    the walk reaches it: each size's arrays zipped with its multisets, in
    itertools.combinations_with_replacement order."""
    for c in cs:
        for n, sides in enumerate(FactorTable(c, factors).folds(verify.DH_MAX_FACTORS), 1):
            multisets = itertools.combinations_with_replacement(range(len(factors)), n)
            for indices, *check in zip(multisets, *(side.tolist() for side in sides)):
                yield (c, indices, *check)


class TestFactorTableChecks:
    """The suite's checks (fold_checks): every multiset of up to four of the
    16 factors at each c, from one FactorTable per c."""

    FACTORS = [SphereFactor(r, mu) for r in verify.DH_VALUES for mu in verify.DH_VALUES]

    def test_every_suite_check_is_dh_verify(self):
        pairs = [(r, mu) for r in verify.DH_VALUES for mu in verify.DH_VALUES]
        plain = {}
        worst = 0.0
        for k in range(1, verify.DH_MAX_FACTORS + 1):
            for combo in itertools.combinations_with_replacement(pairs, k):
                space = SphereProductSpace.of(*combo)
                for c in verify.DH_CS:
                    report = dh_verify(space, c)
                    plain[space.factors, c] = repr((report.lhs, report.rhs, report.rel_err))
                    worst = max(worst, report.rel_err)
        walked = {}
        for c, indices, lhs, rhs, rel_err in fold_checks(self.FACTORS, verify.DH_CS):
            key = tuple(self.FACTORS[i] for i in indices), c
            assert key not in walked
            walked[key] = repr((lhs, rhs, rel_err))
        assert len(plain) == 19376
        assert walked.keys() == plain.keys()
        assert [k for k in plain if walked[k] != plain[k]] == []
        assert verify.suite_localization().rows == (verify.Row(
            "fixed-point sum = Liouville integral, rel err", 19376, worst, verify.DH_TOL),)

    def test_walk_is_pinned(self):
        # the checks' indices and c, in the walk's order, and each rhs within
        # its bound of the fixed-point sum over its 2^n points, the product of
        # its factors' one-factor point sums (each over s = +-1)
        sums = {(i, c): point_sums.point_sum(SphereProductSpace((f,)), c)
                for i, f in enumerate(self.FACTORS) for c in verify.DH_CS}
        tables = {c: FactorTable(c, self.FACTORS) for c in verify.DH_CS}
        digest, count = hashlib.sha256(), 0
        with mpmath.workdps(point_sums.SPARE_DIGITS):
            for c, indices, _, rhs, _ in fold_checks(self.FACTORS, verify.DH_CS):
                digest.update(repr((indices, c)).encode())
                want = mpmath.fprod(sums[i, c] for i in indices)
                assert point_sums.within(rhs, want, tables[c].rhs_bound(indices))
                count += 1
        assert count == 19376
        assert digest.hexdigest() == \
            "cc49d30dd5f90bf544a0931f94f5faeba7091ef4ec103a9a3b7e5c9fc17132d1"

    @settings(max_examples=60, deadline=None)
    @given(space=_spaces, c=st.one_of(_real_cs, _small_real_cs,
                                      st.builds(complex, _real_cs, _real_cs)),
           data=st.data())
    def test_rhs_is_the_product_of_the_pole_pairs(self, space, c, data):
        # each check's rhs is its pole pairs' product written out with no
        # table (_reference_pairs), for a prefix and each further index and
        # for all of them, and its bound counts their roundings and the
        # multiplies
        n = space.half_dim
        prefix = list(range(data.draw(st.integers(0, n - 1), label="prefix")))
        indices = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6),
                            label="indices")
        table = FactorTable(c, space.factors)
        for check in [prefix + [i] for i in indices] + [prefix + indices]:
            factors = tuple(space.factors[i] for i in check)
            assert table.check(check)[1] == _reference_pairs(SphereProductSpace(factors), c)
            roundings = [localization._pole_pair(f, c)[1] for f in factors]
            steps = (len(factors) - 1) * localization.STEP_ROUNDINGS[isinstance(c, complex)]
            error = (sum(roundings) + steps) * localization.UNIT
            assert table.rhs_bound(check) == pytest.approx(error / (1 - error), rel=1e-12)

    def test_suite_does_each_factors_work_once_per_c(self, monkeypatch):
        # 16 factors at 4 values of c: one quadrature and one pole pair each,
        # against one of each per check (19,376) when every check looked its
        # factor up again
        calls = {"factor_integral_quad": 0, "_pole_pair": 0}
        for name in calls:
            original = getattr(localization, name)

            def counted(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(localization, name, counted)
        assert verify.suite_localization().rows[0].checks == 19376
        assert calls["factor_integral_quad"] == 64
        assert calls["_pole_pair"] == 64

    def test_seventeenth_factor_refused_before_any_term(self, monkeypatch):
        table = FactorTable(0.5, [SphereFactor(1.0, 1.0)])
        lhs, rhs, rel_err = table.check((0,) * localization.MAX_FACTORS)
        assert rel_err < 1e-12

        def forbidden(*args):
            raise AssertionError("work ran before the factor cap")

        TestSumPrecision._forbid_work(monkeypatch)
        monkeypatch.setattr(localization, "_size_check", forbidden)
        with pytest.raises(ValueError, match=r"^at most 16 sphere factors .*, got 17$"):
            table.check((0,) * 17)
        with pytest.raises(ValueError, match=r"^at most 16 sphere factors .*, got 17$"):
            dh_verify(SphereProductSpace.of(*[(1.0, 1.0)] * 17), 0.5)

    @pytest.mark.parametrize("c", [0, math.nan])
    def test_empty_check_takes_real_nonzero_c(self, c):
        with pytest.raises(ValueError, match="c must be"):
            FactorTable(c, [SphereFactor(1.0, 1.0)])
        with pytest.raises(ValueError, match="c must be"):
            dh_verify(SphereProductSpace.of((1.0, 1.0)), c)

    def test_empty_check_takes_complex_c(self):
        # complex c is checked as real c is, in complex floats; the check on
        # no factors is 1 on both sides
        factors = [SphereFactor(1.0, 1.0), SphereFactor(2.0, -0.5)]
        table = FactorTable(0.5j, factors)
        assert repr(table.check(())) == repr((1 + 0j, 1 + 0j, 0.0))
        lhs, rhs, rel_err = table.check((0, 1))
        report = dh_verify(SphereProductSpace(tuple(factors)), 0.5j)
        assert isinstance(rhs, complex)
        assert repr((lhs, rhs, rel_err)) == repr((report.lhs, report.rhs, report.rel_err))


class TestArrayFold:
    """FactorTable.folds, the fold on NumPy arrays: on other inputs than the
    suite's, each check is FactorTable.check's bit for bit, and a refusal is
    check's on the first multiset that has one, raised without a NumPy
    warning (a RuntimeWarning would be an error here too)."""

    @staticmethod
    def walk_by_check(factors, cs):
        """(c, indices, lhs, rhs, rel_err) from FactorTable.check in the
        walk's order, then the first refusal, as ("refused", indices, exc)."""
        for c in cs:
            table = FactorTable(c, factors)
            for n in range(1, verify.DH_MAX_FACTORS + 1):
                for indices in itertools.combinations_with_replacement(range(len(factors)), n):
                    try:
                        yield (c, indices, *table.check(indices))
                    except ValueError as exc:
                        yield "refused", indices, exc
                        return

    @staticmethod
    def walk_by_folds(factors, cs):
        """fold_checks' tuples, then ("refused", exc) if it refuses: no check
        of the refused multiset's size comes before it."""
        try:
            yield from fold_checks(factors, cs)
        except ValueError as exc:
            yield "refused", exc

    @staticmethod
    def factors(values):
        return [SphereFactor(r, mu) for r in values for mu in values]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("values,cs", [
        ((0.3, 1.7, 2.9), (-1.3, 0.07, 7.0)),
        ((1e-3, 0.4, 11.0), (1e-200, -0.6)),
        ((0.5, 1.0, 2.0, 3.0), (-5.0, 15.0)),
    ])
    def test_folds_are_checks(self, values, cs):
        factors = self.factors(values)
        want = [repr(check) for check in self.walk_by_check(factors, cs)]
        got = [repr(check) for check in fold_checks(factors, cs)]
        assert len(got) == len(cs) * sum(
            math.comb(len(values) ** 2 + n - 1, n) for n in range(1, verify.DH_MAX_FACTORS + 1))
        assert got == want

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("values,cs,first,text", [
        # (0.5, 3) and (3, 3): e^(105) e^(630) past the largest double
        ((0.5, 1.0, 2.0, 3.0), (70.0,), (3, 15),
         "overflow: the Liouville integral's modulus at c = 70.0 is not a finite double"),
        # (1e-80, 1e-80) twice: (4 pi 1e-160)^2, about 1.6e-318
        ((1e-80, 1.0), (1.0,), (0, 0), "underflow: the Liouville integral's modulus"),
    ])
    def test_first_refusal_is_checks(self, values, cs, first, text):
        factors = self.factors(values)
        *want, (_, indices, refusal) = self.walk_by_check(factors, cs)
        *got, (_, exc) = self.walk_by_folds(factors, cs)
        assert indices == first and str(refusal).startswith(text)
        sizes = [len(check[1]) for check in got]
        assert sizes == sorted(sizes) and len(first) not in sizes
        assert [repr(check) for check in got] == [repr(check) for check in want[:len(got)]]
        assert (type(exc), str(exc)) == (type(refusal), str(refusal))

    def test_suite_refusal_is_checks(self, monkeypatch):
        # the suite raises the fold's refusal: check's on (0.5, 3) and (3, 3)
        monkeypatch.setattr(verify, "DH_CS", (1.0, 70.0))
        table = FactorTable(70.0, self.factors(verify.DH_VALUES))
        with pytest.raises(ValueError) as want:
            table.check((3, 15))
        with pytest.raises(ValueError) as got:
            verify.suite_localization()
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("cs", [(0.5j,), (1.0, 1 + 0.5j)])
    def test_complex_c_is_refused(self, cs):
        # NumPy's complex multiply is not Python's in the last bit
        with pytest.raises(ValueError, match=re.escape(
                f"takes real c only, got c = {cs[-1]!r}")):
            list(fold_checks(self.factors(verify.DH_VALUES), cs))

    def test_max_size_above_the_cap_is_refused_before_any_work(self):
        table = FactorTable(0.5, [SphereFactor(1.0, 1.0)])
        table.steps = None  # any work on the steps would raise a TypeError
        with pytest.raises(ValueError, match=r"^at most 16 sphere factors .*, got 17$"):
            next(table.folds(localization.MAX_FACTORS + 1))
