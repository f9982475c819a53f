"""Level-N genus pipeline: series construction, ellipticity scan, genus values."""

import cmath
import math
import random
import sys
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

import int_series as ring
from phi_product import phi_mpmath, phi_product
from locq import genus, spectral
from locq.errors import NonConvergentError, ScanInconclusiveError, ToleranceUnreachableError
from locq.genus import (
    LevelData,
    XSeries,
    characteristic_series,
    f_point,
    genus_cpm,
    lattice_periodicity_scan,
    phi_series,
)
from locq.spectral import Tau, factor_count

GENERIC_TAU = Tau(0.3 + 1.1j)


def exp_series(rate: complex, order: int) -> XSeries:
    """The series of e^(rate x), its coefficients the running products rate^k / k!."""
    coeffs, term = [1.0 + 0j], 1.0 + 0j
    for k in range(1, order + 1):
        term *= rate / k
        coeffs.append(term)
    return XSeries.from_coeffs(coeffs)


def horner(coeffs, x):
    """sum_k coeffs[k] x^k, the truncated series at a point."""
    total = 0j
    for c in reversed(coeffs):
        total = total * x + c
    return total


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

    def test_real_part_of_tau_is_kept_mod_the_level(self):
        # exact, the sign of a zero kept, and no tau with |Re tau| < N moved
        for re in (-0.0, 0.0, 0.3, -2.9, 2.5):
            got = LevelData(3, 1, 2, Tau(complex(re, 1.1))).tau.value
            assert repr(got) == repr(complex(re, 1.1))
        assert LevelData(3, 1, 2, Tau(complex(1e8 + 0.5, 1.1))).tau.value == complex(1.5, 1.1)
        assert LevelData(2, 1, 0, Tau(complex(-3.25, 1.1))).tau.value == complex(-1.25, 1.1)

    def test_f_is_invariant_under_tau_plus_level(self):
        # q depends on tau mod 1 and beta moves by 2 pi i k, a period of e^x
        for n, k, l in ((3, 1, 2), (2, 1, 0), (4, 3, 1)):
            shifted = LevelData(n, k, l, Tau(GENERIC_TAU.value + n - 0.6))
            level = LevelData(n, k, l, Tau(GENERIC_TAU.value - 0.6))
            for x in (0.31 + 0.17j, -0.23 + 0.41j):
                assert f_point(shifted, x) == pytest.approx(f_point(level, x), rel=1e-13)


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
        # Phi = (1 - e^-x) P with P even exactly when Phi(-x) = -e^x Phi(x)
        for tau in (1j, 0.5 + 1j):
            phi = phi_series(Tau(tau), 9)
            product = exp_series(1.0, 9) * phi
            tol = phi.coeff_error + product.coeff_error
            for k in range(10):
                assert abs((-1) ** k * phi.coeffs[k] + product.coeffs[k]) <= tol, k

    def test_series_matches_pointwise(self):
        tau = Tau(0.2 + 1.3j)
        phi = phi_series(tau, 14)
        points = genus._PointEvaluator(tau, 1e-12)
        for x in (0.1, 0.05 + 0.03j, -0.08j):
            assert abs(horner(phi.coeffs, x) - points.phi(x)) < 1e-10


class TestF:
    """f pointwise, and Hirzebruch's characteristic series Q = x/f of the
    level-N genus."""

    def test_constant_term_is_exactly_one(self):
        for (n, k, l) in ((2, 1, 0), (3, 2, 1), (2, 0, 1)):
            assert characteristic_series(LevelData(n, k, l, GENERIC_TAU), 4).coeffs[0] == 1

    def test_series_matches_pointwise(self):
        # k = N - 1 gives the largest |e^beta| spread, l != 0 and Re tau != 0
        # make e^beta and q genuinely complex
        for n, k, l, tau in ((2, 1, 0, 2j), (3, 2, 1, 0.3 + 1.1j), (5, 4, 2, 0.2 + 1.3j),
                             (4, 3, 3, -0.4 + 1.2j), (3, 0, 2, 0.45 + 0.8j)):
            lvl = LevelData(n, k, l, Tau(tau))
            q = characteristic_series(lvl, 12)
            for x in (0.11, 0.07 - 0.04j):
                assert abs(horner(q.coeffs, x) - x / f_point(lvl, x)) < 1e-10, (n, k, l, tau, x)

    def test_quasi_periodicity(self):
        for (n, k, l) in ((2, 1, 0), (3, 1, 2)):
            lvl = LevelData(n, k, l, GENERIC_TAU)
            x = 0.37 + 0.21j
            multiplier = cmath.exp(2j * math.pi * k / n)
            assert abs(
                f_point(lvl, x + 2j * math.pi) - multiplier * f_point(lvl, x)
            ) < 1e-8

    def test_q_to_zero_limit_is_the_a_hat_series(self):
        # level 2, (k,l) = (1,0): f degenerates to 2 sinh(x/2), and Q to
        # (x/2) / sinh(x/2)
        q = characteristic_series(LevelData(2, 1, 0, Tau(40j)), 7)
        expect = [1, 0, Fraction(-1, 24), 0, Fraction(7, 5760), 0, Fraction(-31, 967680), 0]
        for k, e in enumerate(expect):
            assert q.coeffs[k] == pytest.approx(complex(float(e)), abs=1e-12)


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

    def test_alternating_tau_matches_each_alone(self):
        # -0.0 and 0.0 compare equal as tau; nothing may be shared across scans
        levels = [LevelData(2, 1, 0, Tau(complex(-0.0, 1.0))),
                  LevelData(2, 1, 0, Tau(complex(0.0, 1.0))),
                  LevelData(3, 1, 2, GENERIC_TAU)]
        alone = [repr(lattice_periodicity_scan(lvl)) for lvl in levels]
        for _ in range(2):
            for lvl, want in zip(levels, alone):
                assert repr(lattice_periodicity_scan(lvl)) == want

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-0.5, 0.5), st.floats(0.8, 1.5), st.integers(2, 5).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n - 1), st.integers(0, n - 1))
    ).filter(lambda nkl: nkl[1] or nkl[2]))
    def test_scan_is_its_rows_times_roots_of_unity(self, re_tau, im_tau, nkl):
        n, k, l = nkl
        level = LevelData(n, k, l, Tau(complex(re_tau, im_tau)))
        calls, rows = [], []
        phi, f = genus._PointEvaluator.phi, genus._PointEvaluator.f
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(genus._PointEvaluator, "phi",
                       lambda self, x: calls.append(x) or phi(self, x))
            mp.setattr(genus._PointEvaluator, "f",
                       lambda self, lvl, z, phi_mb: rows.append((z, f(self, lvl, z, phi_mb)))
                       or rows[-1][1])
            report = lattice_periodicity_scan(level)
        # Phi(-beta), then Phi(z) and Phi(z - beta) at 3 points of each row m
        assert len(calls) <= 7 + 6 * (2 * n + 1)
        # f(x + 2 pi i (m tau + m')) = e^(2 pi i (k m' - l m) / N) f(x): the
        # periods are the kernel of that twist character, in (m, m') order
        assert list(report.periods) == [(m, mp) for m in range(-n, n + 1)
                                        for mp in range(-n, n + 1) if (k * mp - l * m) % n == 0]
        # the base row m = 0, then each row m != 0, at z = x + 2 pi i m tau;
        # translate (m, m') is the row times w^(k m' mod N).  f_point's
        # argument x + omega is rounded, by up to eps |x + omega| (< 2e-14 at
        # |x + omega| < 90), and |f'/f|, elliptic and so the same at every
        # translate, is about 4 at most at SCAN_POINTS over these tau; with
        # the q-products' roundings the two differ by at most 3.2e-14 over
        # 150 random levels
        row_points = [(m, x) for m in [0] + [m for m in range(-n, n + 1) if m]
                      for x in genus.SCAN_POINTS]
        assert [z for z, _ in rows] == [x + genus.TWO_PI_I * (m * level.tau.value) if m else x
                                        for m, x in row_points]
        roots = [cmath.exp(genus.TWO_PI_I * r / n) for r in range(n)]
        for (m, x), (_, value) in zip(row_points, rows):
            for mp in range(-n, n + 1):
                omega = genus.TWO_PI_I * (m * level.tau.value + mp)
                want = f_point(level, x + omega)
                got = roots[k * mp % n] * value
                assert abs(got - want) <= 1e-12 * abs(want), (m, mp, x)


class TestLatticeIndex:
    """The index of the sublattice of Z^2 that integer vectors generate."""

    @settings(max_examples=300, deadline=None)
    @example([])
    @example([(0, 0), (0, 0)])
    @example([(2, 4), (-3, -6)])
    @example([(0, 3), (0, 0), (2, 1)])
    @given(st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), max_size=6)
           | st.lists(st.integers(-6, 6), max_size=5).flatmap(
               lambda ts: st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(
                   lambda v: [(t * v[0], t * v[1]) for t in ts])))
    def test_index_is_the_gcd_of_the_minors(self, vectors):
        # the second strategy draws collinear sets, (0, 0) entries included;
        # the index is |det| of a basis, the gcd of all 2 x 2 minors
        minors = [x * y2 - y * x2 for i, (x, y) in enumerate(vectors)
                  for x2, y2 in vectors[i + 1:]]
        assert genus._lattice_index(vectors) == (math.gcd(*minors) or None)


class TestPointEvaluatorHoist:
    """The evaluator reads |q| and LOCQ_MAX_FACTORS once, not once per point."""

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-0.5, 0.5), st.floats(0.3, 2.0), st.complex_numbers(max_magnitude=6.0),
           st.sampled_from([1e-6, 1e-12, 1e-15]))
    def test_factor_counts_and_values_match_per_point_rule(self, re_tau, im_tau, x, q_tol):
        tau = Tau(complex(re_tau, im_tau))
        # the per-point rule, |q| and the cap read afresh
        magnitude = max(abs(cmath.exp(x)), abs(cmath.exp(-x)), 1.0)
        m = factor_count(1.0, abs(genus.q_power(tau, 1)), 1, q_tol / (8.0 * magnitude))
        counts = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(genus, "factor_count",
                       lambda *a: counts.append(factor_count(*a)) or counts[-1])
            value = genus._PointEvaluator(tau, q_tol).phi(x)
        assert counts == [m]
        # Phi as the plain truncated product at this point
        want = 1.0 - cmath.exp(-x)
        for n in range(1, m + 1):
            qn = genus.q_power(tau, n)
            want *= (1.0 - qn * cmath.exp(-x)) * (1.0 - qn * cmath.exp(x)) / (1.0 - qn) ** 2
        assert repr(value) == repr(want)

    def test_cap_read_once_per_scan(self, monkeypatch):
        reads = []
        read = spectral.factor_cap
        for module in (genus, spectral):  # every route to LOCQ_MAX_FACTORS
            monkeypatch.setattr(module, "factor_cap", lambda: reads.append(1) or read())
        lattice_periodicity_scan(LevelData(3, 1, 2, GENERIC_TAU))
        lattice_periodicity_scan(LevelData(2, 1, 0, GENERIC_TAU))
        assert len(reads) == 2

    def test_cap_set_between_scans_applies_to_the_next(self, monkeypatch):
        level = LevelData(3, 1, 2, GENERIC_TAU)
        monkeypatch.delenv("LOCQ_MAX_FACTORS", raising=False)
        first = lattice_periodicity_scan(level)
        monkeypatch.setenv("LOCQ_MAX_FACTORS", "2")
        with pytest.raises(ToleranceUnreachableError, match="more than 2 factors"):
            lattice_periodicity_scan(level)
        monkeypatch.setenv("LOCQ_MAX_FACTORS", "0")
        with pytest.raises(ValueError, match="LOCQ_MAX_FACTORS must be a positive integer"):
            lattice_periodicity_scan(level)
        monkeypatch.setenv("LOCQ_MAX_FACTORS", "1000")
        assert repr(lattice_periodicity_scan(level)) == repr(first)

    def test_non_convergent_before_the_cap(self, monkeypatch):
        # |q| rounds to 1 here; that is named even when the cap is invalid
        monkeypatch.setenv("LOCQ_MAX_FACTORS", "0")
        with pytest.raises(NonConvergentError):
            genus._PointEvaluator(Tau(complex(0.0, 1e-300)), 1e-12).phi(0.5)


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
        # (x/f)^(m+1) by two inversions: f/x = (e^(kx/N) Phi / x) (P/P(0))^-1,
        # then its inverse, cubed by plain products
        lvl = LevelData(2, 1, 1, Tau(0.1 + 1.2j))
        m = 2
        lead = genus._theta_ratio(lvl.tau, 0j, m + 1, 1e-12, 1, lvl.k / lvl.level)
        shifted = genus._theta_ratio(lvl.tau, lvl.beta, m, 1e-12, 0)
        direct = (over_x(lead) * shifted.invert()).invert()
        cubed = direct * direct * direct
        assert genus_cpm(lvl, m).value == pytest.approx(cubed.coeffs[m], rel=1e-12)


class TestExponentRefusal:
    """e^(+-beta) and e^(+-z) at every argument z of Phi the scan will
    evaluate must be normal doubles; otherwise a ValueError names the
    overflow before any product is formed."""

    @staticmethod
    def _forbid_work(monkeypatch):
        def forbidden(*args):
            raise AssertionError("a product ran before the check")

        monkeypatch.setattr(genus, "_theta_ratio", forbidden)
        monkeypatch.setattr(genus._PointEvaluator, "phi", forbidden)

    # e^beta = 0 (before, ZeroDivisionError) and subnormal (before, 10^6
    # factors and ToleranceUnreachableError)
    @pytest.mark.parametrize("im_tau", [400.0, 340.0])
    def test_beta_off_the_doubles_is_named(self, monkeypatch, im_tau):
        level = LevelData(3, 1, 0, Tau(complex(0.0, im_tau)))
        self._forbid_work(monkeypatch)
        for run in (lambda: genus_cpm(level, 3), lambda: f_point(level, 0.1),
                    lambda: lattice_periodicity_scan(level)):
            with pytest.raises(ValueError, match=r"^overflow: e\^\(\+-beta\) is not a normal "
                                                 r"double at beta = \(-[78]\d\d\.\d+\+0j\)$"):
                run()

    def test_scan_point_off_the_doubles_is_named(self, monkeypatch):
        # at m = -3, x + omega - beta has real part 775 (before, OverflowError)
        level = LevelData(3, 1, 0, Tau(37j))
        self._forbid_work(monkeypatch)
        with pytest.raises(ValueError, match=r"^overflow: e\^\(\+-z\) is not a normal double "
                                             r"at z = \(775\.\d+\+0\.17j\)$"):
            lattice_periodicity_scan(level)

    def test_point_off_the_doubles_is_named(self, monkeypatch):
        # before, a bare OverflowError: math range error from cmath.exp
        self._forbid_work(monkeypatch)
        with pytest.raises(ValueError, match=r"^overflow: e\^\(\+-x\) is not a normal double "
                                             r"at x = 800$"):
            f_point(LevelData(2, 1, 0, Tau(1j)), 800)
        # x is a normal exponent, x - beta = 500 + 100 pi is not
        with pytest.raises(ValueError, match=r"^overflow: e\^\(\+-\(x - beta\)\) is not a normal "
                                             r"double at \(x - beta\) = \(814\.\d+\+0j\)$"):
            f_point(LevelData(2, 1, 0, Tau(100j)), 500)

    def test_point_with_no_finite_value_is_named(self):
        # before, (nan+nanj) with no error
        with pytest.raises(ValueError, match=r"^overflow: f at x = 700 is not a finite double, "
                                             r"got \(nan\+nanj\)$"):
            f_point(LevelData(2, 1, 0, Tau(1j)), 700)

    def test_just_inside_the_doubles_is_answered(self):
        # |Re beta| up to -log(min normal) = 708.4: 8 max(|u|, 1/|u|) may
        # overflow there, so the tail threshold divides by each in turn
        edge = -math.log(sys.float_info.min) * 3 / (2 * math.pi)
        inside = LevelData(3, 1, 0, Tau(complex(0.0, edge * (1 - 1e-15))))
        assert genus_cpm(inside, 3).value == genus_cpm(LevelData(3, 1, 0, Tau(300j)), 3).value
        with pytest.raises(ValueError, match="overflow"):
            genus_cpm(LevelData(3, 1, 0, Tau(complex(0.0, edge * (1 + 1e-15)))), 3)
        # the scan's largest |Re z| is 0.31 + 2 pi (3 + 1/3) Im tau
        assert lattice_periodicity_scan(LevelData(3, 1, 0, Tau(33.8j))).index == 3
        with pytest.raises(ValueError, match="overflow"):
            lattice_periodicity_scan(LevelData(3, 1, 0, Tau(33.81j)))


def test_composite_level_with_common_divisor_has_reduced_index():
    # the period sublattice has index N / gcd(k, l, N); for N = 4 and
    # (k, l) = (2, 2) the true index is 2, and the scan accepts it
    report = lattice_periodicity_scan(LevelData(4, 2, 2, GENERIC_TAU), trial_bound=4)
    assert report.index == 2


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


@pytest.mark.parametrize("build", [
    lambda: phi_series(GENERIC_TAU, -1),
    lambda: genus._theta_ratio(GENERIC_TAU, 0.3j, -1, 1e-12, 0),
    lambda: characteristic_series(LevelData(2, 1, 0, GENERIC_TAU), -1),
])
def test_negative_order_rejected(build):
    with pytest.raises(ValueError, match="order must be nonnegative"):
        build()


def test_factor_cap_is_honored(monkeypatch):
    # LOCQ_MAX_FACTORS caps the theta series' pairs (j, 1 - j) times the
    # x-order plus one, the products its sums take, as it caps the factors
    # of a q-product
    tau = Tau(0.1j)
    counts = []
    pairs = genus._theta_pairs
    monkeypatch.setattr(genus, "_theta_pairs",
                        lambda *args: counts.append(pairs(*args)[0]) or pairs(*args))
    phi_series(tau, 4)
    [needed] = counts
    # the dropped pairs' majorant on |x| = 1, summed term by term: below
    # q_tol / 8 after `needed` pairs, not after one fewer
    def dropped(count):
        return sum(2 * math.exp(-math.pi * 0.1 * j * (j - 1) + j) for j in range(count + 1, 400))
    assert dropped(needed) < 1e-12 / 8 <= dropped(needed - 1)
    monkeypatch.setenv("LOCQ_MAX_FACTORS", str(5 * needed))
    assert phi_series(tau, 4).order == 4
    monkeypatch.setenv("LOCQ_MAX_FACTORS", str(5 * needed - 1))
    with pytest.raises(ToleranceUnreachableError, match=f"more than {needed - 1} theta pairs"):
        phi_series(tau, 4)
    monkeypatch.setenv("LOCQ_MAX_FACTORS", "5")
    with pytest.raises(ToleranceUnreachableError):
        f_point(LevelData(2, 1, 0, tau), 0.2)


def identity(order: int) -> XSeries:
    return XSeries.from_coeffs([1.0] + [0.0] * order)


def over_x(series: XSeries) -> XSeries:
    """series / x, for a series whose constant coefficient vanishes."""
    return XSeries(series.order - 1, series.coeffs[1:], series.coeff_error)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-0.5, 0.5),
    st.floats(0.3, 3.0),
    st.integers(0, 7),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_xseries_power_laws(re_tau, im_tau, order, a, b):
    # x/f-style unit series: Phi(x)/x has constant term exactly 1
    x = over_x(phi_series(Tau(complex(re_tau, im_tau)), order + 1))
    one = identity(order)
    inverse = x.invert()
    for lhs, rhs in ((x.int_pow(a) * x.int_pow(b), x.int_pow(a + b)), (inverse * x, one),
                     (inverse.int_pow(a) * x.int_pow(a), one), (x.int_pow(1), x)):
        tol = lhs.coeff_error + rhs.coeff_error
        assert max(abs(u - v) for u, v in zip(lhs.coeffs, rhs.coeffs)) <= tol


coefficient = st.floats(-3.0, 3.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(coefficient, coefficient), min_size=1, max_size=31),
       st.booleans())
def test_inverse_bound_covers_its_own_rounding(pairs, real):
    # an exact input: the bound is the reciprocal recurrence's rounding alone.
    # Before it read 0.0, though most inverses differ from the exact one
    coeffs = [complex(re, 0.0 if real else im) for re, im in pairs]
    if abs(coeffs[0]) < 1e-3:
        coeffs[0] = 1.0
    got = XSeries.from_coeffs(coeffs).invert()
    with mpmath.workprec(2000):
        exact = genus._reciprocal([mpmath.mpc(c) for c in coeffs])
        assert max(abs(mpmath.mpc(c) - e) for c, e in zip(got.coeffs, exact)) <= got.coeff_error


def test_power_below_one_is_refused():
    for exponent in (0, -1):
        with pytest.raises(ValueError, match=f"exponent must be positive, got {exponent}$"):
            identity(3).int_pow(exponent)


def plain_product(a, b):
    """The truncated Cauchy product as a double loop, a_i b_(k-i) added
    for i = 0..k from 0j."""
    out = []
    for k in range(len(a)):
        total = 0j
        for i in range(k + 1):
            total += a[i] * b[k - i]
        out.append(total)
    return out


_finite_complex = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_product_is_the_plain_double_loop(data):
    n = data.draw(st.integers(1, 12))
    coeffs = st.lists(_finite_complex, min_size=n, max_size=n)
    a, b = XSeries.from_coeffs(data.draw(coeffs)), XSeries.from_coeffs(data.draw(coeffs))
    got = (a * b).coeffs
    # repr round-trips each float: bit identity, signs of zero included
    assert list(map(repr, got)) == list(map(repr, plain_product(a.coeffs, b.coeffs)))


def test_product_of_mismatched_orders_is_refused():
    with pytest.raises(ValueError, match="x-series orders differ: 3 and 2"):
        identity(3) * identity(2)


def test_product_with_an_infinite_coefficient_adds_every_product():
    # inf * 0 is nan: every product is added, as in the plain loop
    a = XSeries.from_coeffs([1.0, complex(math.inf, 0.0), 0.0, 0.0])
    b = XSeries.from_coeffs([2.0, 0.0, 0.0, 0.0])
    for x, y in ((a, b), (b, a)):
        got = (x * y).coeffs
        assert list(map(repr, got)) == list(map(repr, plain_product(x.coeffs, y.coeffs)))
        assert cmath.isnan(got[2])


def test_phi_at_a_long_order_is_fast():
    # on a 2-core x86-64 machine, the q-product took 10.4 s at x-order 4000
    # adding every product; the theta series takes about 0.02 s
    start = time.process_time()
    phi = phi_series(Tau(0.1 + 0.3j), 4000)
    assert time.process_time() - start < 5.0
    assert phi.order == 4000 and not any(phi.coeffs[300:])


def test_reciprocal_round_trip():
    # exact over Fraction, the field the recurrence is generic over
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randint(1, 25)
        a = [Fraction(rng.choice([1, -1, 2, -2, 3]), rng.randint(1, 4))]
        a += [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n - 1)]
        assert ring.mul(a, genus._reciprocal(a)) == [1] + [0] * (n - 1)


# -- the genus of CP^m vanishes exactly when N | m+1 ------------------------------


def primitive_twists(n):
    return [(k, l) for k in range(n) for l in range(n)
            if (k, l) != (0, 0) and math.gcd(k, l, n) == 1]


@pytest.mark.parametrize("tau", [1.1j, 0.3 + 0.9j])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_level_n_genus_vanishes_exactly_when_level_divides_m_plus_one(n, tau):
    # Hirzebruch: the level-N genus of CP^m is 0 iff N | m+1.  Other twists
    # than (1, 0) can come within 4e-4 of zero, so the non-vanishing side
    # is checked at (1, 0) only.
    for m in range(2 * n):
        if (m + 1) % n == 0:
            for k, l in primitive_twists(n):
                g = genus_cpm(LevelData(n, k, l, Tau(tau)), m)
                assert abs(g.value) <= g.error_bound, (m, k, l)
        else:
            assert abs(genus_cpm(LevelData(n, 1, 0, Tau(tau)), m).value) > 0.05, m


# -- independent routes to Phi and to the shifted product -------------------------


def eisenstein_phi(tau: complex, order: int) -> list[complex]:
    """Phi from its Eisenstein expansion, independent of the q-product.

    log[Phi(x) / (1 - e^-x)] = -2 sum_{even k>=2} (x^k/k!) sum_{t>=1} t^(k-1) q^t/(1-q^t)
    (Zagier 1988); the exponential E of that series L comes from
    E' = L'E, i.e. n E_n = sum_k k L_k E_{n-k}, and Phi = (1 - e^-x) E.
    """
    q = cmath.exp(2j * math.pi * tau)
    log = [0j] * (order + 1)
    for k in range(2, order + 1, 2):
        total, t = 0j, 1
        while True:
            term = t ** (k - 1) * q**t / (1 - q**t)
            total += term
            if t > k and abs(term) < 1e-18 * abs(total):
                break
            t += 1
        log[k] = -2 * total / math.factorial(k)
    exp = [1 + 0j]
    for n in range(1, order + 1):
        exp.append(sum(k * log[k] * exp[n - k] for k in range(1, n + 1)) / n)
    lead = [0.0] + [-((-1) ** k) / math.factorial(k) for k in range(1, order + 1)]
    return [sum(lead[i] * exp[n - i] for i in range(n + 1)) for n in range(order + 1)]


@pytest.mark.parametrize("tau", [0.5 + 0.6j, 1.1j, -0.3 + 0.4j])
def test_phi_matches_eisenstein_expansion(tau):
    phi = phi_series(Tau(tau), 12)
    for k, want in enumerate(eisenstein_phi(tau, 12)):
        assert abs(phi.coeffs[k] - want) <= phi.coeff_error, k


@pytest.mark.parametrize("tau", [0.2 + 0.6j, -0.3 + 1.0j])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_genus_matches_contour_integral(n, tau):
    # x f(x)^-(m+1) has no pole in |x| <= 1 but x = 0, where f vanishes
    # to first order; the trapezoid sum on |x| = 1 converges geometrically
    for k, l in primitive_twists(n):
        level = LevelData(n, k, l, Tau(tau))
        for m in (1, 4, 12):
            nodes = 2 * (m + 1) + 64
            terms = [x * f_point(level, x) ** -(m + 1)
                     for x in (cmath.exp(2j * math.pi * (j + 0.5) / nodes) for j in range(nodes))]
            residue = sum(terms) / nodes
            g = genus_cpm(level, m)
            assert abs(g.value - residue) <= g.error_bound + 1e-12 * max(map(abs, terms)), \
                (k, l, m)


@pytest.mark.parametrize("tau", [0.1 + 0.3j, 0.2 + 0.5j, 0.4 + 1.0j])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_error_bound_covers_truncation(n, tau):
    # the normalized shifted theta series and Q, each against the same
    # series at q_tol = 1e-16; the bounds of both sides cover the gap
    order = 8
    for k in range(n):
        for l in range(n):
            if (k, l) == (0, 0):
                continue
            level = LevelData(n, k, l, Tau(tau))
            shifted_ref = genus._theta_ratio(level.tau, level.beta, order, 1e-16, 0)
            q_ref = characteristic_series(level, order, 1e-16)
            for q_tol in (1e-6, 1e-8, 1e-10):
                for got, ref in ((genus._theta_ratio(level.tau, level.beta, order, q_tol, 0),
                                  shifted_ref),
                                 (characteristic_series(level, order, q_tol), q_ref)):
                    gap = max(abs(a - b) for a, b in zip(got.coeffs, ref.coeffs))
                    assert gap <= got.coeff_error + ref.coeff_error, (k, l, q_tol)


# -- the theta series against the q-product, factor by factor ----------------------


def product_routes(level: LevelData, order: int, q_tol: float):
    """Phi, e^(kx/N) Phi and the normalized shifted product P(x)/P(0) from
    the q-product (tests/phi_product.py), each with its bound."""
    phi = phi_product(level.tau, 1.0, order, q_tol)
    shifted = phi_product(level.tau, cmath.exp(level.beta), order, q_tol)
    z0 = shifted.coeffs[0]
    normalized = XSeries.from_coeffs([c / z0 for c in shifted.coeffs],
                                     shifted.coeff_error / abs(z0))
    return phi, exp_series(level.k / level.level, order) * phi, normalized


@settings(max_examples=150, deadline=None)
@example(0.0, 1.0, (2, 1, 0), 0, 1e-12)
@example(0.5, 0.15, (5, 4, 3), 40, 1e-12)
@example(-0.3, 2.5, (3, 0, 2), 40, 1e-6)
@given(st.floats(-0.5, 0.5), st.floats(0.15, 3.0), st.integers(2, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n - 1), st.integers(0, n - 1))
).filter(lambda nkl: nkl[1] or nkl[2]), st.integers(0, 40), st.sampled_from([1e-6, 1e-12]))
def test_theta_series_is_the_q_product(re_tau, im_tau, nkl, order, q_tol):
    # Jacobi's triple product: e^(rate x) theta_u / its coefficient `lead`
    # and the q-product normalized the same way are one series, each within
    # its own bound
    level = LevelData(*nkl, Tau(complex(re_tau, im_tau)))
    theta = (phi_series(level.tau, order, q_tol),
             genus._theta_ratio(level.tau, 0j, order, q_tol, 1, level.k / level.level),
             genus._theta_ratio(level.tau, level.beta, order, q_tol, 0))
    for got, ref in zip(theta, product_routes(level, order, q_tol)):
        gap = max(abs(a - b) for a, b in zip(got.coeffs, ref.coeffs))
        assert gap <= got.coeff_error + ref.coeff_error


@settings(max_examples=100, deadline=None)
@example(0.0, 1.0, (2, 1, 0), 0, 1e-12)
@example(-0.3, 2.5, (3, 0, 2), 20, 1e-6)
@given(st.floats(-0.5, 0.5), st.floats(0.3, 3.0), st.integers(2, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n - 1), st.integers(0, n - 1))
).filter(lambda nkl: nkl[1] or nkl[2]), st.integers(0, 20), st.sampled_from([1e-6, 1e-12]))
def test_characteristic_series_is_the_q_product_quotient(re_tau, im_tau, nkl, order, q_tol):
    # Q = (P/P(0)) (e^(kx/N) Phi / x)^-1 with both factors from the q-product
    # and combined here; the two Q agree within the sum of their bounds
    level = LevelData(*nkl, Tau(complex(re_tau, im_tau)))
    _, lead, normalized = product_routes(level, order + 1, q_tol)
    shifted = XSeries(order, normalized.coeffs[:order + 1], normalized.coeff_error)
    want = shifted * over_x(lead).invert()
    got = characteristic_series(level, order, q_tol)
    gap = max(abs(a - b) for a, b in zip(got.coeffs, want.coeffs))
    assert gap <= got.coeff_error + want.coeff_error


@pytest.mark.parametrize("tau", [0.05j, 0.3 + 0.05j, -0.45 + 0.12j, 0.2 + 0.6j, 1.3j])
def test_phi_within_its_bound_of_a_50_digit_product(tau):
    # down to Im tau = 0.05, where theta'(0) = prod (1 - q^n)^3 is about
    # 1e-5 of its terms and the series loses that many digits to cancellation
    order = 10
    phi = phi_series(Tau(tau), order)
    want = phi_mpmath(tau, order)
    error = max(abs(complex(w) - c) for w, c in zip(want, phi.coeffs))
    assert error <= phi.coeff_error
