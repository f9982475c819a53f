"""Level-N genus pipeline: series construction, ellipticity scan, genus values."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from locq import genus, spectral
from locq.errors import NonConvergentError, ScanInconclusiveError, ToleranceUnreachableError
from locq.genus import (
    LevelData,
    XSeries,
    _exp_series,
    _phi_product,
    f_point,
    f_series,
    genus_cpm,
    lattice_periodicity_scan,
    phi_point,
    phi_series,
)
from locq.spectral import Tau, factor_count, nome

GENERIC_TAU = Tau(0.3 + 1.1j)


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
            product = _exp_series(1.0, 9) * phi
            tol = phi.coeff_error + product.coeff_error
            for k in range(10):
                assert abs((-1) ** k * phi.coeffs[k] + product.coeffs[k]) <= tol, k

    def test_series_matches_pointwise(self):
        tau = Tau(0.2 + 1.3j)
        phi = phi_series(tau, 14)
        for x in (0.1, 0.05 + 0.03j, -0.08j):
            assert abs(phi.eval(x) - phi_point(tau, x)) < 1e-10


class TestF:
    def test_first_two_coefficients_exact(self):
        for (n, k, l) in ((2, 1, 0), (3, 2, 1), (2, 0, 1)):
            f = f_series(LevelData(n, k, l, GENERIC_TAU), 4)
            assert f.coeffs[0] == 0
            assert f.coeffs[1] == 1

    def test_series_matches_pointwise(self):
        # k = N - 1 gives the largest |e^beta| spread, l != 0 and Re tau != 0
        # make e^beta and q genuinely complex
        for n, k, l, tau in ((2, 1, 0, 2j), (3, 2, 1, 0.3 + 1.1j), (5, 4, 2, 0.2 + 1.3j),
                             (4, 3, 3, -0.4 + 1.2j), (3, 0, 2, 0.45 + 0.8j)):
            lvl = LevelData(n, k, l, Tau(tau))
            f = f_series(lvl, 12)
            for x in (0.11, 0.07 - 0.04j):
                assert abs(f.eval(x) - f_point(lvl, x)) < 1e-10, (n, k, l, tau, x)

    def test_quasi_periodicity(self):
        for (n, k, l) in ((2, 1, 0), (3, 1, 2)):
            lvl = LevelData(n, k, l, GENERIC_TAU)
            x = 0.37 + 0.21j
            multiplier = cmath.exp(2j * math.pi * k / n)
            assert abs(
                f_point(lvl, x + 2j * math.pi) - multiplier * f_point(lvl, x)
            ) < 1e-8

    def test_q_to_zero_limit_is_hyperbolic_sine(self):
        # level 2, (k,l) = (1,0): f degenerates to 2 sinh(x/2)
        f = f_series(LevelData(2, 1, 0, Tau(40j)), 7)
        expect = [0, 1, 0, Fraction(1, 24), 0, Fraction(1, 1920), 0, Fraction(1, 322560)]
        for k, e in enumerate(expect):
            assert f.coeffs[k] == pytest.approx(complex(float(e)), abs=1e-12)


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

    @settings(max_examples=15, deadline=None)
    @given(st.floats(-0.5, 0.5), st.floats(0.8, 1.5), st.sampled_from(
        [(2, 1, 0), (2, 1, 1), (3, 1, 2), (3, 0, 1)]))
    def test_scanned_values_are_f_point(self, re_tau, im_tau, nkl):
        level = LevelData(*nkl, Tau(complex(re_tau, im_tau)))
        seen = []
        scan_f = genus._PointEvaluator.f

        def recording(self, lvl, x, phi_mb):
            seen.append((x, scan_f(self, lvl, x, phi_mb)))
            return seen[-1][1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(genus._PointEvaluator, "f", recording)
            try:
                lattice_periodicity_scan(level)
            except ScanInconclusiveError:
                pass
        assert len(seen) == 3 * (1 + (2 * level.level + 1) ** 2)
        for x, value in seen:
            # repr round-trips each float: bit identity, signs of zero included
            assert repr(value) == repr(f_point(level, x)), x


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
            phi_point(Tau(complex(0.0, 1e-300)), 0.5)


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
        # rebuild (x/f)^(m+1) coefficient independently with XSeries algebra
        lvl = LevelData(2, 1, 1, Tau(0.1 + 1.2j))
        m = 2
        f = f_series(lvl, m + 1)
        unit = XSeries(m, f.coeffs[1:], f.coeff_error)
        direct = unit.invert()
        cubed = direct * direct * direct
        assert genus_cpm(lvl, m).value == pytest.approx(cubed.coeffs[m], rel=1e-12)


def test_composite_level_with_common_divisor_has_reduced_index():
    # the period sublattice has index N / gcd(k, l, N); for N = 4 and
    # (k, l) = (2, 2) the true index is 2, and the scan accepts it
    report = lattice_periodicity_scan(LevelData(4, 2, 2, GENERIC_TAU), trial_bound=4)
    assert report.index == 2
    assert report.level == 4


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
    lambda: _phi_product(GENERIC_TAU, cmath.exp(0.3j), -1, 1e-12),
    lambda: f_series(LevelData(2, 1, 0, GENERIC_TAU), -1),
])
def test_negative_order_rejected(build):
    with pytest.raises(ValueError, match="order must be nonnegative"):
        build()


def test_factor_cap_is_honored(monkeypatch):
    tau = Tau(0.1j)
    needed = factor_count(1.0, abs(nome(tau)), 1, 1e-12 / 8)
    monkeypatch.setenv("LOCQ_MAX_FACTORS", str(needed))
    assert phi_series(tau, 4).order == 4
    monkeypatch.setenv("LOCQ_MAX_FACTORS", str(needed - 1))
    with pytest.raises(ToleranceUnreachableError):
        phi_series(tau, 4)
    monkeypatch.setenv("LOCQ_MAX_FACTORS", "5")
    with pytest.raises(ToleranceUnreachableError):
        f_point(LevelData(2, 1, 0, tau), 0.2)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-0.5, 0.5),
    st.floats(0.3, 3.0),
    st.integers(0, 7),
    st.integers(-4, 4),
    st.integers(-4, 4),
)
def test_xseries_power_laws(re_tau, im_tau, order, a, b):
    # x/f-style unit series: Phi(x)/x has constant term exactly 1
    x = phi_series(Tau(complex(re_tau, im_tau)), order + 1).shift_down()
    one = XSeries.one(order)
    for lhs, rhs in ((x**a * x**b, x ** (a + b)), (x**-1 * x, one)):
        tol = lhs.coeff_error + rhs.coeff_error
        assert max(abs(u - v) for u, v in zip(lhs.coeffs, rhs.coeffs)) <= tol


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
    # the normalized product at u = e^beta and f, each against the same
    # series at q_tol = 1e-16; the bounds of both sides cover the gap
    order = 8
    for k in range(n):
        for l in range(n):
            if (k, l) == (0, 0):
                continue
            level = LevelData(n, k, l, Tau(tau))
            u = cmath.exp(level.beta)
            product_ref = _phi_product(level.tau, u, order, 1e-16)
            f_ref = f_series(level, order, 1e-16)
            for q_tol in (1e-6, 1e-8, 1e-10):
                for got, ref in ((_phi_product(level.tau, u, order, q_tol), product_ref),
                                 (f_series(level, order, q_tol), f_ref)):
                    gap = max(abs(a - b) for a, b in zip(got.coeffs, ref.coeffs))
                    assert gap <= got.coeff_error + ref.coeff_error, (k, l, q_tol)
