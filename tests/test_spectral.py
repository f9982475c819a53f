"""Spectral products: parameter map, numeric products, cross-module checks."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from locq.errors import NonConvergentError, ToleranceUnreachableError
from locq.series import IntegerProductSpec, expand_product
from locq.spectral import (
    ProductValue,
    SpectralParams,
    Tau,
    branch_shift_check,
    evaluate_product,
    factor_cap,
    factor_count,
    nome,
    q_power,
    rho,
    s_of_params,
    sigma,
)

ETA_PRODUCT_AT_I = math.exp(math.pi / 12) * math.gamma(0.25) / (2 * math.pi**0.75)


class TestTau:
    def test_upper_half_plane_enforced(self):
        with pytest.raises(ValueError):
            Tau(1.0 - 0.5j)
        with pytest.raises(ValueError):
            Tau(2.0 + 0j)

    @pytest.mark.parametrize(
        "tau,expected", [(1j, 0.0), (1 + 1j, 1.0), (0.5 + 2j, 0.25)]
    )
    def test_rho(self, tau, expected):
        assert rho(Tau(tau)) == expected

    @pytest.mark.parametrize(
        "tau,expected", [(1j, 0.5), (2j, 0.25), (1 + 0.5j, 1.0)]
    )
    def test_sigma(self, tau, expected):
        assert sigma(Tau(tau)) == expected


class TestSMap:
    def test_minus_branch_at_i(self):
        s = s_of_params(SpectralParams(1.0, 0.0, 1, "minus", Tau(1j)))
        assert s.s == 1.0 and s.branch == "minus"

    def test_plus_branch_at_i(self):
        s = s_of_params(SpectralParams(1.0, 0.0, 1, "plus", Tau(1j)))
        assert s.s == 1.0 + 0.5j

    def test_a2_eps1(self):
        s = s_of_params(SpectralParams(2.0, 1.0, 0, "minus", Tau(1j)))
        assert s.s == 0.0

    @pytest.mark.parametrize("tau,shift", [(1j, 0.5j), (2j, 0.25j), (1 + 1j, 0.5j)])
    def test_branch_shift(self, tau, shift):
        check = branch_shift_check(SpectralParams(1.0, 0.25, 2, "minus", Tau(tau)))
        assert check.passed and check.difference == shift

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.1, 3.0),
        st.complex_numbers(max_magnitude=5.0),
        st.integers(0, 4),
        st.floats(-2.0, 2.0),
        st.floats(0.3, 3.0),
    )
    def test_branch_shift_within_rounding(self, a, eps, ell, re_tau, im_tau):
        # s(plus) = s(minus) + i sigma is rounded once and the difference
        # once more, so exact float equality fails for most inputs
        check = branch_shift_check(
            SpectralParams(a, eps, ell, "minus", Tau(complex(re_tau, im_tau)))
        )
        assert check.passed

    def test_affine_in_epsilon(self):
        tau = Tau(0.3 + 0.8j)
        slope = 1 - 1j * rho(tau)
        for eps in (0.0, 1.5, 2 - 0.5j):
            s0 = s_of_params(SpectralParams(1.25, eps, 2, "minus", tau)).s
            s1 = s_of_params(SpectralParams(1.25, eps + 1, 2, "minus", tau)).s
            assert abs((s1 - s0) - slope) < 1e-14


class TestEvaluateProduct:
    def test_eta_value_at_i(self):
        result = evaluate_product(
            SpectralParams(1.0, 0.0, 1, "minus", Tau(1j)), rel_tol=1e-13
        )
        assert abs(result.value - ETA_PRODUCT_AT_I) < 1e-9
        assert isinstance(result, ProductValue)
        assert result.s.s == 1.0

    def test_far_cusp_is_one(self):
        result = evaluate_product(SpectralParams(1.0, 0.0, 1, "minus", Tau(10j)))
        assert abs(result.value - 1.0) < 1e-12

    @pytest.mark.parametrize("sign", ["minus", "plus"])
    def test_peeling_identity(self, sign):
        tau = Tau(0.2 + 0.9j)
        for ell in (1, 2, 5):
            p_low = evaluate_product(
                SpectralParams(1.5, 0.25, ell, sign, tau), rel_tol=1e-13
            ).value
            p_high = evaluate_product(
                SpectralParams(1.5, 0.25, ell + 1, sign, tau), rel_tol=1e-13
            ).value
            w = q_power(tau, 1.5 * ell + 0.25)
            factor = 1 - w if sign == "minus" else 1 + w
            assert abs(p_low - factor * p_high) < 1e-12 * abs(p_low)

    def test_matches_series_core_for_integer_parameters(self):
        for tau_value in (1j, 0.3 + 0.9j):
            tau = Tau(tau_value)
            q = nome(tau)
            for spec in (
                IntegerProductSpec(1, 0, 1, "minus"),
                IntegerProductSpec(2, 1, 0, "plus"),
                IntegerProductSpec(3, 2, 1, "minus"),
            ):
                poly = expand_product(spec, 40)
                poly_value = sum(
                    complex(c) * q**k for k, c in enumerate(poly.coefficients)
                )
                numeric = evaluate_product(
                    SpectralParams(
                        float(spec.a), complex(spec.epsilon), spec.ell, spec.sign, tau
                    ),
                    rel_tol=1e-13,
                )
                assert abs(numeric.value - poly_value) < 1e-10

    def test_complex_epsilon_reproduces_bivariate_factor(self):
        # epsilon = -i(2j+1) log(y) / (2 pi tau) turns the product into
        # prod_{n>=1} (1 + q^n y^(2j+1)): the per-factor relabeling used by
        # the generating-function rewrites
        tau = Tau(1j)
        q = nome(tau)
        for y, j in ((0.7, 0), (1.3, 1), (0.5, 2)):
            eps = -1j * (2 * j + 1) * math.log(y) / (2 * math.pi * tau.value)
            numeric = evaluate_product(
                SpectralParams(1.0, eps, 1, "plus", tau), rel_tol=1e-13
            ).value
            direct = 1.0
            for n in range(1, 40):
                direct *= 1 + (q**n).real * y ** (2 * j + 1)
            assert abs(numeric - direct) < 1e-11

    def test_factor_cap(self, monkeypatch):
        monkeypatch.setenv("LOCQ_MAX_FACTORS", "3")
        with pytest.raises(ToleranceUnreachableError):
            evaluate_product(
                SpectralParams(0.05, 0.0, 1, "minus", Tau(0.05j)), rel_tol=1e-12
            )

    @pytest.mark.parametrize("value", ["0", "-3", "2.5", "many", ""])
    def test_invalid_factor_cap_rejected(self, monkeypatch, value):
        monkeypatch.setenv("LOCQ_MAX_FACTORS", value)
        with pytest.raises(ValueError, match="LOCQ_MAX_FACTORS must be a positive integer"):
            factor_cap()

    def test_factors_used_reported(self):
        result = evaluate_product(SpectralParams(1.0, 0.0, 1, "minus", Tau(1j)))
        assert result.factors_used >= 2


# -- the one truncation rule ------------------------------------------------------


def tail_below(scale, ratio, offset, threshold, m):
    return scale * ratio ** (offset + m) / (1.0 - ratio) < threshold


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.0, 100.0),
    st.floats(0.0, 0.99),
    st.integers(0, 5),
    st.floats(1e-15, 1.0),
)
def test_factor_count_is_least_and_capped(scale, ratio, offset, threshold):
    m = factor_count(scale, ratio, offset, threshold)
    assert m >= 1 and tail_below(scale, ratio, offset, threshold, m)
    assert all(not tail_below(scale, ratio, offset, threshold, k) for k in range(1, m))
    if m > 1:
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("LOCQ_MAX_FACTORS", str(m - 1))
            with pytest.raises(ToleranceUnreachableError):
                factor_count(scale, ratio, offset, threshold)


@given(st.floats(1.0, 1e300) | st.just(math.nan))
def test_factor_count_needs_ratio_below_one(ratio):
    with pytest.raises(NonConvergentError):
        factor_count(1.0, ratio, 0, 1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.1, 3.0),
    st.complex_numbers(max_magnitude=3.0),
    st.integers(0, 4),
    st.sampled_from(["minus", "plus"]),
    st.floats(0.3, 3.0),
    st.floats(1e-14, 1e-3),
)
def test_evaluate_product_uses_factor_count(a, eps, ell, sign, im_tau, rel_tol):
    tau = Tau(complex(0.2, im_tau))
    used = evaluate_product(SpectralParams(a, eps, ell, sign, tau), rel_tol).factors_used
    scale, ratio = abs(q_power(tau, eps)), abs(q_power(tau, a))
    assert used == factor_count(scale, ratio, ell, rel_tol / 2)
