"""Spectral products: parameter map, numeric products, cross-module checks."""

import math
import sys

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from locq.errors import NonConvergentError, ToleranceUnreachableError, is_normal
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
    refuse_product,
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
        assert s_of_params(SpectralParams(1.0, 0.0, 1, "minus", Tau(1j))) == 1.0

    def test_plus_branch_at_i(self):
        assert s_of_params(SpectralParams(1.0, 0.0, 1, "plus", Tau(1j))) == 1.0 + 0.5j

    def test_a2_eps1(self):
        assert s_of_params(SpectralParams(2.0, 1.0, 0, "minus", Tau(1j))) == 0.0

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
            s0 = s_of_params(SpectralParams(1.25, eps, 2, "minus", tau))
            s1 = s_of_params(SpectralParams(1.25, eps + 1, 2, "minus", tau))
            assert abs((s1 - s0) - slope) < 1e-14


class TestEvaluateProduct:
    def test_eta_value_at_i(self):
        result = evaluate_product(
            SpectralParams(1.0, 0.0, 1, "minus", Tau(1j)), rel_tol=1e-13
        )
        assert abs(result.value - ETA_PRODUCT_AT_I) < 1e-9
        assert isinstance(result, ProductValue)

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
                    complex(c) * q**k for k, c in enumerate(poly.coeffs)
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

    def test_underflow_is_refused_unless_a_factor_is_zero(self):
        tau = Tau(complex(1e-9, 1e-3))
        with pytest.raises(ValueError, match=r"^underflow: the product prod_\(n>=0\) "
                                             r"\(1 - q\^\(a n \+ epsilon\)\) from its factor "
                                             r"n = 185 on is below the normal doubles, got 0j$"):
            evaluate_product(SpectralParams(0.1, -7.05 + 0j, 0, "minus", tau))
        # at epsilon = -7 the factor n = 70 is 0 in doubles, but 0.1 n - 7 =
        # 3.9e-16 at the double 0.1: it lost every digit, as the product did
        with pytest.raises(ValueError, match=r"^underflow: .* from its factor n = 70 on is below "
                                             r"the normal doubles, got -0j$"):
            evaluate_product(SpectralParams(0.1, -7 + 0j, 0, "minus", tau))
        # a n + epsilon = 0 exactly at n = 2: the product is 0, an answer
        assert evaluate_product(SpectralParams(1.0, -2 + 0j, 0, "minus", Tau(1j))).value == 0

    def test_refusal_scans_past_the_largest_modulus(self):
        # the first partial product is finite with a modulus past the largest
        # double, where abs() raises OverflowError
        assert is_normal(complex(1.5e308, 1.5e308)) and not is_normal(complex(1e-308, -1e-308))
        with pytest.raises(ValueError, match=r"^underflow: the product p from its factor k = 2 "
                                             r"on is below the normal doubles, got 0j$"):
            refuse_product("p", [complex(1.5e308, 1.5e308), 1e-320, 1e-320], "k", 0, None)

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


def count_by_walk(scale, ratio, offset, threshold, cap):
    """The walk from m = 1 that factor_count replaced: the least m <= cap at
    which the tail is below the threshold, or None past the cap."""
    m = 1
    while not tail_below(scale, ratio, offset, threshold, m):
        m += 1
        if m > cap:
            return None
    return m


@settings(max_examples=400, deadline=None)
@given(
    st.floats(0.0, 100.0) | st.floats(5e-324, 1e300) | st.just(-1.0),
    st.floats(0.0, 0.99) | st.floats(1e-6, 1e-2).map(lambda d: 1.0 - d)
    | st.floats(0.0, 1e-300) | st.just(5e-324),
    st.integers(0, 5),
    st.floats(1e-15, 1.0) | st.floats(5e-324, 2.2e-308) | st.floats(1e-300, 1e10)
    | st.sampled_from([0.0, -1.0]),
    st.sampled_from([1, 2, 3, 50, 3000]),
)
# the log estimate is one short (2301, the walk 2302) and one over (4, the walk 3)
@example(2.932193383815575e+109, 0.7238523986079362, 4, 4.1998564924532565e-214, 3000)
@example(1.852016210246915e+160, 1.3925921588513502e-89, 1, 2.0310903818129015e-198, 50)
def test_factor_count_matches_the_walk(scale, ratio, offset, threshold, cap):
    # ratio near 0 and near 1, subnormal thresholds and scales, and the cap
    want = count_by_walk(scale, ratio, offset, threshold, cap)
    if want is None:
        with pytest.raises(ToleranceUnreachableError,
                           match=rf"^needed more than {cap} factors for a tail below "):
            factor_count(scale, ratio, offset, threshold, cap)
    else:
        assert factor_count(scale, ratio, offset, threshold, cap) == want


class CountedRatio(float):
    """A float whose powers are counted."""

    powers = 0

    def __pow__(self, exponent):
        CountedRatio.powers += 1
        return float(self) ** exponent


@pytest.mark.parametrize("ratio,threshold,powers", [
    (math.exp(-2 * math.pi * 1e-7), 5e-13, 2),  # spectral-eval --a 1 --tau 0,1e-7
    (0.5, 0.0, 1),  # no m meets a threshold of 0
    (0.3, 1e-300, 4),  # m = 573: at 1, at the cap, at 573 and at 572
])
def test_factor_count_takes_a_few_powers(ratio, threshold, powers):
    # the walk took one power per m: 10^6 before the refusal in the first row
    CountedRatio.powers = 0
    try:
        factor_count(1.0, CountedRatio(ratio), 1, threshold)
    except ToleranceUnreachableError as exc:
        assert str(exc) == f"needed more than 1000000 factors for a tail below {threshold}"
    assert CountedRatio.powers == powers


@given(st.floats(1.0, 1e300) | st.just(math.nan))
def test_factor_count_needs_ratio_below_one(ratio):
    with pytest.raises(NonConvergentError):
        factor_count(1.0, ratio, 0, 1e-12)


@given(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(0.0, 0.99),
    st.integers(0, 5),
    st.floats(1e-15, 1.0),
)
def test_factor_count_needs_finite_scale(scale, ratio, offset, threshold):
    # rejected before the loop: a cap of one factor would otherwise raise
    # ToleranceUnreachable after the first step
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("LOCQ_MAX_FACTORS", "1")
        with pytest.raises(ValueError, match=f"finite scale, got {scale}$"):
            factor_count(scale, ratio, offset, threshold)


def product_50(p: SpectralParams, factors: int):
    """The first `factors` factors of the product, multiplied in 50 digits
    from the input doubles; 1 - e^w is -expm1(w), which keeps its digits
    at any small w."""
    with mpmath.workdps(50):
        z = 2j * mpmath.pi * mpmath.mpc(p.tau.value)
        a, eps = mpmath.mpf(p.a), mpmath.mpc(p.epsilon)
        return mpmath.fprod(-mpmath.expm1(w) if p.sign == "minus" else 1 + mpmath.exp(w)
                            for w in (z * (a * n + eps) for n in range(p.ell, p.ell + factors)))


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.1, 3.0),
    st.complex_numbers(max_magnitude=3.0),
    st.integers(0, 4),
    st.sampled_from(["minus", "plus"]),
    st.floats(0.3, 3.0),
    st.floats(1e-14, 1e-3),
)
# |1 - q^epsilon| is about 2 pi |tau epsilon|: the product is 5.6e-308, a
# normal double, in the first example (1 - q^epsilon formed by subtraction
# cancels there and leaves it below the normal doubles) and 1.4e-310, an
# underflow, in the second
@example(0.25, 3.5648139593898657e-308, 0, "minus", 0.5, 1e-3)
@example(1.0, 2.225073858507e-311 + 0j, 0, "minus", 1.0, 0.000987605933414559)
def test_evaluate_product_uses_factor_count(a, eps, ell, sign, im_tau, rel_tol):
    tau = Tau(complex(0.2, im_tau))
    params = SpectralParams(a, eps, ell, sign, tau)
    scale, ratio = abs(q_power(tau, eps)), abs(q_power(tau, a))
    used = factor_count(scale, ratio, ell, rel_tol / 2)
    try:
        result = evaluate_product(params, rel_tol)
    except ValueError as exc:
        if not str(exc).startswith("underflow: "):
            raise
        assert abs(product_50(params, used)) < sys.float_info.min
        return
    assert result.factors_used == used


@pytest.mark.parametrize("a,eps,ell", [
    (0.25, 1e-17, 0),  # (9.4e-18, -1.3e-17); by subtraction (-3.0e-18, -5.0e-18)
    (0.25, 3e-16, 0),
    (0.25, -0.249999999999999, 1),  # a n + epsilon = 1e-15 at n = 1
    (0.25, 0.05, 0),  # |z| = 0.17, inside the window
])
def test_factor_near_one_keeps_its_digits(a, eps, ell):
    # 1 - q^x by subtraction loses every digit as x -> 0
    params = SpectralParams(a, complex(eps), ell, "minus", Tau(0.2 + 0.5j))
    result = evaluate_product(params)
    want = complex(product_50(params, result.factors_used + 100))
    assert abs(result.value - want) < 1e-11 * abs(want)
