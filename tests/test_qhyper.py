"""q-Pochhammer symbols, bilateral sums, and the terminating summation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from locq import qhyper, spectral
from locq.errors import (
    DegenerateParametersError,
    PochhammerZeroDivisionError,
    ToleranceUnreachableError,
)
from locq.qhyper import (
    BilateralSeriesSpec,
    bilateral_psi,
    pochhammer,
    pochhammer_infinite,
    saalschutz_check,
)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(Fraction(3, 7), Fraction(1, 2), 0) == 1

    def test_two_factors(self):
        a, q = Fraction(2), Fraction(1, 3)
        assert pochhammer(a, q, 2) == (1 - a) * (1 - a * q)

    def test_negative_index(self):
        assert pochhammer(Fraction(1, 2), Fraction(1, 3), -1) == -2

    def test_negative_index_zero_factor(self):
        # a = q makes (1 - a/q) vanish
        with pytest.raises(PochhammerZeroDivisionError):
            pochhammer(Fraction(1, 3), Fraction(1, 3), -1)

    def test_shift_identity_randomized(self):
        rng = random.Random(99)
        checked = 0
        while checked < 120:
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if a == 0:
                continue
            q = Fraction(rng.randint(1, 8), rng.randint(9, 13))
            m, n = rng.randint(-6, 6), rng.randint(-6, 6)
            try:
                lhs = pochhammer(a, q, m + n)
                rhs = pochhammer(a, q, m) * pochhammer(a * q**m, q, n)
            except PochhammerZeroDivisionError:
                continue
            assert lhs == rhs
            checked += 1

    def test_negative_index_at_zero_base(self):
        with pytest.raises(DegenerateParametersError, match="q = 0"):
            pochhammer(Fraction(1), Fraction(0), -2)
        assert pochhammer(Fraction(1, 2), Fraction(0), 2) == Fraction(1, 2)

    def test_infinite_at_zero(self):
        assert pochhammer_infinite(0, Fraction(1, 2)) == 1

    def test_infinite_factor_cap(self, monkeypatch):
        monkeypatch.setenv("LOCQ_MAX_FACTORS", "5")
        with pytest.raises(ToleranceUnreachableError):
            pochhammer_infinite(Fraction(1, 2), Fraction(1, 2))

    def test_infinite_ratio_is_finite_pochhammer(self):
        a, q, n = Fraction(1, 2), Fraction(1, 4), 3
        full = pochhammer_infinite(a, q, tol=1e-25)
        shifted = pochhammer_infinite(a * q**n, q, tol=1e-25)
        ratio = full / shifted
        exact = pochhammer(a, q, n)
        assert abs(ratio - complex(exact)) < 1e-12

    def test_infinite_matches_spectral_product(self):
        q = math.exp(-2 * math.pi)
        via_poch = pochhammer_infinite(q, q, tol=1e-14)
        via_spectral = spectral.evaluate_product(
            spectral.SpectralParams(1.0, 1.0, 0, "minus", spectral.Tau(1j)),
            rel_tol=1e-14,
        )
        assert abs(complex(via_poch) - via_spectral.value) < 1e-12


class TestBilateral:
    def test_terminating_window_stability(self):
        # numerator parameter q^-m kills all terms with n > m
        q = Fraction(1, 3)
        spec = BilateralSeriesSpec.make(
            [Fraction(2), q**-2], [Fraction(5), q], q, q
        )
        small = bilateral_psi(spec, window=4)
        large = bilateral_psi(spec, window=9)
        assert small.value == large.value
        assert large.upper_terminated and large.lower_terminated

    def test_z_zero_gives_one(self):
        spec = BilateralSeriesSpec.make([Fraction(2)], [Fraction(3)], Fraction(1, 2), 0)
        assert bilateral_psi(spec, window=5).value == 1

    def test_auto_window_numeric(self):
        # 1psi1 at numeric arguments inside the convergence ring |b/a| < |z| < 1
        spec = BilateralSeriesSpec.make([0.9 + 0j], [0.3 + 0j], 0.2 + 0j, 0.5 + 0j)
        summary = bilateral_psi(spec, window=None, tol=1e-13)
        assert summary.converged
        reference = bilateral_psi(spec, window=200).value
        assert abs(summary.value - reference) < 1e-12

    def test_numeric_terms_match_direct_product(self):
        # |q| < 1 and |q| > 1 take the two forms of the factors; zero
        # parameters drop out of the factors but not out of r and s
        rng = random.Random(31)
        for _ in range(200):
            q = rng.choice([1, -1]) * rng.choice([rng.uniform(0.2, 0.9), rng.uniform(1.2, 3.0)])

            def params():
                return [0.0 if rng.random() < 0.25 else rng.uniform(-2, 2)
                        for _ in range(rng.randint(0, 3))]

            spec = BilateralSeriesSpec.make(params(), params(), q, rng.uniform(-2, 2))
            lower, upper = qhyper._tails(spec)
            lower.extend(12)
            upper.extend(12)
            for n in range(-12, 13):
                got = (upper if n >= 0 else lower).terms[abs(n)]
                want = qhyper._psi_term(spec, n)
                assert abs(got - want) <= 1e-10 * abs(want), (spec, n)

    def test_literal_reading_has_nonzero_negative_terms(self):
        # without the extra denominator parameter q, the n = -1 term of the
        # terminating-sum parameter set is nonzero, so the two-sided sum
        # does not collapse to the classical finite sum
        q = Fraction(1, 2)
        spec = BilateralSeriesSpec.make(
            [Fraction(2), Fraction(3), q**-1],
            [Fraction(5), Fraction(2) * 3 * q**0 / 5],
            q,
            q,
        )
        term = qhyper._psi_term(spec, -1)
        assert term == Fraction(28, 25)


class TestSaalschutz:
    def test_n_zero(self):
        result = saalschutz_check(Fraction(2), Fraction(3), Fraction(5), 0, Fraction(1, 2))
        assert result.lhs == result.rhs == 1

    def test_spec_instance(self):
        result = saalschutz_check(Fraction(2), Fraction(3), Fraction(5), 1, Fraction(1, 2))
        assert result.equal
        assert result.lhs == Fraction(-3, 2)

    def test_larger_instance(self):
        result = saalschutz_check(
            Fraction(1, 7), Fraction(2, 7), Fraction(3, 7), 3, Fraction(1, 3)
        )
        assert result.equal

    def test_frozen_nontrivial_value(self):
        # value computed independently by direct Pochhammer products
        result = saalschutz_check(
            Fraction(3, 2), Fraction(-2), Fraction(7, 3), 4, Fraction(2, 5)
        )
        assert result.equal
        assert result.lhs == Fraction(6785056692895, 1537794347584)

    def test_randomized_exact(self):
        rng = random.Random(4242)
        passed = 0
        while passed < 50:
            n = rng.randint(0, 6)
            a = Fraction(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 9))
            b = Fraction(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 9))
            c = Fraction(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 9))
            q = Fraction(rng.randint(1, 8), rng.randint(9, 12))
            try:
                result = saalschutz_check(a, b, c, n, q)
            except Exception:
                continue
            assert result.equal, (a, b, c, n, q)
            passed += 1


class TestConvergenceDiagnostics:
    def test_divergent_numeric_flagged(self):
        spec = BilateralSeriesSpec.make([0.9 + 0j], [0.3 + 0j], 0.2 + 0j, 3.0 + 0j)
        summary = bilateral_psi(spec, window=None)
        assert not summary.converged
        assert any("non-convergent" in note for note in summary.notes)

    def test_divergent_exact_flagged_without_blowup(self):
        spec = BilateralSeriesSpec.make(
            [Fraction(9, 10)], [Fraction(3, 10)], Fraction(1, 5), Fraction(2)
        )
        summary = bilateral_psi(spec, window=None)
        assert not summary.converged
        assert summary.window <= 64

    def test_convergent_exact_auto_matches_numeric(self):
        exact = BilateralSeriesSpec.make(
            [Fraction(9, 10)], [Fraction(3, 10)], Fraction(1, 5), Fraction(1, 2)
        )
        numeric = BilateralSeriesSpec.make([0.9 + 0j], [0.3 + 0j], 0.2 + 0j, 0.5 + 0j)
        v_exact = bilateral_psi(exact, window=None).value
        v_numeric = bilateral_psi(numeric, window=None).value
        assert abs(float(v_exact) - v_numeric.real) < 1e-10


SMALL = st.fractions(-3, 3, max_denominator=7)


@st.composite
def exact_specs(draw):
    """Exact specs with up to three parameters a side; parameters equal to
    q^k (|k| <= 4) make terms vanish or blow up on either tail."""
    q = draw(st.sampled_from([Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5),
                              Fraction(3, 2), Fraction(-1), Fraction(1)]))
    param = st.one_of(st.integers(-4, 4).map(lambda k: q**k), SMALL)
    return BilateralSeriesSpec.make(
        draw(st.lists(param, max_size=3)), draw(st.lists(param, max_size=3)), q, draw(SMALL)
    )


def _oracle(spec, n):
    """(_psi_term's value, None) or (None, the error it raises)."""
    try:
        return qhyper._psi_term(spec, n), None
    except (DegenerateParametersError, PochhammerZeroDivisionError) as exc:
        return None, exc


@settings(max_examples=300, deadline=None)
@given(exact_specs(), st.integers(-12, 12))
def test_recurrence_term_matches_direct_product(spec, n):
    lower, upper = qhyper._tails(spec)
    tail = upper if n > 0 else lower
    tail.extend(abs(n))
    want, want_error = _oracle(spec, n)
    error = tail.error(n)
    if want_error is not None or error is not None:
        assert type(error) is type(want_error) and str(error) == str(want_error)
    else:
        got = Fraction(tail.num, tail.den) if n else Fraction(1)
        assert got == want


@settings(max_examples=300, deadline=None)
@given(exact_specs(), st.integers(1, 12))
def test_window_sum_matches_direct_products(spec, window):
    terms = [_oracle(spec, n) for n in range(-window, window + 1)]
    errors = [exc for _, exc in terms if exc is not None]
    if errors:
        # the first error of a term-by-term sum from n = -window upwards
        with pytest.raises(type(errors[0])) as info:
            bilateral_psi(spec, window=window)
        assert str(info.value) == str(errors[0])
    else:
        summary = bilateral_psi(spec, window=window)
        assert summary.value == sum(sorted((t for t, _ in terms), key=abs))
        edges = [terms[0][0], terms[1][0], terms[-1][0], terms[-2][0]]
        assert summary.lower_terminated == (edges[0] == edges[1] == 0)
        assert summary.upper_terminated == (edges[2] == edges[3] == 0)
        assert summary.lower_tail == max(abs(float(t)) for t in edges[:2])
        assert summary.upper_tail == max(abs(float(t)) for t in edges[2:])
