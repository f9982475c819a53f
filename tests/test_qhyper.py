"""q-Pochhammer symbols, bilateral sums, and the terminating summation."""

import math
import random
from fractions import Fraction

import pytest

from locq import qhyper, spectral
from locq.errors import PochhammerZeroDivisionError, ToleranceUnreachableError
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
        assert abs(float(ratio - exact)) < 1e-12

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
