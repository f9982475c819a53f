"""q-Pochhammer symbols, bilateral sums, and the terminating summation."""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from locq import oracles, qhyper, spectral
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

    @pytest.mark.parametrize("n,first", [(200, "k = 102"), (-200, "k = 103")])
    def test_underflowed_complex_product_is_refused(self, n, first):
        with pytest.raises(ValueError, match=rf"^underflow: .* from its factor {first} on is "
                                             r"below the normal doubles, got 0j$"):
            pochhammer(0.999, 1.0, n)

    def test_underflowed_infinite_product_is_refused(self):
        with pytest.raises(ValueError, match=r"^underflow: the product \(a;q\)_inf .* "
                                             r"from its factor k = 321 on is below the normal "
                                             r"doubles, got 0j$"):
            pochhammer_infinite(0.999, 0.999)

    def test_zero_factor_is_not_an_underflow(self):
        assert pochhammer(1.0, 0.5, 3) == 0
        assert pochhammer(1j, 1j, 4) == 0  # 1 - i i^3 = 0 in Gaussian rationals
        assert pochhammer(1e-200, 1e-200, 3) == 1  # factors 1 - 1e-200 and 1 round to 1
        with pytest.raises(PochhammerZeroDivisionError):
            pochhammer(0.5, 0.5, -3)

    @pytest.mark.parametrize("a,q,n,k", [
        (0.3333333333333333, 3.0, 2, 1),  # a q = 1 - 2^-54, rounded to 1
        (20.141442121301772, 4.487921804276649, -2, 2),  # a q^-2 rounds to 1
    ])
    def test_factor_rounded_to_zero_is_an_underflow(self, a, q, n, k):
        # before: 0.0, exit 0, though the product is 3.7e-17 at n = 2
        with pytest.raises(ValueError, match=rf"^underflow: .* from its factor k = {k} on is "
                                             r"below the normal doubles, got "):
            pochhammer(a, q, n)

    def test_infinite_matches_spectral_product(self):
        q = math.exp(-2 * math.pi)
        via_poch = pochhammer_infinite(q, q, tol=1e-14)
        via_spectral = spectral.evaluate_product(
            spectral.SpectralParams(1.0, 1.0, 0, "minus", spectral.Tau(1j)),
            rel_tol=1e-14,
        )
        assert abs(complex(via_poch) - via_spectral.value) < 1e-12


def _fraction_loop(a: Fraction, q: Fraction, n: int):
    """(a;q)_n as exact symbols were computed before: one Fraction product,
    reduced at every factor.  The reference for _exact_pochhammer."""
    one = Fraction(1)
    if n >= 0:
        out = one
        apow = a
        for _ in range(n):
            out *= one - apow
            apow *= q
        return out
    if q == 0:
        raise DegenerateParametersError(f"(a;q)_{n} with n < 0 divides by q = 0")
    denom = one
    apow = a
    for _ in range(-n):
        apow /= q
        denom *= one - apow
    if denom == 0:
        raise PochhammerZeroDivisionError(f"(a;q)_{n} has a vanishing factor for a={a}, q={q}")
    return one / denom


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:  # any class: the class and message are compared
        return type(exc), str(exc)
    return type(value), value


_rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30))


@st.composite
def _pochhammer_args(draw):
    """(a, q, n) with q of either sign or 0, and a often a power q^k that
    makes a factor vanish, at n < 0 as well as n >= 0."""
    q = draw(st.one_of(_rationals, st.just(Fraction(0))))
    n = draw(st.integers(-40, 40))
    a = draw(st.one_of(_rationals,
                       st.integers(-41, 41).map(lambda k: q**k if q else Fraction(k))))
    return a, q, n


class TestExactPochhammer:
    @settings(max_examples=400, deadline=None)
    @given(args=_pochhammer_args())
    def test_same_as_the_fraction_loop(self, args):
        assert _outcome(pochhammer, *args) == _outcome(_fraction_loop, *args)

    @settings(max_examples=200, deadline=None)
    @given(q=_rationals.filter(bool), n=st.integers(-40, -1), data=st.data())
    def test_negative_n_is_one_over_the_product(self, q, n, data):
        # (a;q)_n = 1 / prod_(k=1..-n) (1 - a q^-k), here formed in Fractions;
        # a = q^k makes a factor vanish
        a = data.draw(st.one_of(_rationals, st.integers(1, 41).map(lambda k: q**k)))
        product = math.prod((1 - a / q**k for k in range(1, -n + 1)), start=Fraction(1))
        if product == 0:
            with pytest.raises(PochhammerZeroDivisionError, match="has a vanishing factor"):
                pochhammer(a, q, n)
        else:
            assert pochhammer(a, q, n) == 1 / product

    @pytest.mark.parametrize("a,q,n", [
        (Fraction(1, 3), Fraction(1, 3), -1),  # 1 - a/q = 0
        (Fraction(-8, 27), Fraction(-2, 3), -5),  # 1 - a q^-3 = 0
        (Fraction(9, 4), Fraction(-2, 3), -2),  # 1 - a q^-2 = 0, negative q
        (Fraction(1), Fraction(0), -1),
        (Fraction(0), Fraction(0), -3),
        (Fraction(5, 7), Fraction(-3, 11), -40),
        (Fraction(-5, 7), Fraction(0), 6),
        (Fraction(4), Fraction(1, 2), 5),  # 1 - a q^2 = 0 at n >= 0
        (Fraction(0), Fraction(7, 5), -4),
    ])
    def test_vanishing_factors_and_zero_q(self, a, q, n):
        got = _outcome(pochhammer, a, q, n)
        assert got == _outcome(_fraction_loop, a, q, n)
        if n < 0 and (q == 0 or a in [q**k for k in range(1, -n + 1)]):
            assert issubclass(got[0], (DegenerateParametersError, PochhammerZeroDivisionError))
        else:
            assert got[0] is Fraction


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
                want = oracles.psi_term(spec, n)
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
        term = oracles.psi_term(spec, -1)
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

    def test_overflowing_window_is_refused(self):
        # the first window with a term past a double is refused, naming that
        # term: before, it was answered with the note "term overflow; series
        # non-convergent here" and a sum that left the term out
        spec = BilateralSeriesSpec.make([1e300], [0.3], 0.5, 1e300)
        with pytest.raises(ValueError, match=r"^overflow: the upper tail's term at n = 1 is not "
                                             r"a finite double, got \(nan\+nanj\)$"):
            bilateral_psi(spec, window=None)

    def test_both_tails_terminating_is_converged(self):
        # 27 = q^-3 ends the upper tail, the denominator q the lower one
        q = Fraction(1, 3)
        spec = BilateralSeriesSpec.make([Fraction(1, 2), Fraction(27)],
                                        [q, Fraction(1, 5)], q, q)
        summary = bilateral_psi(spec, window=None)
        assert summary.window == 8
        assert summary.converged and summary.notes == ()
        assert summary.upper_terminated and summary.lower_terminated
        assert summary.value == bilateral_psi(spec, window=16).value

    def test_terminating_tail_with_growing_ratio_is_converged(self):
        # 3^12 = q^-12 ends the upper tail at n = 13, though its term ratio
        # tends to |z| = 5; the denominator parameter q ends the lower tail
        q = Fraction(1, 3)
        spec = BilateralSeriesSpec.make([q**-12], [q], q, Fraction(5))
        summary = bilateral_psi(spec)
        assert summary.converged and summary.window == 13
        assert summary.tail_bound == 0
        assert summary.value == bilateral_psi(spec, window=20).value
        assert summary.upper_terminated and summary.lower_terminated

    def test_tail_ending_at_an_explicit_window_has_terminated(self):
        # t_13 is the upper tail's first 0 term (3^12 = q^-12), t_12 is not
        q = Fraction(1, 3)
        spec = BilateralSeriesSpec.make([q**-12], [q], q, Fraction(5))
        at_end, before = bilateral_psi(spec, window=13), bilateral_psi(spec, window=12)
        assert at_end.upper_tail > 0 and at_end.tail_bound == 0
        assert at_end.upper_terminated and at_end.lower_terminated
        assert not before.upper_terminated and before.lower_terminated

    def test_ended_tail_still_meets_a_later_vanishing_denominator(self):
        # q^3 ends the lower tail at n = -3 and q^10 makes its term at n = -10
        # 0/0: however small z, the automatic window does not stop before it
        q = Fraction(1, 2)
        spec = BilateralSeriesSpec.make([q**10], [q**3], q, Fraction(1, 10**6))
        with pytest.raises(DegenerateParametersError, match="n=-10 is 0/0"):
            bilateral_psi(spec)

    def test_window_cap_reached_before_convergence(self):
        # |z| = 0.999: the upper tail decays too slowly for MAX_WINDOW terms
        spec = BilateralSeriesSpec.make([0.1], [0.5], 0.5, 0.999)
        summary = bilateral_psi(spec, window=None)
        assert summary.window == qhyper.MAX_WINDOW
        assert not summary.converged
        assert summary.notes == ("window cap reached before convergence",)

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
    """(psi_term's value, None) or (None, the error it raises)."""
    try:
        return oracles.psi_term(spec, n), None
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
        # a tail has terminated where its outermost term is 0, every later
        # term being 0 as well
        edges = [terms[0][0], terms[1][0], terms[-1][0], terms[-2][0]]
        assert summary.lower_terminated == (edges[0] == 0)
        assert summary.upper_terminated == (edges[2] == 0)
        assert summary.lower_tail == max(abs(float(t)) for t in edges[:2])
        assert summary.upper_tail == max(abs(float(t)) for t in edges[2:])


def _ratio(spec, side: int, j: int):
    """t_{j+1} / t_j (side 1) or t_{-j-1} / t_{-j} (side 0) from the terms'
    definition, (a;q)_n / (b;q)_n (-1)^((s-r)n) q^((s-r)n(n-1)/2) z^n: exact
    for Fraction inputs, else in mpmath at 30 digits; None where it is
    infinite."""
    num, den, q, z = spec
    if not isinstance(q, Fraction):
        num, den = [mpmath.mpc(p) for p in num], [mpmath.mpc(p) for p in den]
        q, z = mpmath.mpc(q), mpmath.mpc(z)
    shift = len(den) - len(num)
    if side:
        top, bot, k, power, arg = num, den, j, j * shift, z
    else:
        top, bot, k, power, arg = den, num, -j - 1, (j + 1) * shift, 1 / z
    below = math.prod((1 - p * q**k for p in bot), start=1)
    if below == 0:
        return None
    return math.prod((1 - p * q**k for p in top), start=1) / below * (-1) ** shift * q**power * arg


@st.composite
def ratio_specs(draw):
    """Specs with up to three parameters a side, zeros among them, z != 0 and
    |q| < 1 or > 1: exact, with parameters q^k whose factors vanish, or
    complex floats."""
    if draw(st.booleans()):
        q = draw(st.sampled_from([Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5),
                                  Fraction(3, 2), Fraction(-5, 2)]))
        param = st.one_of(st.just(Fraction(0)), st.integers(-4, 4).map(lambda k: q**k), SMALL)
        z = SMALL.filter(bool)
    else:
        modulus = st.one_of(st.floats(0.2, 0.9), st.floats(1.1, 3.0))
        phase = st.one_of(st.sampled_from([0.0, math.pi]), st.floats(-math.pi, math.pi))
        q = draw(st.builds(cmath.rect, modulus, phase))
        part = st.floats(-2, 2)
        param = st.one_of(st.just(0j), st.builds(complex, part, part))
        z = st.builds(complex, part, part).filter(bool)
    return BilateralSeriesSpec.make(draw(st.lists(param, max_size=3)),
                                    draw(st.lists(param, max_size=3)), q, draw(z))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(ratio_specs(), st.integers(0, 60))
def test_ratio_bound_holds_past_its_position(spec, start):
    # rho(K) bounds |t_{j+1} / t_j| at every position j >= K, and is inf
    # where a ratio past K is infinite
    with mpmath.workdps(30):
        for side, tail in enumerate(qhyper._tails(spec)):
            rho = tail.ratio.rho(start)
            for j in range(start, start + 41):
                ratio = _ratio(spec, side, j)
                if ratio is None:
                    assert rho == math.inf, (spec, side, j)
                elif rho < math.inf:
                    assert abs(ratio) <= (Fraction(rho) if isinstance(ratio, Fraction)
                                          else mpmath.mpf(rho)), (spec, side, j)


@st.composite
def closed_form_sums(draw):
    """Ramanujan's 1psi1 sum inside |b/a| < |z| < 1 or Jacobi's triple
    product (0psi1 with b = 0), real or complex, q of either sign, |q| < 1."""
    def scalar(low, high):
        size, sign = draw(st.floats(low, high)), draw(st.sampled_from([1, -1, None]))
        if sign:
            return complex(sign * size)
        return cmath.rect(size, draw(st.floats(-math.pi, math.pi)))

    q = scalar(0.05, 0.9)
    if draw(st.booleans()):
        a, z = scalar(0.1, 3.0), scalar(0.02, 0.95)
        b = a * z * scalar(0.02, 0.95)
        # away from a = q^j (j >= 1) and b = q^-j (j >= 0), where a term is infinite
        assume(all(abs(1 - a / q**j) > 0.01 and abs(1 - b * q**(j - 1)) > 0.01
                   for j in range(1, 80)))
        return BilateralSeriesSpec.make([a], [b], q, z)
    return BilateralSeriesSpec.make([], [0.0], q, scalar(0.05, 20.0))


def _closed_form(spec):
    """The sum by Ramanujan's 1psi1 formula or Jacobi's triple product, with
    mpmath's q-Pochhammer symbol at 30 digits."""
    with mpmath.workdps(30):
        q, z = mpmath.mpc(spec.q), mpmath.mpc(spec.z)

        def qp(*xs):
            return math.prod((mpmath.qp(x, q) for x in xs), start=1)

        if not spec.numerator_params:
            return complex(qp(q, z, q / z))
        a, b = mpmath.mpc(spec.numerator_params[0]), mpmath.mpc(spec.denominator_params[0])
        return complex(qp(q, b / a, a * z, q / (a * z)) / qp(b, q / a, z, b / (a * z)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(closed_form_sums())
def test_automatic_window_meets_the_closed_form(spec):
    summary = bilateral_psi(spec)
    assert summary.converged and summary.notes == ()
    # Each term of the recurrence carries about (r + s + 4) j roundings and
    # the sum w more: 8 units of 2^-52 per window position, times sum |t_n|
    # over the window, allow for the rounding that tail_bound does not cover
    # (a scan of 1,600 sets inside the regions needed at most 2.8).
    tails = qhyper._tails(spec)
    for tail in tails:
        tail.extend(summary.window)
    mass = 1 + sum(abs(t) for tail in tails for t in tail.terms[1:])
    allowance = 8 * 2.0**-52 * summary.window * mass
    assert abs(summary.value - _closed_form(spec)) <= summary.tail_bound + allowance


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(closed_form_sums(), exact_specs()))
def test_explicit_window_gets_the_automatic_verdict(spec):
    # one rule decides convergence: at the window the automatic search
    # stopped on, an explicit window gives the same summary in every field
    try:
        auto = bilateral_psi(spec)
    except (DegenerateParametersError, PochhammerZeroDivisionError):
        return
    if auto.window == qhyper.MAX_WINDOW:
        return
    assert bilateral_psi(spec, window=auto.window) == auto
