"""q-Pochhammer symbols and bilateral basic hypergeometric series.

Works generically over exact rationals (Fraction) and complex floats: the
same code path sums the terminating identities exactly and evaluates
convergent series numerically.  The negative-index Pochhammer symbol is
the unique extension satisfying the shift identity
    (a;q)_{m+n} = (a;q)_m * (a q^m; q)_n,
namely (a;q)_{-m} = 1 / prod_{k=1..m} (1 - a q^{-k}).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import (
    DegenerateParametersError,
    NonConvergentError,
    PochhammerZeroDivisionError,
    ToleranceUnreachableError,
)
from .spectral import factor_cap

Scalar = Fraction | complex


def _coerce(value) -> Scalar:
    """Exact inputs stay exact; anything float-like becomes complex."""
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    if isinstance(value, (float, complex)):
        return complex(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"unsupported scalar type {type(value).__name__}")


def _one_like(x: Scalar):
    return Fraction(1) if isinstance(x, Fraction) else complex(1.0)


def pochhammer(a, q, n: int):
    """Shifted factorial (a;q)_n = (1-a)(1-aq)...(1-aq^{n-1}), any integer n.

    For n < 0 the shift-identity extension is used; a vanishing factor
    there makes the symbol infinite and raises PochhammerZeroDivisionError.
    """
    a, q = _coerce(a), _coerce(q)
    one = _one_like(a * q)
    if n >= 0:
        out = one
        apow = a
        for _ in range(n):
            out *= one - apow
            apow *= q
        return out
    denom = one
    apow = a
    for _ in range(-n):
        apow /= q
        denom *= one - apow
    if denom == 0:
        raise PochhammerZeroDivisionError(
            f"(a;q)_{n} has a vanishing factor for a={a}, q={q}"
        )
    return one / denom


def pochhammer_infinite(a, q, tol: float = 1e-12, max_terms: int | None = None):
    """(a;q)_infinity as a truncated product with tail bound below tol.

    The factor count is capped by LOCQ_MAX_FACTORS (default 10**6) unless
    max_terms overrides it; a tolerance that needs more factors raises
    ToleranceUnreachable.
    """
    a, q = _coerce(a), _coerce(q)
    if abs(complex(q)) >= 1:
        raise NonConvergentError(f"(a;q)_inf requires |q| < 1, got |q|={abs(complex(q))}")
    if max_terms is None:
        max_terms = factor_cap()
    one = _one_like(a * q)
    out = one
    apow = a
    absq = abs(complex(q))
    abs_apow = abs(complex(a))
    m = 0
    while abs_apow / (1 - absq) >= tol / 2 and abs_apow != 0:
        out *= one - apow
        apow *= q
        abs_apow *= absq
        m += 1
        if m > max_terms:
            raise ToleranceUnreachableError(
                f"(a;q)_inf needed more than {max_terms} factors for tol={tol}"
            )
    return out


@dataclass(frozen=True, slots=True)
class BilateralSeriesSpec:
    """Parameters of the two-sided basic hypergeometric sum."""

    numerator_params: tuple
    denominator_params: tuple
    q: Scalar
    z: Scalar

    @classmethod
    def make(cls, numerator_params: Sequence, denominator_params: Sequence, q, z):
        return cls(
            tuple(_coerce(p) for p in numerator_params),
            tuple(_coerce(p) for p in denominator_params),
            _coerce(q),
            _coerce(z),
        )

    @property
    def r(self) -> int:
        return len(self.numerator_params)

    @property
    def s(self) -> int:
        return len(self.denominator_params)


@dataclass(slots=True)
class PsiSummary:
    """Value of a bilateral sum plus convergence diagnostics."""

    value: Scalar
    window: int
    upper_tail: float
    lower_tail: float
    upper_terminated: bool
    lower_terminated: bool
    converged: bool
    notes: list[str] = field(default_factory=list)


def _psi_term(spec: BilateralSeriesSpec, n: int):
    """Term of the bilateral series at index n, evaluated zero-safely.

    The Pochhammer ratio is accumulated factor index by factor index (all
    parameters at q^k jointly), which keeps intermediate magnitudes near
    the size of the final ratio: separate numerator/denominator products
    overflow floats for negative n even when the ratio is tame.  A
    denominator-parameter factor that vanishes (e.g. a parameter equal to
    q at negative n) yields an exact zero term; a genuinely infinite term
    raises.
    """
    one = _one_like(spec.q * spec.z)
    if n >= 0:
        top_params, bot_params = spec.numerator_params, spec.denominator_params
        qpowers = [spec.q**k for k in range(n)]
    else:
        # for n < 0 every Pochhammer flips to a reciprocal, so the roles swap
        top_params, bot_params = spec.denominator_params, spec.numerator_params
        qpowers = [spec.q ** (-k) for k in range(1, -n + 1)]
    top_zero = any(one - p * qk == 0 for qk in qpowers for p in top_params)
    bot_zero = any(one - p * qk == 0 for qk in qpowers for p in bot_params)
    if top_zero and bot_zero:
        raise DegenerateParametersError(
            f"term at n={n} is 0/0: numerator and denominator Pochhammers both vanish"
        )
    if bot_zero:
        raise PochhammerZeroDivisionError(
            f"term at n={n} is infinite: a denominator Pochhammer vanishes"
        )
    if top_zero:
        return one * 0
    ratio = one
    for qk in qpowers:
        top = one
        for p in top_params:
            top *= one - p * qk
        bot = one
        for p in bot_params:
            bot *= one - p * qk
        ratio *= top / bot
    if spec.z == 0:
        # only the n=0 term survives at z=0
        return ratio if n == 0 else one * 0
    exp_extra = (spec.s - spec.r) * n
    sign = -1 if exp_extra % 2 else 1
    qpow_exp = (spec.s - spec.r) * (n * (n - 1) // 2)
    return ratio * sign * spec.q**qpow_exp * spec.z**n


def bilateral_psi(
    spec: BilateralSeriesSpec,
    window: int | None = None,
    tol: float = 1e-12,
    max_window: int = 4096,
) -> PsiSummary:
    """Sum the bilateral series over n in [-window, window].

    With window=None the window doubles automatically until two successive
    partial sums agree to `tol` (numeric inputs) or both tails terminate
    in exact zeros (exact inputs).  The summary reports the magnitude of
    the outermost included terms on each tail; a NonConvergent note is
    attached when they fail to decay.
    """
    if window is not None:
        if window < 1:
            raise ValueError("window must always be a positive integer")
        return _psi_window(spec, window)

    prev: Scalar | None = None
    prev_tails: float | None = None
    w = 8
    while True:
        summary = _psi_window(spec, w)
        if summary.notes:
            summary.converged = False
            return summary
        if summary.upper_terminated and summary.lower_terminated:
            summary.converged = True
            return summary
        if prev is not None:
            scale = max(_magnitude(summary.value), 1.0)
            if _magnitude(summary.value - prev) <= tol * scale:
                summary.converged = True
                return summary
        tails = max(summary.upper_tail, summary.lower_tail)
        if prev_tails is not None and tails >= prev_tails:
            summary.notes.append("tail terms fail to decay; series non-convergent here")
            summary.converged = False
            return summary
        prev, prev_tails = summary.value, tails
        w *= 2
        if w > max_window:
            summary.notes.append("window cap reached before convergence")
            summary.converged = False
            return summary


def _magnitude(value) -> float:
    """|value| as a float; huge exact rationals map to inf, not an error."""
    try:
        return abs(complex(value))
    except OverflowError:
        return float("inf")


def _psi_window(spec: BilateralSeriesSpec, window: int) -> PsiSummary:
    zero = _one_like(spec.q * spec.z) * 0
    terms = {}
    overflowed = False
    for n in range(-window, window + 1):
        try:
            terms[n] = _psi_term(spec, n)
        except OverflowError:
            terms[n] = zero
            overflowed = True
    total = zero
    for n in sorted(terms, key=abs, reverse=True):
        total += terms[n]
    upper = [terms[n] for n in (window, window - 1)]
    lower = [terms[-n] for n in (window, window - 1)]
    upper_tail = max(_magnitude(t) for t in upper)
    lower_tail = max(_magnitude(t) for t in lower)
    summary = PsiSummary(
        value=total,
        window=window,
        upper_tail=upper_tail,
        lower_tail=lower_tail,
        upper_terminated=all(t == 0 for t in upper) and not overflowed,
        lower_terminated=all(t == 0 for t in lower) and not overflowed,
        converged=False,
    )
    scale = max(_magnitude(total), 1.0)
    if overflowed:
        summary.notes.append("term overflow; series non-convergent here")
    elif upper_tail > scale or lower_tail > scale:
        summary.notes.append("tail terms fail to decay; series non-convergent here")
    return summary


@dataclass(frozen=True, slots=True)
class SaalschutzResult:
    lhs: Fraction
    rhs: Fraction
    equal: bool
    window: int


def saalschutz_check(a, b, c, n: int, q) -> SaalschutzResult:
    """Exact check of the terminating q-Saalschutz summation.

    Left side: the bilateral sum with numerator parameters (a, b, q^-n)
    and denominator parameters (c, a*b*q^(1-n)/c, q) at argument z=q.  The
    trailing denominator parameter q makes every negative-index term an
    exact zero and the q^-n numerator parameter terminates the upper tail,
    so the bilateral machinery reduces to the classical finite sum
        sum_{k=0..n} [(a,b,q^-n;q)_k / ((q,c,abq^{1-n}/c;q)_k)] q^k.
    Right side: (c/a;q)_n (c/b;q)_n / ((c;q)_n (c/ab;q)_n).
    Both sides are exact rationals; the verdict is exact equality.
    """
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    a, b, c, q = Fraction(a), Fraction(b), Fraction(c), Fraction(q)
    if a == 0 or b == 0 or c == 0 or q == 0:
        raise DegenerateParametersError("parameters must be nonzero")
    spec = BilateralSeriesSpec.make(
        [a, b, q**-n], [c, a * b * q ** (1 - n) / c, q], q, q
    )
    window = n + 2
    lhs = _psi_window(spec, window).value
    denom = pochhammer(c, q, n) * pochhammer(c / (a * b), q, n)
    if denom == 0:
        raise DegenerateParametersError("closed-form denominator vanishes")
    rhs = pochhammer(c / a, q, n) * pochhammer(c / b, q, n) / denom
    return SaalschutzResult(lhs=lhs, rhs=rhs, equal=lhs == rhs, window=window)
