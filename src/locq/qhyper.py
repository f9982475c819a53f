"""q-Pochhammer symbols and bilateral basic hypergeometric series.

Works over exact rationals (Fraction) and complex floats: the terminating
identities are summed exactly and convergent series numerically.  The
negative-index Pochhammer symbol is the unique extension satisfying the
shift identity
    (a;q)_{m+n} = (a;q)_m * (a q^m; q)_n,
namely (a;q)_{-m} = 1 / prod_{k=1..m} (1 - a q^{-k}).  Bilateral series are
summed tail by tail from the term-ratio recurrence (see _Tail); the direct
product _psi_term is kept as the independent oracle the tests compare to.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import DegenerateParametersError, PochhammerZeroDivisionError
from .spectral import check_tolerance, factor_count

Scalar = Fraction | complex

# Largest bilateral window, Saalschutz window (n + 2) and |n| of a finite
# Pochhammer symbol; each costs work linear in it and is checked first.
MAX_WINDOW = 4096


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
    if abs(n) > MAX_WINDOW:
        raise ValueError(f"|n| must be at most {MAX_WINDOW}, got {n}")
    a, q = _coerce(a), _coerce(q)
    one = _one_like(a * q)
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
        raise PochhammerZeroDivisionError(
            f"(a;q)_{n} has a vanishing factor for a={a}, q={q}"
        )
    return one / denom


def pochhammer_infinite(a, q, tol: float = 1e-12) -> complex:
    """(a;q)_infinity as a truncated product with tail bound below tol.

    The product stops after the m factors of spectral.factor_count with
    the tail bound sum_{k>=m} |a| |q|^k < tol / 2; it is multiplied in
    complex floats for every input, since the truncation is only
    accurate to tol anyway.
    """
    check_tolerance(tol)
    a, q = complex(_coerce(a)), complex(_coerce(q))
    m = factor_count(abs(a), abs(q), 0, tol / 2)
    out = 1 + 0j
    for _ in range(m):
        out *= 1 - a
        a *= q
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
) -> PsiSummary:
    """Sum the bilateral series over n in [-window, window].

    With window=None the window doubles automatically until two successive
    partial sums agree to `tol` (numeric inputs) or both tails terminate
    in exact zeros (exact inputs); each doubling extends the tails summed
    so far.  A window above MAX_WINDOW is rejected before any work.  The
    summary reports the magnitude of the outermost included terms on each
    tail; a NonConvergent note is attached when they fail to decay.
    """
    check_tolerance(tol)
    if window is not None:
        if window < 1:
            raise ValueError("window must always be a positive integer")
        if window > MAX_WINDOW:
            raise ValueError(f"window must be at most {MAX_WINDOW}, got {window}")
        return _psi_window(_tails(spec), window)

    tails = _tails(spec)
    prev: Scalar | None = None
    prev_edge: float | None = None
    w = 8
    while True:
        summary = _psi_window(tails, w)
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
        edge = max(summary.upper_tail, summary.lower_tail)
        if prev_edge is not None and edge >= prev_edge:
            summary.notes.append("tail terms fail to decay; series non-convergent here")
            summary.converged = False
            return summary
        prev, prev_edge = summary.value, edge
        w *= 2
        if w > MAX_WINDOW:
            summary.notes.append("window cap reached before convergence")
            summary.converged = False
            return summary


def _magnitude(value) -> float:
    """|value| as a float; huge exact rationals map to inf, not an error."""
    try:
        return abs(complex(value))
    except OverflowError:
        return float("inf")


def _quotient_magnitude(num: int, den: int) -> float:
    """|num/den| as a float without reducing it (true division rounds correctly)."""
    try:
        return abs(num / den)
    except OverflowError:
        return float("inf")


class _Tail:
    """One tail of the bilateral series, grown by the term-ratio recurrence.

    Position j holds t_j on the upper tail and t_{-j} on the lower tail;
    position 0 is t_0 = 1, which neither tail sums.  With k = j - 1 + start,
    r' = len(top) and s' = len(bot) the ratio t_j / t_{j-1} is

        prod_top (1 - p u^k) / prod_bot (1 - p u^k) * (-1)^(s'-r') u^((s'-r')k) arg.

    The upper tail takes (top, bot, u, arg, start) = (numerator, denominator,
    q, z, 0); the lower one (denominator, numerator, 1/q, 1/z, 1), because
    (a;q)_{-m} / (a;q)_{-m+1} = 1 / (1 - a q^-m).  A vanishing top factor
    makes every later term an exact 0, a vanishing bottom factor makes them
    infinite.  first_top / first_bot is the first position whose ratio has
    such a factor and first_overflow the first non-finite numeric term (inf
    while there is none).  Windows passed to extend() never decrease.
    """

    def __init__(self):
        self.pos = 0
        self.first_top = self.first_bot = self.first_overflow = math.inf

    def extend(self, window: int) -> None:
        while self.pos < window:
            self.pos += 1
            self._step()

    def _record(self, top: list, bot: list) -> bool:
        """Note vanishing factors at this position; False once a bottom one has vanished."""
        if self.first_top > self.pos and 0 in top:
            self.first_top = self.pos
        if self.first_bot > self.pos and 0 in bot:
            self.first_bot = self.pos
        return self.first_bot > self.pos

    def error(self, n: int) -> Exception | None:
        """The error _psi_term raises for the term at n (|n| <= pos), if any."""
        if self.first_bot > abs(n):
            return None
        if self.first_top <= abs(n):
            return DegenerateParametersError(
                f"term at n={n} is 0/0: numerator and denominator Pochhammers both vanish"
            )
        return PochhammerZeroDivisionError(
            f"term at n={n} is infinite: a denominator Pochhammer vanishes"
        )


class _ExactTail(_Tail):
    """Exact tail as unnormalized integers, so that no gcd is taken per term.

    With u = un/ud and p = pn/pd, (1 - p u^k) = (pd ud^k - pn un^k) / (pd ud^k)
    and the ud^k cancel against u^((s'-r')k): every ratio is a quotient of
    integers, reduced once.  The current term is num/den and the running
    sum total/den; a ratio rn/rd multiplies into the term and turns the sum
    into total*rd + num, so a Fraction is built only per window reported.
    On the lower tail (u = 1/q) the factors are pd qn^m - pn qd^m, the
    q^m - p form: no negative power of q is ever formed.
    """

    def __init__(self, top, bot, u: Fraction, arg: Fraction, start: int):
        super().__init__()
        self.top = [(p.numerator, p.denominator) for p in top]
        self.bot = [(p.numerator, p.denominator) for p in bot]
        shift = len(bot) - len(top)
        self.un, self.ud = u.numerator, u.denominator
        self.grow = self.un ** abs(shift)  # u^((s'-r')k) leaves un^(|s'-r'|k)
        self.grow_above = shift >= 0
        self.unk, self.udk, self.growk = self.un**start, self.ud**start, self.grow**start
        sign = -1 if shift % 2 else 1
        self.cn = sign * arg.numerator * math.prod(d for _, d in self.bot)
        self.cd = arg.denominator * math.prod(d for _, d in self.top)
        self.num, self.den, self.total = 1, 1, 0
        self.prev_num, self.prev_den = 1, 1

    def _step(self) -> None:
        unk, udk, growk = self.unk, self.udk, self.growk
        self.unk, self.udk, self.growk = unk * self.un, udk * self.ud, growk * self.grow
        top = [d * udk - n * unk for n, d in self.top]
        bot = [d * udk - n * unk for n, d in self.bot]
        self.prev_num, self.prev_den = self.num, self.den
        if not (self._record(top, bot) and self.num):
            return
        rn = math.prod(top) * self.cn
        rd = math.prod(bot) * self.cd
        if self.grow_above:
            rn *= growk
        else:
            rd *= growk
        g = math.gcd(rn, rd) if rd > 0 else -math.gcd(rn, rd)
        rn, rd = rn // g, rd // g
        self.num *= rn
        self.den *= rd
        self.total = self.total * rd + self.num

    def value(self) -> Fraction:
        return Fraction(self.total, self.den)

    def edge(self) -> tuple[float, bool]:
        """Largest |t| of the two outermost terms, and whether both are 0."""
        size = max(_quotient_magnitude(self.num, self.den),
                   _quotient_magnitude(self.prev_num, self.prev_den))
        return size, self.num == 0 and self.prev_num == 0


class _NumericTail(_Tail):
    """Complex tail; every term is kept so that a window sums outermost first.

    The factors take powers of whichever of u, v = 1/u has modulus at most
    1.  For |u| > 1, (1 - p u^k) = u^k (v^k - p) and the u^k cancel against
    u^((s'-r')k), except for parameters p = 0, whose factor is 1 and which
    are left out.  On the lower tail with |q| < 1 this is the q^m - p form,
    so the overflowing q^-m is never formed.  Multiplication overflows
    silently, so a non-finite term is recorded, counts as 0 and stays so.
    """

    def __init__(self, top, bot, u: complex, arg: complex, start: int):
        super().__init__()
        shift = len(bot) - len(top)
        self.top = [p for p in top if p]
        self.bot = [p for p in bot if p]
        self.inverted = abs(u) > 1
        if self.inverted:
            self.base, self.grow = 1 / u, u ** (shift - len(self.bot) + len(self.top))
        else:
            self.base, self.grow = u, u**shift
        self.pw, self.growk = self.base**start, self.grow**start
        self.c = (-1 if shift % 2 else 1) * arg
        self.term = 1 + 0j
        self.terms = [self.term]

    def _step(self) -> None:
        pw, growk = self.pw, self.growk
        self.pw, self.growk = pw * self.base, growk * self.grow
        if self.inverted:
            top = [pw - p for p in self.top]
            bot = [pw - p for p in self.bot]
        else:
            top = [1 - p * pw for p in self.top]
            bot = [1 - p * pw for p in self.bot]
        term = self.term
        if self._record(top, bot) and term and cmath.isfinite(term):
            term *= math.prod(top) / math.prod(bot) * self.c * growk
            if not cmath.isfinite(term):
                self.first_overflow = self.pos
        self.term = term
        self.terms.append(term if cmath.isfinite(term) else 0j)

    def value(self) -> complex:
        return sum(reversed(self.terms[1:]), 0j)

    def edge(self) -> tuple[float, bool]:
        """Largest |t| of the two outermost terms, and whether both are 0."""
        last = self.terms[-2:]
        return max(abs(t) for t in last), all(t == 0 for t in last)


def _tails(spec: BilateralSeriesSpec) -> tuple[_Tail, _Tail]:
    """The (lower, upper) tails of the series; exact when every input is."""
    num, den, q, z = spec.numerator_params, spec.denominator_params, spec.q, spec.z
    if q == 0:
        raise DegenerateParametersError("q = 0: the terms at n < 0 divide by q")
    if all(isinstance(p, Fraction) for p in (*num, *den, q, z)):
        tail = _ExactTail
    else:
        tail = _NumericTail
        num, den = [complex(p) for p in num], [complex(p) for p in den]
        q, z = complex(q), complex(z)
    # z = 0 keeps only n = 0, so the lower tail gets a zero argument as well
    return tail(den, num, 1 / q, 1 / z if z else z, 1), tail(num, den, q, z, 0)


def _psi_window(tails: tuple[_Tail, _Tail], window: int) -> PsiSummary:
    """Summary over [-window, window], extending both tails to the window.

    The error raised is the one a term-by-term sum in the order n = -window,
    ..., window meets first: the lower tail's at n = -window if any of its
    terms is infinite or 0/0, else that of the first such upper term.
    """
    lower, upper = tails
    lower.extend(window)
    upper.extend(window)
    error = lower.error(-window) or upper.error(min(upper.first_bot, window))
    if error:
        raise error
    total = lower.value() + upper.value() + 1
    upper_tail, upper_zero = upper.edge()
    lower_tail, lower_zero = lower.edge()
    overflowed = min(lower.first_overflow, upper.first_overflow) <= window
    summary = PsiSummary(
        value=total,
        window=window,
        upper_tail=upper_tail,
        lower_tail=lower_tail,
        upper_terminated=upper_zero and not overflowed,
        lower_terminated=lower_zero and not overflowed,
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
    if n > MAX_WINDOW - 2:
        raise ValueError(f"n must be at most {MAX_WINDOW - 2}, got {n}")
    a, b, c, q = Fraction(a), Fraction(b), Fraction(c), Fraction(q)
    if a == 0 or b == 0 or c == 0 or q == 0:
        raise DegenerateParametersError("parameters must be nonzero")
    spec = BilateralSeriesSpec.make(
        [a, b, q**-n], [c, a * b * q ** (1 - n) / c, q], q, q
    )
    window = n + 2
    lhs = _psi_window(_tails(spec), window).value
    denom = pochhammer(c, q, n) * pochhammer(c / (a * b), q, n)
    if denom == 0:
        raise DegenerateParametersError("closed-form denominator vanishes")
    rhs = pochhammer(c / a, q, n) * pochhammer(c / b, q, n) / denom
    return SaalschutzResult(lhs=lhs, rhs=rhs, equal=lhs == rhs, window=window)
