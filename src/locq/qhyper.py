"""q-Pochhammer symbols and bilateral basic hypergeometric series.

Works over exact rationals (Fraction) and complex floats: the terminating
identities are summed exactly and convergent series numerically.  The
negative-index Pochhammer symbol is the unique extension satisfying the
shift identity
    (a;q)_{m+n} = (a;q)_m * (a q^m; q)_n,
namely (a;q)_{-m} = 1 / prod_{k=1..m} (1 - a q^{-k}).  Bilateral series are
summed tail by tail from the term-ratio recurrence (see _Tail); the direct
product locq.oracles.psi_term is the independent oracle the tests compare to.
Whether a bilateral sum has converged is decided by one rule, at a window
searched for or given: a proven bound on each tail's omitted terms
(_RatioBound, _Tail.bound) against the tolerance.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import (DegenerateParametersError, PochhammerZeroDivisionError, is_normal,
                     require_double)
from .series import MAX_DIGITS
from .spectral import check_tolerance, factor_count, refuse_product

Scalar = Fraction | complex

NOT_DECAYING = "tail terms fail to decay; series non-convergent here"

# The automatic window of bilateral_psi starts here.
FIRST_WINDOW = 8
# Moduli below this are raised to it in the ratio bound (_RatioBound.rho): an upper
# bound on any value that underflows.
_TINY = 2.0**-1000

# Largest bilateral window, Saalschutz n and |n| of a finite Pochhammer
# symbol; each costs work linear in it and is checked first.
MAX_WINDOW = 4096


def _coerce(value, name: str) -> Scalar:
    """Exact inputs stay exact; anything float-like becomes complex, and
    one that is not finite is refused, naming the parameter `name`."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, (float, complex)):
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        return complex(value)
    raise TypeError(f"unsupported scalar type {type(value).__name__}")


def pochhammer(a, q, n: int):
    """Shifted factorial (a;q)_n = (1-a)(1-aq)...(1-aq^{n-1}), any integer n.

    For n < 0 the shift-identity extension is used; a vanishing factor
    there makes the symbol infinite and raises PochhammerZeroDivisionError.
    A complex product not a finite, normal double (nor 0 by a factor 1 - a q^k
    that is exactly 0 at the inputs, see _is_one) is refused by name, as are
    exact inputs whose unreduced product may have more than MAX_DIGITS
    digits, before any work.
    """
    if abs(n) > MAX_WINDOW:
        raise ValueError(f"|n| must be at most {MAX_WINDOW}, got {n}")
    a, q = _coerce(a, "a"), _coerce(q, "q")
    if n < 0 and q == 0:
        raise DegenerateParametersError(f"(a;q)_{n} with n < 0 divides by q = 0")
    if isinstance(a, Fraction) and isinstance(q, Fraction):
        # As in _ExactTail, each factor 1 - b p^k = (bd pd^k - bn pn^k) / (bd pd^k)
        # for b = bn/bd, p = pn/pd: the numerators and denominators are
        # multiplied as integers, reduced once.
        m, (b, p) = abs(n), _exact_base(a, q, n)
        top, pnk, pdk = 1, 1, 1
        for _ in range(m):
            top *= b.denominator * pdk - b.numerator * pnk
            pnk, pdk = pnk * p.numerator, pdk * p.denominator
        out = Fraction(top, b.denominator**m * p.denominator ** (m * (m - 1) // 2))
    else:
        out = math.prod(_pochhammer_factors(1 + 0j, a, q, n), start=1 + 0j)
        if not is_normal(out):
            product = (f"(a;q)_{n} = prod_(k=0..{n - 1}) (1 - a q^k)" if n >= 0
                       else f"1 / (a;q)_{n} = prod_(k=1..{-n}) (1 - a q^-k)")
            refuse_product(product, _pochhammer_factors(1 + 0j, a, q, n), "k", 0 if n >= 0 else 1,
                           lambda k: _is_one(a, q, k if n >= 0 else -k))
    if n < 0 and out == 0:
        raise PochhammerZeroDivisionError(f"(a;q)_{n} has a vanishing factor for a={a}, q={q}")
    return out if n >= 0 else 1 / out


def _exact_base(a: Fraction, q: Fraction, n: int) -> tuple[Fraction, Fraction]:
    """(b, p) with (a;q)_n = (b;p)_n for n >= 0 and 1 / (b;p)_-n for n < 0,
    where b = a/q, p = 1/q: the factors 1 - b p^k are 1 - a q^-(k+1).  An
    (a;q)_n whose unreduced product may have more than MAX_DIGITS digits is
    refused, from the sizes of b and p alone."""
    m, (b, p) = abs(n), (a, q) if n >= 0 else (a / q, 1 / q)
    # each factor is below 2 max(|bn|, bd) max(|pn|, pd)^k, as is bd pd^k
    digits = (m * math.log10(2 * max(abs(b.numerator), b.denominator))
              + m * (m - 1) // 2 * math.log10(max(abs(p.numerator), p.denominator)))
    if digits > MAX_DIGITS:
        raise ValueError(f"exact (a;q)_{n} may have {digits:.0f} digits, more than "
                         f"MAX_DIGITS = {MAX_DIGITS}")
    return b, p


def _pochhammer_factors(one, a, q, n: int):
    """The factors 1 - a q^k of (a;q)_n, k = 0..n-1, for n >= 0, else those
    1 - a q^-k, k = 1..-n, of its reciprocal, each power from the last, as
    the products of pochhammer and pochhammer_infinite form them."""
    apow = a
    for _ in range(abs(n)):
        if n < 0:
            apow /= q
        yield one - apow
        if n > 0:
            apow *= q


def _is_one(a: Scalar, q: Scalar, k: int) -> bool:
    """Whether a q^k = 1 exactly at the inputs a and q (q != 0 for k < 0), in
    Gaussian rationals: the factor 1 - a q^k is exactly 0, not only in doubles."""
    def times(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    power, base = (Fraction(1), Fraction(0)), (Fraction(q.real), Fraction(q.imag))
    for bit in bin(abs(k))[2:]:
        power = times(power, power)
        if bit == "1":
            power = times(power, base)
    exact_a = (Fraction(a.real), Fraction(a.imag))
    return times(exact_a, power) == (1, 0) if k >= 0 else exact_a == power


def pochhammer_infinite(a, q, tol: float = 1e-12) -> complex:
    """(a;q)_infinity as a truncated product with tail bound below tol.

    The product stops after the m factors of spectral.factor_count with
    the tail bound sum_{k>=m} |a| |q|^k < tol / 2; it is multiplied in
    complex floats for every input, since the truncation is only
    accurate to tol anyway; one that is not a finite, normal double (nor 0
    by a factor that is exactly 0, see pochhammer) is refused by name.
    """
    check_tolerance(tol)
    a, q = complex(_coerce(a, "a")), complex(_coerce(q, "q"))
    m = factor_count(abs(a), abs(q), 0, tol / 2)
    out = math.prod(_pochhammer_factors(1 + 0j, a, q, m), start=1 + 0j)
    if not is_normal(out):
        refuse_product(f"(a;q)_inf to its first {m} factors, prod_(k=0..{m - 1}) (1 - a q^k)",
                       _pochhammer_factors(1 + 0j, a, q, m), "k", 0, lambda k: _is_one(a, q, k))
    return out


class BilateralSeriesSpec(NamedTuple):
    """Parameters of the two-sided basic hypergeometric sum."""

    numerator_params: tuple
    denominator_params: tuple
    q: Scalar
    z: Scalar

    @classmethod
    def make(cls, numerator_params: Sequence, denominator_params: Sequence, q, z):
        return cls(
            tuple(_coerce(p, f"numerator_params[{i}]") for i, p in enumerate(numerator_params)),
            tuple(_coerce(p, f"denominator_params[{i}]")
                  for i, p in enumerate(denominator_params)),
            _coerce(q, "q"),
            _coerce(z, "z"),
        )


class PsiSummary(NamedTuple):
    """Value of a bilateral sum plus convergence diagnostics.

    A tail has terminated when its outermost term, and so every later one,
    is an exact 0 (_Tail.ended).
    tail_bound bounds the modulus of the sum of the terms outside
    [-window, window], from each tail's outermost term and ratio bound
    (_Tail.bound); it is inf where the parameters give none.  It bounds the
    omitted terms, not the rounding of the sum over the window.  converged
    holds where each tail's bound is at most (tol / 2) max(|sum|, 1), by
    one rule whether the window was searched for or given (bilateral_psi).
    """

    value: Scalar
    window: int
    upper_tail: float
    lower_tail: float
    upper_terminated: bool
    lower_terminated: bool
    converged: bool
    tail_bound: float
    notes: tuple[str, ...] = ()


def bilateral_psi(
    spec: BilateralSeriesSpec,
    window: int | None = None,
    tol: float = 1e-12,
) -> PsiSummary:
    """Sum the bilateral series over n in [-window, window].

    With window=None both tails grow together, one position at a time from
    FIRST_WINDOW, and the window is the first w at which every tail that
    has not terminated (reached an exact 0 term) has a ratio bound
    rho(w) < 1, |t_{j+1} / t_j| <= rho(w) for every j >= w
    (_RatioBound.rho), and omits at most |t_w| rho(w) / (1 - rho(w)) <=
    (tol / 2) max(|S_w|, 1), with the partial sum S_w read as a float.  The
    summary is then converged, and its tail_bound, the two tails' bounds
    added, bounds the omitted terms; it does not cover the rounding of the
    sum.  The search ends unconverged, with a note, at the first window at
    which a tail that has not terminated has a ratio limit of 1 or more and
    no top factor 1 - p u^k left that can vanish to end it
    (_Tail.diverges), and at MAX_WINDOW.  A window with a term that is not a
    finite double is refused, naming its tail and the n at which that tail's
    terms overflow first.

    An explicit window W is the same search with its first and last window
    both W: the same tests at W decide `converged` and the notes, and a sum
    that passes none of them is unconverged with no note.  So
    bilateral_psi(spec, window=s.window) == s for a summary s of the
    automatic search that stopped below MAX_WINDOW.  A window above
    MAX_WINDOW is rejected before any work.  The summary reports the
    magnitude of the outermost included terms on each tail.
    """
    check_tolerance(tol)
    if window is not None:
        if window < 1:
            raise ValueError(f"window must be a positive integer, got {window}")
        if window > MAX_WINDOW:
            raise ValueError(f"window must be at most {MAX_WINDOW}, got {window}")
    first, last = (window, window) if window else (FIRST_WINDOW, MAX_WINDOW)

    lower, upper = tails = _tails(spec)
    estimate = 1.0
    for w in range(1, last + 1):
        lower.extend(w)
        upper.extend(w)
        estimate += lower.outer() + upper.outer()
        if w < first:
            continue
        if min(lower.first_bot, upper.first_bot) <= w:
            _raise_first_error(tails, w)
        for name, sign, tail in (("lower", -1, lower), ("upper", 1, upper)):
            if tail.first_overflow <= w:
                require_double(f"the {name} tail's term at n = {sign * tail.first_overflow}",
                               tail.outer())
        if lower.diverges() or upper.diverges():
            return _summary(tails, w, notes=(NOT_DECAYING,))
        scale = tol / 2 * max(_magnitude(estimate), 1.0)
        if not math.isfinite(scale):
            scale = 0.0  # an estimate past a double: only ended tails pass
        if all(tail.bound(scale) <= scale for tail in tails):
            return _summary(tails, w, converged=True)
    if window:
        return _summary(tails, window)
    return _summary(tails, MAX_WINDOW, notes=("window cap reached before convergence",))


def _horizon(params, u: float, start: int) -> int:
    """The last position j <= MAX_WINDOW whose ratio t_j / t_{j-1} has a factor
    1 - p u^k, k = j - 1 + start, that can vanish: |p| |u|^k = 1 for one of the
    moduli `params` and the modulus u != 1; 0 if none."""
    last = 0
    if 0 < u < math.inf and u != 1:
        for p in params:
            k = -math.log(p) / math.log(u) if 0 < p < math.inf else math.nan
            if (math.isfinite(k) and start <= round(k) < MAX_WINDOW + start
                    and abs(k - round(k)) < 1e-9):
                last = max(last, round(k) + 1 - start)
    return last


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


class _RatioBound:
    """A bound rho(w) on one tail's term ratio past position w, in closed form
    from the moduli of the inputs (Gasper-Rahman, Basic Hypergeometric
    Series, 2nd ed., 5.1).

    With b = |u| <= 1 the modulus of the ratio is |arg| b^(gk) prod_top
    |1 - p u^k| / prod_bot, with g = s' - r'.  With |u| > 1, b = 1/|u| and
    v = 1/u, each factor with p != 0 is |u|^k |v^k - p|, and g = (nonzero
    bottom p) - (nonzero top p) - (s' - r'); a factor with p = 0 is 1.
    Either way a factor lies between c0 - c1 b^k and c0 + c1 b^k, (c0, c1) =
    (1, |p|) or (|p|, 1), and for k >= m = w + start, b^k <= b^m and, when
    g >= 0, b^(gk) <= b^(gm).
    """

    def __init__(self, top, bot, u: float, arg: float, shift: int, start: int):
        """top, bot: the moduli of the nonzero top and bottom parameters; u, arg:
        |u| and |arg|; shift: s' - r'.  Moduli are floats, inf past a double."""
        self.start = start
        inverted = u > 1
        self.b = 1 / u if inverted else u
        self.g = len(bot) - len(top) - shift if inverted else shift
        self.top_c = [(p, 1.0) if inverted else (1.0, p) for p in top]
        self.bot_c = [(p, 1.0) if inverted else (1.0, p) for p in bot]
        self.a = arg
        # lim rho(w), without its slack: that of |t_{j+1} / t_j| when |u| != 1,
        # nan or inf where a modulus is past a double.  No rho(w) is below it.
        if self.b < 1 and self.g:
            self.limit = 0.0 if self.g > 0 else math.inf
        else:
            x = 0.0 if self.b < 1 else 1.0
            low = math.prod(c0 - c1 * x for c0, c1 in self.bot_c)
            high = arg * math.prod(c0 + c1 * x for c0, c1 in self.top_c)
            self.limit = high / low if low > 0 else math.inf
        self.least = self.limit / (1 - self.limit) if self.limit < 1 else math.inf
        # The last positions at which a top factor can vanish, ending the tail,
        # and a bottom one, making a term after the end 0/0
        self.top_horizon = _horizon(top, u, start)
        self.bot_horizon = _horizon(bot, u, start)

    def rho(self, w: int) -> float:
        """A bound on |t_{j+1} / t_j| for every position j >= w; inf where the
        parameters give none below 1.

        Each modulus is within 3 units of 2^-53 of its value, so b^m is within
        3m + 1 and each factor bound within 3m + 7.  The lower factor bounds and
        the result carry a slack of (m + 4)(g + n + 1) 2^-49 for the n factors,
        the sum of logarithms (len(logs) + 2) 2^-52 times their moduli, and a
        value below 2^-1000 is raised to it, so no rounding or underflow can
        make the bound smaller than the ratio.
        """
        m = w + self.start
        if self.g < 0 and self.b < 1:
            return math.inf
        b = max(self.b, _TINY)
        x = b**m
        slack = (m + 4) * (self.g + len(self.top_c) + len(self.bot_c) + 1) * 2.0**-49
        logs = [math.log(max(self.a, _TINY)), self.g * m * math.log(b)]
        logs += [math.log(max(c0 + c1 * x, _TINY)) for c0, c1 in self.top_c]
        for c0, c1 in self.bot_c:
            low = c0 - c1 * x - slack * (c0 + c1 * x) - _TINY
            if not low > 0:
                return math.inf
            logs.append(-math.log(low))
        exponent = sum(logs) + (len(logs) + 2) * 2.0**-52 * sum(map(abs, logs))
        return max(math.exp(exponent) * (1 + slack), _TINY) if exponent < 0 else math.inf


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

    def __init__(self, start: int):
        self.pos = 0
        self.first_top = self.first_bot = self.first_overflow = math.inf
        self.start = start

    @functools.cached_property
    def ratio(self) -> _RatioBound:
        """The tail's ratio bound, built from _moduli() on first read, so that
        a sum that reads no tail bound never builds one."""
        return _RatioBound(*self._moduli(), self.start)

    def extend(self, window: int) -> None:
        while self.pos < window:
            self.pos += 1
            self._step()

    def diverges(self) -> bool:
        """Whether the tail has not ended, has a ratio limit of 1 or more, and is
        past every position at which a top factor can vanish to end it."""
        ratio = self.ratio
        return not (self.ended() or ratio.limit < 1 or self.pos < ratio.top_horizon)

    def bound(self, scale: float = math.inf) -> float:
        """A bound on |sum of the terms past position pos|: 0 once the tail has
        ended and no bottom factor can vanish later, |t_pos| rho / (1 - rho)
        with rho = rho(pos) < 1, else inf.  It is inf as well, without rho
        being formed, when |t_pos| times the least rho / (1 - rho) of any
        position already exceeds `scale`."""
        ratio = self.ratio
        if self.ended():
            return 0.0 if self.pos >= ratio.bot_horizon else math.inf
        size = max(_magnitude(self.outer()), _TINY)
        if not size * ratio.least <= scale:
            return math.inf
        rho = ratio.rho(self.pos)
        return size * rho / (1 - rho) if rho < 1 else math.inf

    def _record(self, top: list, bot: list) -> bool:
        """Note vanishing factors at this position; False once a bottom one has vanished."""
        if self.first_top > self.pos and 0 in top:
            self.first_top = self.pos
        if self.first_bot > self.pos and 0 in bot:
            self.first_bot = self.pos
        return self.first_bot > self.pos

    def error(self, n: int) -> Exception | None:
        """The error oracles.psi_term raises for the term at n (|n| <= pos), if any."""
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
        super().__init__(start)
        self.top = [(p.numerator, p.denominator) for p in top]
        self.bot = [(p.numerator, p.denominator) for p in bot]
        self.arg = arg
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

    def _moduli(self):
        """The arguments of _RatioBound but `start`, as floats."""
        return ([_quotient_magnitude(n, d) for n, d in self.top if n],
                [_quotient_magnitude(n, d) for n, d in self.bot if n],
                _quotient_magnitude(self.un, self.ud),
                _quotient_magnitude(self.arg.numerator, self.arg.denominator),
                len(self.bot) - len(self.top))

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

    def outer(self) -> float:
        """The outermost term as a float, inf past a double."""
        try:
            return self.num / self.den
        except OverflowError:
            return math.inf

    def ended(self) -> bool:
        """Whether the outermost term, and so every later one, is an exact 0."""
        return self.num == 0

    def joined(self, other: _ExactTail) -> Fraction:
        """1 plus the sums of this tail and `other`, as one reduced Fraction."""
        den = self.den * other.den
        return Fraction(self.total * other.den + other.total * self.den + den, den)

    def edge(self) -> float:
        """Largest |t| of the two outermost terms."""
        return max(_quotient_magnitude(self.num, self.den),
                   _quotient_magnitude(self.prev_num, self.prev_den))


class _NumericTail(_Tail):
    """Complex tail; every term is kept so that a window sums outermost first.

    The factors take powers of whichever of u, v = 1/u has modulus at most
    1.  For |u| > 1, (1 - p u^k) = u^k (v^k - p) and the u^k cancel against
    u^((s'-r')k), except for parameters p = 0, whose factor is 1 and which
    are left out.  On the lower tail with |q| < 1 this is the q^m - p form,
    so the overflowing q^-m is never formed.  Multiplication overflows
    silently, so the first non-finite term's position is recorded, for
    bilateral_psi to refuse, and the term stays so.
    """

    def __init__(self, top, bot, u: complex, arg: complex, start: int):
        super().__init__(start)
        self.shift = shift = len(bot) - len(top)
        self.top = [p for p in top if p]
        self.bot = [p for p in bot if p]
        self.u, self.arg = u, arg
        self.inverted = abs(u) > 1
        if self.inverted:
            self.base, self.grow = 1 / u, u ** (shift - len(self.bot) + len(self.top))
        else:
            self.base, self.grow = u, u**shift
        self.pw, self.growk = self.base**start, self.grow**start
        self.c = (-1 if shift % 2 else 1) * arg
        self.term = 1 + 0j
        self.terms = [self.term]

    def _moduli(self):
        """The arguments of _RatioBound but `start`, as floats."""
        return ([_magnitude(p) for p in self.top], [_magnitude(p) for p in self.bot],
                _magnitude(self.u), _magnitude(self.arg), self.shift)

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
        self.terms.append(term)

    def outer(self) -> complex:
        """The outermost term, as the recurrence formed it (inf once it overflowed)."""
        return self.term

    def ended(self) -> bool:
        """Whether a top factor or the argument has vanished, so that every term
        from the outermost one on is an exact 0."""
        return self.first_top <= self.pos or not self.c

    def joined(self, other: _NumericTail) -> complex:
        """1 plus the sums of this tail and `other`, both at one position, in one
        sum from the outermost terms inwards."""
        pairs = map(operator.add, reversed(self.terms[1:]), reversed(other.terms[1:]))
        return sum(pairs, 0j) + 1

    def edge(self) -> float:
        """Largest |t| of the two outermost terms."""
        return max(abs(t) for t in self.terms[-2:])


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


def _raise_first_error(tails: tuple[_Tail, _Tail], window: int) -> None:
    """Raise the error a term-by-term sum in the order n = -window, ..., window
    meets first: the lower tail's at n = -window if any of its terms is
    infinite or 0/0, else that of the first such upper term."""
    lower, upper = tails
    error = lower.error(-window) or upper.error(min(upper.first_bot, window))
    if error:
        raise error


def _summary(tails: tuple[_Tail, _Tail], window: int, notes: tuple[str, ...] = (),
             converged: bool = False) -> PsiSummary:
    """Summary over [-window, window] of tails extended to the window."""
    lower, upper = tails
    return PsiSummary(
        value=lower.joined(upper),
        window=window,
        upper_tail=upper.edge(),
        lower_tail=lower.edge(),
        upper_terminated=upper.ended(),
        lower_terminated=lower.ended(),
        converged=converged,
        tail_bound=lower.bound() + upper.bound(),
        notes=notes,
    )


class SaalschutzResult(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    equal: bool


def saalschutz_check(a, b, c, n: int, q) -> SaalschutzResult:
    """Exact check of the terminating q-Saalschutz summation.

    Left side: the finite sum
        sum_{k=0..n} [(a,b,q^-n;q)_k / ((q,c,abq^{1-n}/c;q)_k)] q^k,
    the upper tail of the bilateral sum with numerator parameters (a, b,
    q^-n) and denominator parameters (c, a*b*q^(1-n)/c, q) at argument z=q,
    summed to position n.  The trailing denominator parameter q makes every
    negative-index term 0 by definition (1/(q;q)_k = 0 for k < 0), so the
    lower tail is not summed, and the q^-n numerator parameter makes every
    term past n 0.  A term with k <= n whose denominator vanishes is
    refused; a 0/0 past n, or below 0, is not a term of the sum.
    Right side: (c/a;q)_n (c/b;q)_n / ((c;q)_n (c/ab;q)_n), whose
    MAX_DIGITS refusals (_exact_base) are made before the sum.
    Both sides are exact rationals; the verdict is exact equality.
    """
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    if n > MAX_WINDOW:
        raise ValueError(f"n must be at most {MAX_WINDOW}, got {n}")
    a, b, c, q = Fraction(a), Fraction(b), Fraction(c), Fraction(q)
    if a == 0 or b == 0 or c == 0 or q == 0:
        raise DegenerateParametersError("parameters must be nonzero")
    for base in (c, c / (a * b), c / a, c / b):
        _exact_base(base, q, n)
    upper = _ExactTail([a, b, q**-n], [c, a * b * q ** (1 - n) / c, q], q, q, 0)
    upper.extend(n)
    error = upper.error(min(upper.first_bot, n))
    if error:
        raise error
    lhs = Fraction(upper.total + upper.den, upper.den)
    denom = pochhammer(c, q, n) * pochhammer(c / (a * b), q, n)
    if denom == 0:
        raise DegenerateParametersError("closed-form denominator vanishes")
    rhs = pochhammer(c / a, q, n) * pochhammer(c / b, q, n) / denom
    return SaalschutzResult(lhs=lhs, rhs=rhs, equal=lhs == rhs)
