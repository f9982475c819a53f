"""Exact truncated power series over the rationals.

FormalSeries is a univariate series in q known modulo q**(order+1) with
exact rational coefficients and full ring arithmetic.  Integer products
prod (1 - q^k)^(-c_k) are built by one recurrence, `euler_product`, not by
ring multiplication.  BivariateSeries is a value type: a series in q whose
coefficients are integer Laurent polynomials in a second variable y, built
by `binomial_product` and then only read, specialized or filtered.  All
values are immutable and all operations are pure, so instances can be
shared freely between threads.

Internally a FormalSeries stores integer numerators over a single common
denominator, which keeps the hot convolution loops in pure integer
arithmetic (see locq.kernel).  Floating-point coefficients are rejected:
every identity this package checks is exact, and coefficient-wise equality
is the test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal

from . import kernel
from .errors import DegenerateFactorError, ZeroConstantTermError

Sign = Literal["minus", "plus"]


def _gcd_list(values: Iterable[int]) -> int:
    g = 0
    for v in values:
        g = math.gcd(g, v)
        if g == 1:
            return 1
    return g


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(
        f"exact rational coefficient required, got {type(value).__name__}"
    )


# -- ring code shared by every truncated-series type ----------------------------
# FormalSeries and locq.genus.XSeries bind the power methods
# in their own class bodies (int_pow = _int_pow), so each method sits in its
# class's namespace and the slotted dataclasses need no common base class.


MAX_ORDER = 10_000


def _check_order(order: int) -> None:
    """Reject an order outside [0, MAX_ORDER] before any work is done."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > MAX_ORDER:
        raise ValueError(f"order must be at most {MAX_ORDER}")


def _common(a, b):
    """Both operands truncated to the lower of their two orders."""
    order = min(a.order, b.order)
    return a.truncate(order), b.truncate(order)


def _int_pow(x, exponent: int):
    """Integer power by square-and-multiply.

    A negative exponent inverts first, so it needs an invertible constant
    term.
    """
    if exponent == 0:
        return type(x).one(x.order)
    base = x if exponent > 0 else x.invert()
    e = abs(exponent)
    result = type(x).one(x.order)
    while e:
        if e & 1:
            result = result * base
        base = base * base if e > 1 else base
        e >>= 1
    return result


@dataclass(frozen=True, slots=True)
class FormalSeries:
    """Truncated power series in q with exact rational coefficients."""

    order: int
    nums: tuple[int, ...]
    den: int

    @staticmethod
    def _make(order: int, nums: list[int], den: int) -> "FormalSeries":
        if den < 0:
            nums = [-v for v in nums]
            den = -den
        g = math.gcd(_gcd_list(nums), den)
        if g > 1:
            nums = [v // g for v in nums]
            den //= g
        return FormalSeries(order, tuple(nums), den)

    @classmethod
    def from_coefficients(cls, coefficients, order: int | None = None) -> "FormalSeries":
        """Build from rationals (Fraction | int | 'p/q' strings).

        With `order` given, the coefficient list is padded with zeros or
        truncated to length order+1.
        """
        coeffs = [_as_fraction(c) for c in coefficients]
        if order is None:
            if not coeffs:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(coeffs) - 1
        coeffs = coeffs[: order + 1] + [Fraction(0)] * (order + 1 - len(coeffs))
        den = math.lcm(*(c.denominator for c in coeffs)) if coeffs else 1
        nums = [c.numerator * (den // c.denominator) for c in coeffs]
        return cls._make(order, nums, den)

    @classmethod
    def one(cls, order: int) -> "FormalSeries":
        return cls._make(order, [1] + [0] * order, 1)

    @classmethod
    def zero(cls, order: int) -> "FormalSeries":
        return cls._make(order, [0] * (order + 1), 1)

    @classmethod
    def monomial(cls, coefficient, exponent: int, order: int) -> "FormalSeries":
        """coefficient * q**exponent, truncated at `order`."""
        c = _as_fraction(coefficient)
        nums = [0] * (order + 1)
        if 0 <= exponent <= order:
            nums[exponent] = c.numerator
        return cls._make(order, nums, c.denominator)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return Fraction(self.nums[k], self.den)

    def truncate(self, order: int) -> "FormalSeries":
        if order >= self.order:
            return self
        return FormalSeries._make(order, list(self.nums[: order + 1]), self.den)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "FormalSeries":
        if isinstance(other, (int, Fraction)):
            other = FormalSeries.monomial(other, 0, self.order)
        if not isinstance(other, FormalSeries):
            return NotImplemented
        a, b = _common(self, other)
        den = math.lcm(a.den, b.den)
        ma, mb = den // a.den, den // b.den
        nums = [x * ma + y * mb for x, y in zip(a.nums, b.nums)]
        return FormalSeries._make(a.order, nums, den)

    def __radd__(self, other) -> "FormalSeries":
        return self.__add__(other)

    def __neg__(self) -> "FormalSeries":
        return FormalSeries(self.order, tuple(-v for v in self.nums), self.den)

    def __sub__(self, other) -> "FormalSeries":
        if isinstance(other, (int, Fraction)):
            other = FormalSeries.monomial(other, 0, self.order)
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other) -> "FormalSeries":
        return (-self).__add__(other)

    def __mul__(self, other) -> "FormalSeries":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return FormalSeries._make(
                self.order, [v * c.numerator for v in self.nums], self.den * c.denominator
            )
        if not isinstance(other, FormalSeries):
            return NotImplemented
        a, b = _common(self, other)
        nums = kernel.mul_trunc(list(a.nums), list(b.nums))
        return FormalSeries._make(a.order, nums, a.den * b.den)

    def __rmul__(self, other) -> "FormalSeries":
        return self.__mul__(other)

    def invert(self) -> "FormalSeries":
        """Multiplicative inverse modulo q**(order+1)."""
        if self.nums[0] == 0:
            raise ZeroConstantTermError("cannot invert a series with zero constant term")
        inverse = kernel.reciprocal([Fraction(v) for v in self.nums])
        # 1/(N/d) = d * (1/N)
        return FormalSeries.from_coefficients([c * self.den for c in inverse], self.order)

    int_pow = _int_pow
    __pow__ = _int_pow

    # -- presentation ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "var": "q",
            "order": self.order,
            "coeffs": [f"{c.numerator}/{c.denominator}" for c in self.coefficients],
        }

    def __repr__(self) -> str:
        terms = []
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                mag = "q" if k == 1 else f"q^{k}"
                coeff = "" if abs(c) == 1 else f"{abs(c)}*"
                terms.append(("- " if c < 0 else "+ ") + coeff + mag
                             if terms else (("-" if c < 0 else "") + coeff + mag))
        body = " ".join(terms) if terms else "0"
        return f"<{body} + O(q^{self.order + 1})>"


def euler_product(c, order: int) -> FormalSeries:
    """prod_{k>=1} (1 - q**k)**(-c[k]) exactly to `order`.

    The one route for every exact univariate product in this package;
    kernel.euler_transform has the recurrence and the conventions for c.
    """
    _check_order(order)
    return FormalSeries._make(order, kernel.euler_transform(c, order), 1)


def expand_product(spec: "IntegerProductSpec", order: int) -> FormalSeries:
    """Expand prod_{n>=ell} (1 -/+ q**(a*n + epsilon)) exactly to `order`.

    Only factors whose leading exponent e = a*n + epsilon is <= order
    differ from 1 modulo the truncation.  Each one becomes Euler-transform
    exponents: (1 - q^e) adds -1 to c[e], and (1 + q^e), which equals
    (1 - q^(2e)) / (1 - q^e), adds +1 to c[e] and -1 to c[2e].
    """
    _check_order(order)
    spec.validate()  # rejects a leading factor (1 - q^0)
    c = [0] * (order + 1)
    scale = 1
    for e in range(spec.a * spec.ell + spec.epsilon, order + 1, spec.a):
        if e == 0:
            scale = 2  # (1 + q^0) = 2
        elif spec.sign == "minus":
            c[e] -= 1
        else:
            c[e] += 1
            if 2 * e <= order:
                c[2 * e] -= 1
    nums = kernel.euler_transform(c, order)
    return FormalSeries._make(order, [scale * v for v in nums], 1)


@dataclass(frozen=True, slots=True)
class IntegerProductSpec:
    """Integer-exponent restriction of the spectral infinite products."""

    a: int
    epsilon: int
    ell: int
    sign: Sign

    def validate(self) -> None:
        if self.a < 1:
            raise ValueError("a must be a positive integer")
        if self.epsilon < 0 or self.ell < 0:
            raise ValueError("epsilon and ell must be nonnegative")
        if self.sign not in ("minus", "plus"):
            raise ValueError("sign must be 'minus' or 'plus'")
        if self.sign == "minus" and self.a * self.ell + self.epsilon == 0:
            raise DegenerateFactorError(
                "leading factor (1 - q^0) vanishes; shift ell or epsilon"
            )


# ---------------------------------------------------------------------------
# Bivariate series: coefficients are Laurent polynomials in y over Z,
# stored as sparse exponent -> integer maps.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BivariateSeries:
    """Power series in q whose coefficients are integer Laurent polynomials in y."""

    order: int
    coeffs: tuple[dict, ...]
    y_truncated: bool = False

    @staticmethod
    def _make(order: int, coeffs: list[dict], y_truncated: bool = False) -> "BivariateSeries":
        cleaned = [{e: c for e, c in d.items() if c} for d in coeffs]
        return BivariateSeries(order, tuple(cleaned), y_truncated)

    def q_coefficient(self, k: int) -> dict:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return dict(self.coeffs[k])

    def specialize_y(self, y: int) -> FormalSeries:
        """Substitute an integer for y, coefficient by coefficient.

        With s = min(0, lowest y-exponent) every coefficient is the integer
        sum c y^(e - s) over the common denominator y^-s.
        """
        s = min([0, *(e for d in self.coeffs for e in d)])
        if s and y == 0:
            raise ZeroDivisionError("negative y-exponent evaluated at y=0")
        nums = [sum(c * y ** (e - s) for e, c in d.items()) for d in self.coeffs]
        return FormalSeries._make(self.order, nums, y**-s)

    def filter_y(self, y_bound: int) -> "BivariateSeries":
        """Drop y-exponents with |e| > y_bound, marking the result truncated."""
        dropped = False
        out = []
        for d in self.coeffs:
            kept = {e: c for e, c in d.items() if abs(e) <= y_bound}
            dropped = dropped or (len(kept) != len(d))
            out.append(kept)
        return BivariateSeries._make(self.order, out, self.y_truncated or dropped)

    def to_json_dict(self) -> dict:
        data = {
            "var": "q",
            "order": self.order,
            "coeffs": [{str(e): c for e, c in sorted(d.items())} for d in self.coeffs],
        }
        if self.y_truncated:
            data["y_truncated"] = True
        return data


def binomial_product(factors, order: int) -> BivariateSeries:
    """Expand prod (1 + s q^e y^d)^m exactly to q^order.

    `factors` yields integer tuples (s, e, d, m) with e >= 1.  The q^i
    coefficient is a y-exponent -> integer map, updated in place with |m|
    passes per factor:
    multiplying by (1 + s q^e y^d) runs i downwards, c[i] += s y^d c[i-e];
    dividing by it (m < 0) runs i upwards, c[i] -= s y^d c[i-e], so that
    c[i-e] is already a coefficient of the quotient.
    """
    _check_order(order)
    coeffs: list[dict] = [{} for _ in range(order + 1)]
    coeffs[0][0] = 1
    for s, e, d, m in factors:
        if e < 1:
            raise ValueError("q-exponent of a binomial factor must be positive")
        if not s or e > order:
            continue
        step = s if m > 0 else -s
        rows = range(order, e - 1, -1) if m > 0 else range(e, order + 1)
        for _ in range(abs(m)):
            for i in rows:
                src = coeffs[i - e]
                if src:
                    dst = coeffs[i]
                    for k, v in src.items():
                        c = dst.get(k + d, 0) + step * v
                        if c:
                            dst[k + d] = c
                        else:
                            del dst[k + d]
    return BivariateSeries(order, tuple(coeffs))
