"""Exact truncated power series with integer coefficients.

FormalSeries is a univariate series in q known modulo q**(order+1): an
order and a tuple of integer coefficients, emitted as JSON.  Every exact
series this package produces has integer coefficients, and each is built
by a recurrence, not by ring arithmetic: a power of one sparse polynomial,
(1 + sum_k g_k q^k)^alpha, by `polynomial_power`, and the spectral products
prod (1 -/+ q^(a n + eps)) by `expand_product`, through the Euler transform
(see locq.kernel).
BivariateSeries is a value type: a series in q whose coefficients are
integer Laurent polynomials in a second variable y, built by
`binomial_product` and then only read, specialized or filtered.  All
values are immutable and all operations are pure, so instances can be
shared freely between threads.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

from . import kernel
from .errors import DegenerateFactorError

Sign = Literal["minus", "plus"]

MAX_ORDER = 10_000


def _check_order(order: int) -> None:
    """Reject an order outside [0, MAX_ORDER] before any work is done."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > MAX_ORDER:
        raise ValueError(f"order must be at most {MAX_ORDER}")


class FormalSeries(NamedTuple):
    """Truncated power series in q with exact integer coefficients."""

    order: int
    coeffs: tuple[int, ...]

    def to_json_dict(self) -> dict:
        """The JSON schema's rational "p/q" strings, whose q is always 1 here."""
        return {
            "var": "q",
            "order": self.order,
            "coeffs": [f"{c}/1" for c in self.coeffs],
        }


def polynomial_power(terms, alpha: int, order: int) -> FormalSeries:
    """(1 + sum_k g_k q**k)**alpha exactly to `order`, for any integer alpha.

    `terms` lists the (k, g_k) pairs, k >= 1; kernel.sparse_power has the
    recurrence, whose cost is two multiply-adds per term and coefficient.
    """
    _check_order(order)
    return FormalSeries(order, tuple(kernel.sparse_power(terms, alpha, order)))


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
    return FormalSeries(order, tuple(scale * v for v in nums))


class IntegerProductSpec(NamedTuple):
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


class BivariateSeries(NamedTuple):
    """Power series in q whose coefficients are integer Laurent polynomials in y."""

    order: int
    coeffs: tuple[dict, ...]
    y_truncated: bool = False

    @staticmethod
    def from_coeffs(order: int, coeffs: list[dict], y_truncated: bool = False) -> "BivariateSeries":
        """The series with these coefficients, each dropping its zero terms."""
        cleaned = [{e: c for e, c in d.items() if c} for d in coeffs]
        return BivariateSeries(order, tuple(cleaned), y_truncated)

    def q_coefficient(self, k: int) -> dict:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return dict(self.coeffs[k])

    def specialize_y(self, y: int) -> FormalSeries:
        """Substitute an integer for y, coefficient by coefficient.

        Every y-exponent must be >= 0, so that each coefficient is the
        integer sum c y^e.
        """
        low = min((e for d in self.coeffs for e in d), default=0)
        if low < 0:
            raise ValueError(f"specialize_y needs y-exponents >= 0, lowest is {low}")
        return FormalSeries(self.order, tuple(sum(c * y**e for e, c in d.items())
                                              for d in self.coeffs))

    def filter_y(self, y_bound: int) -> "BivariateSeries":
        """Drop y-exponents with |e| > y_bound, marking the result truncated."""
        dropped = False
        out = []
        for d in self.coeffs:
            kept = {e: c for e, c in d.items() if abs(e) <= y_bound}
            dropped = dropped or (len(kept) != len(d))
            out.append(kept)
        return BivariateSeries.from_coeffs(self.order, out, self.y_truncated or dropped)

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
