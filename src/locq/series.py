"""Exact truncated power series with integer coefficients.

FormalSeries is a univariate series in q known modulo q**(order+1): an
order and a tuple of integer coefficients.  Every exact series this
package produces has integer coefficients, and each is built by a
recurrence, not by ring arithmetic: a power of one sparse polynomial,
(1 + sum_k g_k q^k)^alpha, by kernel.sparse_power, and the spectral
products prod (1 -/+ q^(a n + eps)) by `expand_product`, through the Euler
transform (see locq.kernel).
BivariateSeries is a value type: a series in q whose coefficients are
polynomials in a second variable y with positive integer coefficients,
built by the Betti products of locq.genfunc and then only read or
specialized.  All values are immutable and all operations are pure, so
instances can be shared freely between threads.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

from . import kernel
from .errors import DegenerateFactorError

Sign = Literal["minus", "plus"]

MAX_ORDER = 10_000
# Decimal digits an exact result may have in its numerator or denominator:
# the CLI sets Python's int-to-str limit to it, and cli.frac names it.
MAX_DIGITS = 500_000


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


class BivariateSeries(NamedTuple):
    """Power series in q whose coefficients are polynomials in y, each stored
    as a sparse y-exponent -> integer map with no zero entries.

    y_truncated marks a series whose terms past a y-degree bound were dropped.
    """

    order: int
    coeffs: tuple[dict, ...]
    y_truncated: bool = False

    def q_coefficient(self, k: int) -> dict:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return dict(self.coeffs[k])

    def specialize_y(self, y: int) -> FormalSeries:
        """Substitute an integer for y, coefficient by coefficient."""
        return FormalSeries(self.order, tuple(sum(c * y**e for e, c in d.items())
                                              for d in self.coeffs))
