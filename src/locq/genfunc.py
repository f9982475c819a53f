"""Symmetric-product generating functions and their enumeration oracles.

Everything here consumes only Betti numbers.  Each product formula is
paired with an independent basis-enumeration oracle so the identities can
be checked coefficient by coefficient:

  * macdonald_series      <->  sym_poincare_oracle_series (graded symmetric powers)
  * orbifold_series       <->  orbifold_oracle_series (partition sums of the above)
  * equivariant series    <->  partition counting
  * twisted_sym_series    <->  twisted_sym_oracle (tuples of strict and of
                               distinct-odd partitions), for chi >= 0; the
                               eta-quotient route's halved difference must
                               be an integer.

Index-range note for the orbifold product: the q-power index runs over
n >= 1 and the degree index over j >= 0 (so the degree-0 Betti number
contributes and no q-free factor appears); this is the unique range
agreeing with the partition-sum oracle.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from typing import NamedTuple

from . import kernel
from .errors import LocqError
from .series import BivariateSeries, FormalSeries, _check_order

# Each Betti number sets the pass count of a factor in _betti_product, so
# the cost grows linearly with it.
MAX_BETTI = 1000
# |chi| is the exponent of every factor of the Euler-characteristic series,
# so their coefficients grow with it.
MAX_CHI = 1000


class _BettiFields(NamedTuple):
    betti: tuple[int, ...]


class BettiData(_BettiFields):
    """Finite list b^0, b^1, ..., b^d of nonnegative Betti numbers."""

    __slots__ = ()

    def __new__(cls, betti: tuple[int, ...]):
        if any(b < 0 for b in betti):
            raise ValueError("Betti numbers must be nonnegative")
        if any(b > MAX_BETTI for b in betti):
            raise ValueError(f"Betti numbers must be at most {MAX_BETTI}")
        return super().__new__(cls, betti)

    @classmethod
    def of(cls, *betti: int) -> "BettiData":
        return cls(tuple(betti))

    @property
    def chi(self) -> int:
        return sum((-1) ** j * b for j, b in enumerate(self.betti))


def sym_poincare_oracle_series(b: BettiData, order: int) -> list[dict[int, int]]:
    """Poincare polynomials of the graded symmetric powers 0 .. order, by enumeration.

    A basis element of the n-th power is a multiset of even generators
    together with a subset of odd generators, of total size n.  Each
    multiset of even generators is listed once, those of size m grown from
    those of size m - 1 by a generator no earlier than their last, and each
    subset of odd generators once; the n-th power counts their pairs by
    degree.  Never touches the product formula.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    # even-degree generators repeat freely, odd-degree ones appear at most
    # once (Koszul sign rule)
    even = [j for j, count in enumerate(b.betti) if j % 2 == 0 for _ in range(count)]
    odd = [j for j, count in enumerate(b.betti) if j % 2 for _ in range(count)]
    # even_counts[m] and odd_counts[k]: degree -> number of multisets of size
    # m, of subsets of size k
    even_counts = [{0: 1}]
    level = [(0, 0)]  # each multiset of the last size: (degree, index of its last generator)
    for _ in range(order):
        level = [(deg + even[k], k) for deg, last in level for k in range(last, len(even))]
        counts: dict[int, int] = {}
        for deg, _last in level:
            counts[deg] = counts.get(deg, 0) + 1
        even_counts.append(counts)
    odd_counts = []
    for size in range(min(order, len(odd)) + 1):
        counts = {}
        for choice in itertools.combinations(odd, size):
            deg = sum(choice)
            counts[deg] = counts.get(deg, 0) + 1
        odd_counts.append(counts)
    powers = []
    for n in range(order + 1):
        out: dict[int, int] = {}
        for n_odd in range(min(n, len(odd)) + 1):
            evens = even_counts[n - n_odd]
            for odd_deg, odd_count in odd_counts[n_odd].items():
                for even_deg, even_count in evens.items():
                    deg = odd_deg + even_deg
                    out[deg] = out.get(deg, 0) + odd_count * even_count
        powers.append(out)
    return powers


def sym_poincare_oracle(b: BettiData, n: int) -> dict[int, int]:
    """Poincare polynomial of the n-th graded symmetric power, by enumeration:
    the n-th entry of sym_poincare_oracle_series."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sym_poincare_oracle_series(b, n)[n]


def _betti_product(b: BettiData, q_exponents, q_order: int,
                   y_bound: int | None) -> BivariateSeries:
    """Product of (1 + q^n y^j)^(b_j) over odd degrees j and (1 - q^n y^j)^(-b_j)
    over even j, for every n in q_exponents, expanded exactly to q_order.

    The q^i coefficient is a y-exponent -> count map.  Each factor is b_j
    passes of c[i] += y^j c[i-n]: i runs downwards to multiply by
    (1 + q^n y^j), so that c[i-n] is still the old coefficient, and upwards
    to divide by (1 - q^n y^j), so that it is already the quotient's.  Every
    count is positive and a pass only raises y-degrees, so a term past
    y_bound feeds only terms past it: it is dropped where it is made, and
    the series is marked y_truncated.
    """
    if y_bound is not None and y_bound < 0:
        raise ValueError("y_bound must be nonnegative")
    _check_order(q_order)
    # no term of q-degree <= q_order has a y-degree past q_order times the top degree
    limit = q_order * (len(b.betti) - 1) if y_bound is None else y_bound
    coeffs: list[dict] = [{} for _ in range(q_order + 1)]
    coeffs[0][0] = 1
    dropped = False
    for n in q_exponents:
        for j, count in enumerate(b.betti):
            rows = range(q_order, n - 1, -1) if j % 2 else range(n, q_order + 1)
            cut = limit - j
            for _ in range(count):
                for i in rows:
                    src = coeffs[i - n]
                    if src:
                        dst = coeffs[i]
                        for k, v in src.items():
                            if k <= cut:
                                dst[k + j] = dst.get(k + j, 0) + v
                            else:
                                dropped = True
    return BivariateSeries(q_order, tuple(coeffs), dropped)


def macdonald_series(b: BettiData, q_order: int, y_bound: int | None = None) -> BivariateSeries:
    """Generating series of symmetric-product Poincare polynomials.

    Product form: prod_j (1 + q y^(2j+1))^(b_odd) / prod_j (1 - q y^(2j))^(b_even),
    expanded exactly to q_order.
    """
    return _betti_product(b, [1], q_order, y_bound)


def _check_chi(chi: int) -> None:
    if abs(chi) > MAX_CHI:
        raise ValueError(f"|chi| must be at most {MAX_CHI}, got {chi}")


def pentagonal_terms(order: int) -> list[tuple[int, int]]:
    """The nonzero terms (k, g_k), 1 <= k <= order, of Euler's function.

    By the pentagonal number theorem (Andrews, The Theory of Partitions,
    Cor. 1.7), prod_{n>=1} (1 - q^n) = 1 + sum_{j>=1} (-1)^j
    (q^(j(3j-1)/2) + q^(j(3j+1)/2)): about 1.6 sqrt(order) terms.
    """
    out = []
    for j in itertools.count(1):
        for k in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if k > order:
                return out
            out.append((k, (-1) ** j))


def equivariant_euler_series(chi: int, q_order: int) -> FormalSeries:
    """prod_{j>=1} (1 - q^j)^(-chi), exactly to q_order.

    The power -chi of Euler's function, from its pentagonal terms: the
    cost is O(q_order^1.5) multiply-adds, not the Euler transform's
    q_order^2 / 2.
    """
    _check_chi(chi)
    _check_order(q_order)
    terms = pentagonal_terms(q_order)
    return FormalSeries(q_order, tuple(kernel.sparse_power(terms, -chi, q_order)))


def theta4_terms(order: int) -> list[tuple[int, int]]:
    """The nonzero terms (k, g_k), 1 <= k <= order, of Gauss's theta_4.

    theta_4(t) = 1 + 2 sum_{n>=1} (-1)^n t^(n^2) = E(t)^2 / E(t^2), with E
    Euler's function (Gauss; Koehler, Eta Products and Theta Series
    Identities, 2011): about sqrt(order) terms.
    """
    return [(n * n, 2 * (-1) ** n) for n in range(1, math.isqrt(order) + 1)]


def twisted_sym_series(chi: int, q_order: int) -> FormalSeries:
    """Euler-characteristic series of the twisted symmetric-product theory.

    Defined from four integer products over odd/even exponents,
        A = prod (1-q^(2n-1))^(-chi)        B = prod (1+q^(2n-1))^(chi)
        C+- = prod (1 +- q^(2n))^(chi)
    as A + B * (1 + (C+ - C-)/2).  Euler's identity
    prod (1 + q^n) = prod_{n odd} (1 - q^n)^(-1) gives B C+ = A, so with
    D = B C- the series is A + B + (A - D)/2.  As eta quotients, with E
    Euler's function, A = E(q)^(-chi) U(q^2), B = E(q)^(-chi) Theta(q^2)
    and D = E(q)^(-chi) U(q^2) Theta(q^2), where U = E(t)^chi and
    Theta = theta_4(t)^chi.  So the series is E(q)^(-chi) G(q^2) with
        G = U + Theta + (U - U Theta)/2:
    three sparse powers and two products.  U - U Theta must be even: an
    odd coefficient is a hard error.  Note the constant coefficient is 2,
    not 1, for every chi.
    """
    _check_chi(chi)
    _check_order(q_order)
    half = q_order // 2
    u = kernel.sparse_power(pentagonal_terms(half), chi, half)
    theta = kernel.sparse_power(theta4_terms(half), chi, half)
    diffs = [x - y for x, y in zip(u, kernel.mul_trunc(u, theta))]
    if any(v % 2 for v in diffs):
        raise LocqError("twisted series produced non-integer coefficients")
    g = [0] * (q_order + 1)
    g[::2] = [x + y + v // 2 for x, y, v in zip(u, theta, diffs)]
    e = equivariant_euler_series(chi, q_order).coeffs
    return FormalSeries(q_order, tuple(kernel.mul_trunc(e, g)))


@lru_cache(maxsize=1024)
def _distinct_part_counts(n: int, step: int) -> tuple[int, int]:
    """Partitions of n into distinct parts from 1, 1 + step, 1 + 2 step, ...,
    counted by the parity of n minus their number of parts: (even, odd).

    Step 1 counts the strict partitions, step 2 those into distinct odd
    parts; the recursion lists every partition, largest part first.
    """
    counts = [0, 0]

    def rec(remaining: int, largest: int, length: int) -> None:
        if remaining == 0:
            counts[(n - length) % 2] += 1
            return
        for part in range(min(remaining, largest), 0, -1):
            if (part - 1) % step == 0:
                rec(remaining - part, part - 1, length + 1)

    rec(n, n, 0)
    return counts[0], counts[1]


@lru_cache(maxsize=4096)
def _tuple_counts(chi: int, n: int, step: int) -> tuple[int, int]:
    """chi-tuples of the partitions of _distinct_part_counts with total n,
    counted by the parity of n minus their total number of parts.

    A tuple is its first chi // 2 members followed by the rest, so the
    recursion is about log2(chi) deep.
    """
    if chi <= 1:
        if chi:
            return _distinct_part_counts(n, step)
        return (1, 0) if n == 0 else (0, 0)
    head = chi // 2
    even = odd = 0
    for m in range(n + 1):
        e1, o1 = _tuple_counts(head, m, step)
        e2, o2 = _tuple_counts(chi - head, n - m, step)
        even += e1 * e2 + o1 * o2
        odd += e1 * o2 + o1 * e2
    return even, odd


def twisted_sym_oracle(chi: int, n: int) -> int:
    """Coefficient of q^n of the twisted series for chi >= 0, by counting.

    With A and D of twisted_sym_series, A = (sum over strict partitions
    lambda of q^|lambda|)^chi (Euler) and D is the same sum weighted by
    (-1)^(|lambda| - l(lambda)), the parity of the number of even parts.
    So A + (A - D)/2 counts chi-tuples of strict partitions of total n,
    weighted 1 when n minus their total number of parts is even and 2 when
    it is odd, and B counts chi-tuples of partitions into distinct odd
    parts.  At chi = 1 the first count is Schur's number of irreducible
    spin representations of the double cover of S_n (Hoffman-Humphreys,
    Projective Representations of the Symmetric Groups, 1992).  Uses no
    series product.
    """
    if chi < 0:
        raise ValueError("the twisted-series oracle needs chi >= 0")
    if n < 0:
        raise ValueError("n must be nonnegative")
    even, odd = _tuple_counts(chi, n, 1)
    return even + 2 * odd + sum(_tuple_counts(chi, n, 2))


def orbifold_series(b: BettiData, q_order: int, y_bound: int | None = None) -> BivariateSeries:
    """Orbifold Poincare series: prod_{n>=1} prod_j (1+q^n y^(2j+1))^b / (1-q^n y^(2j))^b."""
    return _betti_product(b, range(1, q_order + 1), q_order, y_bound)


def partition_multiplicities(n: int):
    """Yield partitions of n as {part: multiplicity} dicts."""

    def rec(remaining: int, max_part: int, acc: dict[int, int]):
        if remaining == 0:
            yield dict(acc)
            return
        for part in range(min(remaining, max_part), 0, -1):
            acc[part] = acc.get(part, 0) + 1
            yield from rec(remaining - part, part, acc)
            acc[part] -= 1
            if not acc[part]:
                del acc[part]

    yield from rec(n, n, {})


def orbifold_oracle_series(b: BettiData, order: int) -> list[dict[int, int]]:
    """Coefficients of q^0 .. q^order of the orbifold series, from partition sums.

    The coefficient of q^n sums, over the partitions of n with
    multiplicities (n_j), the product of the symmetric-power Poincare
    polynomials of order n_j, once per multiset of the n_j; the powers of
    order 0 .. order are enumerated once.  Independent of the infinite product.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    powers = sym_poincare_oracle_series(b, order)
    coeffs = []
    for n in range(order + 1):
        out: dict[int, int] = {}
        for pattern, count in _multiplicity_patterns(n):
            term: dict[int, int] = {0: 1}
            for mult in pattern:
                new: dict[int, int] = {}
                for e1, c1 in term.items():
                    for e2, c2 in powers[mult].items():
                        new[e1 + e2] = new.get(e1 + e2, 0) + c1 * c2
                term = {e: c for e, c in new.items() if c}
                if not term:
                    break
            for e, c in term.items():
                out[e] = out.get(e, 0) + count * c
        coeffs.append({e: c for e, c in out.items() if c})
    return coeffs


@lru_cache(maxsize=64)
def _multiplicity_patterns(n: int) -> tuple:
    """(sorted multiplicities, the number of partitions of n with them)."""
    return tuple(Counter(tuple(sorted(m.values())) for m in partition_multiplicities(n)).items())


def orbifold_oracle(b: BettiData, n: int) -> dict[int, int]:
    """Coefficient of q^n of the orbifold series, from the partition sums."""
    return orbifold_oracle_series(b, n)[n]
