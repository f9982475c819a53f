"""Truncated power-series kernel.

Hot loops for truncated power-series arithmetic on plain coefficient
lists.  The Cauchy product and the Euler transform work on Python ints
(numerators over a common denominator handled by the caller), so they are
exact and overflow-free; the reciprocal works over any field.
"""

import operator


def mul_trunc(a, b):
    """Truncated Cauchy product of two equal-length coefficient lists."""
    n = len(a)
    out = [0] * n
    for i in range(n):
        ai = a[i]
        if ai:
            for j in range(n - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
    return out


def reciprocal(a):
    """Coefficients of 1 / sum_k a[k] x**k to the length of `a`.

    Works over any field whose elements support +, * and /, such as
    Fraction or complex; a[0] must be nonzero (the caller checks).  From
    a * r = 1,
        r_0 = 1 / a_0,   r_n = -(sum_{k=1..n} a_k r_{n-k}) / a_0.
    """
    a0 = a[0]
    out = [1 / a0]
    for n in range(1, len(a)):
        out.append(-sum(map(operator.mul, a[1:n + 1], out[n - 1::-1])) / a0)
    return out


def euler_transform(c, order):
    """Coefficients of prod_{k>=1} (1 - q**k)**(-c[k]) modulo q**(order+1).

    c[k] is an integer exponent for 1 <= k < len(c); c[0] is ignored and
    entries past `order` do not affect the result.  With the divisor sums
    a_k = sum_{d | k} d c_d (a sieve over the multiples of each d), the
    logarithmic derivative of the product gives
        P_0 = 1,   n P_n = sum_{k=1..n} a_k P_{n-k},
    whose division by n is exact because every P_n is an integer.
    """
    a = [0] * (order + 1)
    for d in range(1, min(len(c) - 1, order) + 1):
        if c[d]:
            step = d * c[d]
            for k in range(d, order + 1, d):
                a[k] += step
    p = [0] * (order + 1)
    p[0] = 1
    for n in range(1, order + 1):
        p[n] = sum(map(operator.mul, a[1:n + 1], p[n - 1::-1])) // n
    return p
