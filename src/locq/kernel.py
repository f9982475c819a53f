"""Truncated power-series kernel.

Hot loops for truncated power-series arithmetic on plain coefficient
lists.  The Cauchy product, the Euler transform and the sparse power work
on Python ints (numerators over a common denominator handled by the
caller), so they are exact and overflow-free; the reciprocal works over
any field.
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


def sparse_power(terms, alpha, order):
    """Coefficients of (1 + sum_k g_k q**k)**alpha modulo q**(order+1).

    `terms` holds (k, g_k) pairs with distinct integer exponents k >= 1 and
    integer g_k; terms past `order` do not affect the result.  `alpha` is
    any integer.  J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2,
    section 4.7) follows from g f' = alpha g' f:
        f_0 = 1,   n f_n = sum_k ((alpha+1) k - n) g_k f_{n-k},
    one term per nonzero g_k with k <= n.  It runs as
        f_n = ((alpha+1) sum_k k g_k f_{n-k}) // n - sum_k g_k f_{n-k},
    whose division by n is exact because every f_n is an integer.
    """
    terms = sorted((k, g) for k, g in terms if g and k <= order)
    ks = [k for k, _ in terms]
    gs = [g for _, g in terms]
    kgs = [k * g for k, g in terms]
    scale = alpha + 1
    f = [0] * (order + 1)
    f[0] = 1
    m = 0
    for n in range(1, order + 1):
        while m < len(ks) and ks[m] <= n:
            m += 1
        prev = [f[n - k] for k in ks[:m]]
        f[n] = scale * sum(map(operator.mul, kgs, prev)) // n - sum(map(operator.mul, gs, prev))
    return f
