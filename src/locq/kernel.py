"""Exact integer series kernel.

Hot loops for truncated power-series arithmetic over exact integers.  A
series is carried as a plain list of Python ints (numerators over a common
denominator handled by the caller), so everything here is exact and
overflow-free.
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


def invert_ints(nums):
    """Reciprocal of an integer-coefficient series.

    Returns (numerators, denominator) with the common denominator
    nums[0]**len(nums).  Division-free: with n0 = nums[0], the numerators
    p_n of r_n = p_n / n0**(n+1) obey
        p_0 = 1,   p_n = -sum_{k=1..n} nums[k] * p_{n-k} * n0**(k-1),
    so the result is exact whenever n0 != 0 (the caller checks).
    """
    L = len(nums)
    n0 = nums[0]
    p = [0] * L
    p[0] = 1
    for n in range(1, L):
        acc = 0
        pw = 1
        for k in range(1, n + 1):
            nk = nums[k]
            if nk:
                acc += nk * p[n - k] * pw
            pw *= n0
        p[n] = -acc
    out = [0] * L
    pw = 1
    for n in range(L - 1, -1, -1):
        out[n] = p[n] * pw
        pw *= n0
    return out, pw


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
