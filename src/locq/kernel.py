"""Exact integer series kernel.

Hot loops for truncated power-series arithmetic over exact integers.  A
series is carried as a plain list of Python ints (numerators over a common
denominator handled by the caller), so everything here is exact and
overflow-free.
"""


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


def mul_binomial_inplace(nums, exponent, sign):
    """Multiply a coefficient list in place by (1 + sign * q**exponent)."""
    for i in range(len(nums) - 1, exponent - 1, -1):
        v = nums[i - exponent]
        if v:
            nums[i] += sign * v
