"""Truncated power-series kernel.

Hot loops for truncated power-series arithmetic on plain coefficient
lists.  The Cauchy product, the Euler transform and the sparse power take
and return Python ints, so they are exact and overflow-free.  The Cauchy
product is one Kronecker-packed multiplication of two `decimal` integers,
never a loop over coefficient pairs.
"""

import operator
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal

# Large enough that no product, sum or difference of integers is rounded.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _pack(values, width):
    """Decimal holding sum_k values[k] * 10**(width * k), exactly.

    Adjacent entries are paired as lo + hi * 10**shift, with the shift
    doubling each round, so every round moves each digit once.
    """
    parts = [Decimal(v) for v in values]
    shift = width
    while len(parts) > 1:
        pairs = zip(parts[::2], parts[1::2])
        odd = parts[-1:] if len(parts) % 2 else []
        parts = [_EXACT.add(lo, hi.scaleb(shift, _EXACT)) for lo, hi in pairs] + odd
        shift *= 2
    return parts[0]


def mul_trunc(a, b):
    """Truncated Cauchy product of two equal-length integer lists.

    Kronecker substitution (Harvey, J. Symbolic Comput. 44, 2009): with
    X = 10**w and 10**w > 2 n max|a| max|b|, every coefficient of the full
    product lies in (-X/2, X/2), so the integer A(X) B(X) holds them in
    balanced base-X digits.  The one multiplication runs in `decimal`,
    whose libmpdec switches to a number-theoretic transform for large
    operands; CPython's int multiply is only Karatsuba.  Every conversion
    goes through Decimal, so no coefficient meets the int/str digit limit.
    """
    n = len(a)
    bound = n * max(map(abs, a), default=0) * max(map(abs, b), default=0)
    if not bound:
        return [0] * n
    # 10**width > 2 bound, by 30103/100000 > log10(2)
    width = (bound.bit_length() + 1) * 30103 // 100000 + 1
    product = _EXACT.multiply(_pack(a, width), _pack(b, width))
    sign = -1 if product.is_signed() else 1
    # the low n slots: a shift by 0 keeps the last `prec` digits
    low = Context(prec=n * width, Emax=MAX_EMAX).shift(product.copy_abs(), 0)
    digits = str(low).rjust(n * width, "0")
    top = 10**width
    out = []
    carry = 0
    for end in range(n * width, 0, -width):
        v = int(Decimal(digits[end - width:end])) + carry
        carry = 2 * v > top
        out.append(sign * (v - top if carry else v))
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
    one term per nonzero g_k with k <= n.  With S = sum_k g_k f_{n-k} and
    H = sum_k g_k h_{n-k}, h_j = j f_j, the sum of k g_k f_{n-k} is n S - H,
    so the recurrence runs as
        f_n = alpha S - ((alpha+1) H) // n,
    whose division by n is exact because (alpha+1) H = n (alpha S - f_n).
    The terms sharing one value g are read by one itemgetter, extended as
    each becomes active, and summed in C: one multiplication by g per
    value and step, none per term.  At alpha = -1, f_n = -S and no H is
    formed.
    """
    pending = sorted(((k, g) for k, g in terms if g and k <= order), reverse=True)
    scale = alpha + 1
    # f[j + 1] = f_j and h[j + 1] = j f_j, so that at step n slot -k holds
    # f_{n-k}; every getter also reads slot 0, a 0, and so returns a tuple
    f, h = [0, 1], [0, 0]
    slots = {}
    getters = {}
    for n in range(1, order + 1):
        while pending and pending[-1][0] <= n:
            k, g = pending.pop()
            slots.setdefault(g, [0]).append(-k)
            getters[g] = operator.itemgetter(*slots[g])
        if scale:
            s = t = 0
            for g, get in getters.items():
                s += g * sum(get(f))
                t += g * sum(get(h))
            fn = alpha * s - scale * t // n
            h.append(n * fn)
        else:
            fn = 0
            for g, get in getters.items():
                fn -= g * sum(get(f))
        f.append(fn)
    return f[1:]
