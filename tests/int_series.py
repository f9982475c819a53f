"""A test-side ring of truncated integer series, independent of locq.kernel.

A series is a list of integers, the coefficients of q^0, ..., q^order.
Each operation is written straight from its definition: the product is
the schoolbook Cauchy sum, the inverse of a unit series is the division
recurrence and the power is square-and-multiply.  The tests use them as
the oracle for the kernel's recurrences and Kronecker product.
"""


def one(order: int) -> list[int]:
    return [1] + [0] * order


def binomial(c: int, e: int, order: int) -> list[int]:
    """1 + c q^e, e >= 0, truncated at `order`."""
    out = one(order)
    if e <= order:
        out[e] += c
    return out


def mul(a, b) -> list:
    """Truncated Cauchy product, to the shorter of the two lengths."""
    n = min(len(a), len(b))
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


def inverse(a: list[int]) -> list[int]:
    """1 / a for a constant term of +-1, from a r = 1 term by term:
    r_n = (delta_n0 - sum_{k=1..n} a_k r_{n-k}) / a_0."""
    if a[0] not in (1, -1):
        raise ValueError("only a constant term of +-1 has an integer inverse")
    r = []
    for n in range(len(a)):
        rest = sum(a[k] * r[n - k] for k in range(1, n + 1))
        r.append(((n == 0) - rest) * a[0])  # dividing by +-1 multiplies by it
    return r


def power(a: list[int], exponent: int) -> list[int]:
    """a**exponent by square-and-multiply; a negative exponent inverts first."""
    base = a if exponent >= 0 else inverse(a)
    e = abs(exponent)
    out = one(len(a) - 1)
    while e:
        if e & 1:
            out = mul(out, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return out
