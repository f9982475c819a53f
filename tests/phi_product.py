"""The q-product route to the building block's x-series, the test-side
reference for locq.genus's theta series.

`phi_product` multiplies the truncated q-product factor by factor as
complex x-series, with a propagated bound; `phi_mpmath` builds Phi's
coefficients from the same product in mpmath at 50 digits, with enough
factors that the dropped ones are below that precision.
"""

import math

import mpmath

from locq.genus import XSeries
from locq.spectral import factor_count, q_power


def phi_product(tau, u: complex, x_order: int, q_tol: float) -> XSeries:
    """(1 - u e^-x) prod_{n=1..m} (1 - a e^-x)(1 - b e^x) / ((1-a)(1-b)) in x.

    Here a = q^n u and b = q^n / u.  At u = 1 this is Phi(x); at u = e^beta
    each factor is that of Phi(x - beta) up to a constant, so the result is
    Phi(x - beta) times a constant.  Coefficient k >= 1 of a pair factor
    is -(a (-1)^k + b) / (k! (1-a)(1-b)) and its constant term is exactly
    1, so the constant term of the result is exactly 1 - u.

    Tail bound, for q_tol <= 1: let M = max(|u|, 1/|u|) and s = |q|.  The
    factor count makes s^(m+1) / (1-s) < q_tol / (8M), so
    D = M s^(m+1) / (1-s) < 1/8, and every dropped factor n > m has
    |a|, |b| <= M s^n <= D.  In the l1 norm of coefficients, which bounds
    each coefficient and is submultiplicative for truncated products, a
    dropped pair factor P_n has
        |P_n - 1| <= (|a| + |b|)(e - 1) / (1 - D)^2 <= 4.5 M s^n,
    so |prod_{n>m} P_n - 1| <= exp(4.5 D) - 1 <= 8 D.  The full product
    therefore differs from the truncated one T by at most |T| 8 D; the
    bound adds one more factor 1/(1-s) and the products' rounding.
    """
    magnitude = max(abs(u), 1.0 / abs(u))
    absq = abs(q_power(tau, 1))
    m = factor_count(1.0, absq, 1, q_tol / 8.0 / magnitude)
    lead = [1.0 - u]
    term = 1.0 + 0j
    for k in range(1, x_order + 1):
        term *= -1.0 / k
        lead.append(-(u * term))
    out = XSeries.from_coeffs(lead)
    for n in range(1, m + 1):
        w = q_power(tau, n)
        a, b = w * u, w / u
        denom = (1.0 - a) * (1.0 - b)
        pair = [1.0 + 0j] + [0j] * x_order
        fact = 1.0
        for k in range(1, x_order + 1):
            fact *= k
            num = b - a if k % 2 else b + a
            if num != 0:
                pair[k] = -num / fact / denom
        out = out * XSeries.from_coeffs(pair)
    tail = 8.0 * (magnitude * absq ** (m + 1)) / (1 - absq) ** 2
    return XSeries(out.order, out.coeffs, tail * out.norm1() + out.coeff_error)


def phi_mpmath(tau: complex, x_order: int) -> list:
    """Phi's coefficients 0..x_order as mpmath complex numbers, at 50
    digits: (1 - e^-x) prod_n (1 - q^n e^-x)(1 - q^n e^x) / (1 - q^n)^2,
    with every factor whose q^n is above 10^-60 in modulus."""
    with mpmath.workdps(50):
        q = mpmath.exp(2j * mpmath.pi * mpmath.mpc(tau))
        count = math.ceil(60 * math.log(10) / (2 * math.pi * tau.imag)) + 1
        fact = [mpmath.factorial(k) for k in range(x_order + 1)]
        out = [mpmath.mpc(0)] + [-(-1) ** k / fact[k] for k in range(1, x_order + 1)]
        for n in range(1, count + 1):
            qn = q ** n
            pair = [mpmath.mpc(1)] + [-(qn * (-1) ** k + qn) / (fact[k] * (1 - qn) ** 2)
                                      for k in range(1, x_order + 1)]
            out = [mpmath.fsum(out[i] * pair[k - i] for i in range(k + 1))
                   for k in range(x_order + 1)]
        return out
