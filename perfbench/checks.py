"""Output checks for every request form.

Each response must carry the expected exit code and parse as strict JSON
(no NaN or Infinity).  Its content is then compared with an oracle that
does not share the production path:

  euler-series   chi-coloured partition counting by dynamic programming
  twisted-sym    the four products rebuilt by the same dynamic programming
  macdonald      graded-symmetric-power enumeration at low q-order, and the
                 y = -1 and y = 1 specializations at every order
  orbifold       partition-sum enumeration at low q-order, and the y = -1
                 and y = 1 specializations at every order
  pfaffian       Pf^2 against numpy.linalg.det; sqrt_det against (-1)^n Pf
  saalschutz     `equal`, and the closed form from our own Pochhammer products
  pochhammer     the defining finite or truncated infinite product
  psi            Ramanujan's 1psi1 sum; exact sums also against their own
                 exact partial sum and against numeric psi
  dh-verify      rel_err < tol, both sides against 4 pi r sinh(c mu r)/(c mu),
                 and every fixed point's H and rates
  spectral-eval  a vectorized log-sum of the same product, and the s-map
  phi            Phi(0) = 0, Phi'(0) = 1 exactly, and the series at a point
                 against the pointwise product
  genus-cpm      the x^m coefficient against a trapezoidal contour integral
                 of f(x)^-(m+1) built from pointwise f
  period-scan    the kept periods against the twist-character lattice
  verify-all     every suite passed, with the full localization case count
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction

import numpy as np


class CheckFailure(Exception):
    """The response is wrong."""


def check(req: dict, rc: int, text: str) -> str | None:
    """None when the response to `req` is correct, else the reason."""
    if rc != req["expect"]:
        return f"exit code {rc}, expected {req['expect']}"
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return f"not strict JSON: {exc}"
    try:
        _expect(payload["config"]["subcommand"] == req["argv"][0], "config echo")
        CHECKS[req["form"]](req, payload)
    except CheckFailure as exc:
        return f"{req['form']}: {exc}"
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return f"{req['form']}: malformed response ({type(exc).__name__}: {exc})"
    return None


def repeatable_bytes(req: dict, text: str) -> bytes:
    """The part of a response that must be byte-identical from run to run.

    verify-all embeds each suite's wall-clock `seconds` in its output, so
    those fields are masked; everything else is compared byte for byte.
    """
    if req["form"] != "verify-all":
        return text.encode()
    try:
        payload = json.loads(text)
    except ValueError:
        return text.encode()
    for suite in payload.get("suites", []):
        suite.pop("seconds", None)
    return json.dumps(payload, sort_keys=True).encode()


def _reject_constant(name: str):
    raise ValueError(f"non-finite constant {name}")


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailure(what)


def _close(got, want, rel: float, what: str, floor: float = 0.0) -> None:
    err = abs(got - want)
    if not err <= rel * max(abs(want), floor):
        raise CheckFailure(f"{what}: got {got!r}, want {want!r} (|err| {err:.3g})")


def _cpx(value) -> complex:
    if isinstance(value, list):
        return complex(float(value[0]), float(value[1]))
    return complex(value)


def _frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# -- exact series ---------------------------------------------------------------


def _apply_binomial(c: list[int], part: int, exponent: int, sign: int) -> None:
    """c *= (1 + sign q^part)^exponent in place, truncated to len(c)."""
    top = len(c) - 1
    for _ in range(abs(exponent)):
        if exponent > 0:
            for n in range(top, part - 1, -1):
                c[n] += sign * c[n - part]
        else:
            for n in range(part, top + 1):
                c[n] -= sign * c[n - part]


def binomial_product(order: int, parts, exponent: int, sign: int) -> list[int]:
    """prod over `parts` of (1 + sign q^part)^exponent, to q^order."""
    c = [1] + [0] * order
    for part in parts:
        if part <= order:
            _apply_binomial(c, part, exponent, sign)
    return c


def _series_ints(payload: dict, order: int) -> list[int]:
    _expect(payload["var"] == "q" and payload["order"] == order, "order echo")
    out = []
    for text in payload["coeffs"]:
        num, den = text.split("/")
        _expect(den == "1", f"non-integer coefficient {text}")
        out.append(int(num))
    _expect(len(out) == order + 1, "coefficient count")
    return out


def _check_euler_series(req, payload) -> None:
    order = req["order"]
    want = binomial_product(order, range(1, order + 1), -req["chi"], -1)
    got = _series_ints(payload, order)
    bad = [n for n in range(order + 1) if got[n] != want[n]]
    _expect(not bad, f"coefficients differ from partition counts at q^{bad[:3]}")


def _check_twisted_sym(req, payload) -> None:
    order, chi = req["order"], req["chi"]
    odd, even = range(1, order + 1, 2), range(2, order + 1, 2)
    a = binomial_product(order, odd, -chi, -1)
    b = binomial_product(order, odd, chi, 1)
    c_plus = binomial_product(order, even, chi, 1)
    c_minus = binomial_product(order, even, chi, -1)
    bracket2 = [cp - cm for cp, cm in zip(c_plus, c_minus)]
    bracket2[0] += 2
    twice = [2 * v for v in a]
    for i, bi in enumerate(b):
        if bi:
            for j in range(order + 1 - i):
                twice[i + j] += bi * bracket2[j]
    _expect(all(v % 2 == 0 for v in twice), "oracle produced half-integers")
    got = _series_ints(payload, order)
    bad = [n for n in range(order + 1) if 2 * got[n] != twice[n]]
    _expect(not bad, f"coefficients differ from the product oracle at q^{bad[:3]}")


def _bivariate(payload: dict, order: int) -> list[dict[int, int]]:
    _expect(payload["var"] == "q" and payload["order"] == order, "order echo")
    coeffs = [{int(e): int(c) for e, c in d.items()} for d in payload["coeffs"]]
    _expect(len(coeffs) == order + 1, "coefficient count")
    return coeffs


def _specialize(coeffs: list[dict[int, int]], y: int) -> list[int]:
    return [sum(c * y**e for e, c in d.items()) for d in coeffs]


def _betti_signs(betti: list[int]) -> tuple[int, int, int]:
    odd = sum(b for j, b in enumerate(betti) if j % 2)
    even = sum(b for j, b in enumerate(betti) if j % 2 == 0)
    return even - odd, odd, even


def _filtered(poly: dict[int, int], y_bound) -> dict[int, int]:
    if y_bound is None:
        return poly
    return {e: c for e, c in poly.items() if abs(e) <= y_bound}


MACDONALD_ORACLE_ORDER = 6
ORBIFOLD_ORACLE_ORDER = 5


def _check_macdonald(req, payload) -> None:
    from locq import genfunc

    order, betti = req["order"], req["betti"]
    chi, odd, even = _betti_signs(betti)
    _expect(payload["chi"] == chi, "chi echo")
    coeffs = _bivariate(payload, order)
    b = genfunc.BettiData(tuple(betti))
    for n in range(min(order, MACDONALD_ORACLE_ORDER) + 1):
        _expect(coeffs[n] == genfunc.sym_poincare_oracle(b, n),
                f"q^{n} differs from the symmetric-power enumeration")
    # y = -1: (1-q)^(-chi);  y = 1: (1+q)^odd / (1-q)^even
    want_m1 = binomial_product(order, [1], -chi, -1)
    want_p1 = binomial_product(order, [1], odd, 1)
    _apply_binomial(want_p1, 1, -even, -1)
    _expect(_specialize(coeffs, -1) == want_m1, "y = -1 specialization")
    _expect(_specialize(coeffs, 1) == want_p1, "y = 1 specialization")


def _check_orbifold(req, payload) -> None:
    from locq import genfunc

    order, betti, y_bound = req["order"], req["betti"], req["y_bound"]
    chi, odd, even = _betti_signs(betti)
    _expect(payload["chi"] == chi, "chi echo")
    coeffs = _bivariate(payload, order)
    b = genfunc.BettiData(tuple(betti))
    for n in range(min(order, ORBIFOLD_ORACLE_ORDER) + 1):
        _expect(coeffs[n] == _filtered(genfunc.orbifold_oracle(b, n), y_bound),
                f"q^{n} differs from the partition-sum enumeration")
    if y_bound is not None:
        _expect(all(abs(e) <= y_bound for d in coeffs for e in d), "y-bound not applied")
        return
    parts = range(1, order + 1)
    want_m1 = binomial_product(order, parts, -chi, -1)
    want_p1 = binomial_product(order, parts, odd, 1)
    for part in parts:
        _apply_binomial(want_p1, part, -even, -1)
    _expect(_specialize(coeffs, -1) == want_m1, "y = -1 specialization")
    _expect(_specialize(coeffs, 1) == want_p1, "y = 1 specialization")


# -- q-hypergeometric ------------------------------------------------------------


def _pochhammer_exact(a: Fraction, q: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    if n >= 0:
        for k in range(n):
            out *= 1 - a * q**k
        return out
    for k in range(1, -n + 1):
        out /= 1 - a * q**-k
    return out


def _qinf(x: complex, q: complex) -> complex:
    """(x; q)_infinity, |q| < 1, to full double precision."""
    out, term = 1 + 0j, complex(x)
    while abs(term) > 1e-18:
        out *= 1 - term
        term *= q
    return out


def ramanujan_1psi1(a, b, q, z) -> complex:
    """Ramanujan's closed form of the bilateral 1psi1 sum."""
    num = _qinf(q, q) * _qinf(b / a, q) * _qinf(a * z, q) * _qinf(q / (a * z), q)
    den = _qinf(b, q) * _qinf(q / a, q) * _qinf(z, q) * _qinf(b / (a * z), q)
    return num / den


def psi_partial_sum(a: Fraction, b: Fraction, q: Fraction, z: Fraction, window: int) -> Fraction:
    """Exact 1psi1 partial sum over |n| <= window, by the term-ratio recurrence.

    t_{n+1} / t_n = (1 - a q^n) z / (1 - b q^n); a vanishing factor
    (1 - b q^n) at n < 0 makes every further lower term 0, as it should.
    """
    total, term, qn = Fraction(1), Fraction(1), Fraction(1)
    for _ in range(window):
        term = term * (1 - a * qn) * z / (1 - b * qn)
        qn *= q
        total += term
    term, qn = Fraction(1), Fraction(1)
    for _ in range(window):
        qn /= q
        if term:
            term = term * (1 - b * qn) / ((1 - a * qn) * z)
        total += term
    return total


def _check_pochhammer(req, payload) -> None:
    if req["n"] is None:
        _close(_cpx(payload["value"]), _qinf(req["a"], req["q"]), 1e-10, "(a;q)_inf")
        return
    want = _pochhammer_exact(req["a"], req["q"], req["n"])
    _expect(payload["value"] == _frac_str(want), f"(a;q)_n = {payload['value']}, want {want}")


def _check_psi(req, payload) -> None:
    _expect(payload["converged"] is True, "not converged")
    a, b, q, z = req["a"], req["b"], req["q"], req["z"]
    if not req["exact"]:
        _close(_cpx(payload["value"]), ramanujan_1psi1(a, b, q, z), 1e-9, "1psi1 sum")
        return
    from locq import qhyper

    value = Fraction(payload["value"])
    _expect(value == psi_partial_sum(a, b, q, z, payload["window"]),
            "exact psi differs from the exact partial sum over its window")
    numeric = qhyper.bilateral_psi(qhyper.BilateralSeriesSpec.make(
        [complex(a)], [complex(b)], complex(q), complex(z))).value
    _close(float(value), numeric.real, 1e-9, "exact psi vs numeric psi", floor=1.0)
    if b == q or abs(b / a) < abs(z) < 1:
        _close(float(value), ramanujan_1psi1(float(a), float(b), float(q), float(z)).real,
               1e-9, "exact psi vs Ramanujan's sum", floor=1.0)


def _check_saalschutz(req, payload) -> None:
    a, b, c, n, q = req["a"], req["b"], req["c"], req["n"], req["q"]
    _expect(payload["equal"] is True and payload["lhs"] == payload["rhs"], "sides differ")
    want = (_pochhammer_exact(c / a, q, n) * _pochhammer_exact(c / b, q, n)
            / (_pochhammer_exact(c, q, n) * _pochhammer_exact(c / (a * b), q, n)))
    _expect(payload["rhs"] == _frac_str(want), "closed form differs from our product")


# -- numeric ----------------------------------------------------------------------


def _check_pfaffian(req, payload) -> None:
    m = np.asarray(req["matrix"], dtype=float)
    half = m.shape[0] // 2
    det = float(np.linalg.det(m))
    pf, sqrt_det = float(payload["pfaffian"]), float(payload["sqrt_det"])
    _close(pf * pf, det, 1e-8, "Pf^2 vs det")
    _close(float(payload["det"]), det, 1e-10, "det echo")
    _close(sqrt_det, (-1) ** half * pf, 1e-8, "sqrt_det vs (-1)^n Pf")
    lambdas = payload["lambdas"]
    _expect(len(lambdas) == half, "rate count")
    _close(math.prod(lambdas), sqrt_det, 1e-10, "prod of rates vs sqrt_det")
    _expect(payload["antisymmetrized"] is False, "exactly skew input was adjusted")


def _closed_factor(r: float, mu: float, c):
    x = c * mu * r
    sinh = cmath.sinh(x) if isinstance(x, complex) else math.sinh(x)
    return 4.0 * math.pi * r * sinh / (c * mu)


def _check_dh_verify(req, payload) -> None:
    factors, c, tol = req["factors"], req["c"], req["tol"]
    _expect(payload["rel_err"] < tol and payload["tolerance"] == tol, "rel_err >= tol")
    closed = math.prod(_closed_factor(r, mu, c) for r, mu in factors)
    _close(_cpx(payload["lhs"]), closed, tol, "quadrature side vs closed form")
    _close(_cpx(payload["rhs"]), closed, tol, "fixed-point side vs closed form")
    points = payload["fixed_points"]
    _expect(len(points) == 2 ** len(factors), "fixed-point count")
    seen = set()
    for p in points:
        signs = tuple(p["pole_signs"])
        seen.add(signs)
        h = sum(s * mu * r for s, (r, mu) in zip(signs, factors))
        _close(p["H"], h, 1e-12, "H at a pole", floor=1.0)
        for lam, s, (r, mu) in zip(p["lambdas"], signs, factors):
            _close(lam, s * mu / r, 1e-12, "rotation rate")
    _expect(len(seen) == len(points) and all(abs(s) == 1 for sg in seen for s in sg),
            "pole sign patterns")


def _check_spectral_eval(req, payload) -> None:
    a, eps, ell, sign, tau = req["a"], req["eps"], req["ell"], req["sign"], req["tau"]
    ratio = abs(cmath.exp(2j * math.pi * tau * a))
    first = abs(cmath.exp(2j * math.pi * tau * (a * ell + eps)))
    count = ell + 2 + max(0, math.ceil(math.log(1e-18 / first) / math.log(ratio)))
    n = np.arange(ell, count, dtype=float)
    w = np.exp(2j * np.pi * tau * (a * n + eps))
    want = complex(np.exp(np.sum(np.log1p(w if sign == "plus" else -w))))
    _close(_cpx(payload["value"]), want, 1e-9, "product vs log-sum")
    rho, sigma = tau.real / tau.imag, 1.0 / (2.0 * tau.imag)
    s = (a * ell + eps) * (1 - 1j * rho) + 1 - a + (1j * sigma if sign == "plus" else 0)
    _close(_cpx(payload["s"]), s, 1e-12, "spectral argument", floor=1.0)
    _expect(payload["branch"] == sign and payload["factors_used"] >= 1, "branch")


def phi_pointwise(tau: complex, x: complex) -> complex:
    """Phi(x) from the vectorized product, independent of the x-series."""
    q = cmath.exp(2j * math.pi * tau)
    count = 2 + math.ceil(math.log(1e-18) / math.log(abs(q)))
    qn = q ** np.arange(1, count, dtype=float)
    logs = np.log1p(-qn * cmath.exp(-x)) + np.log1p(-qn * cmath.exp(x)) - 2 * np.log1p(-qn)
    return (1 - cmath.exp(-x)) * complex(np.exp(np.sum(logs)))


def _check_phi(req, payload) -> None:
    order = req["x_order"]
    _expect(payload["var"] == "x" and payload["order"] == order, "order echo")
    coeffs = [_cpx(c) for c in payload["coeffs"]]
    _expect(len(coeffs) == order + 1, "coefficient count")
    _expect(coeffs[0] == 0 and coeffs[1] == 1, "Phi(0) = 0 and Phi'(0) = 1 must be exact")
    _expect(0 <= payload["coeff_error"] < 1e-6, "coefficient error bound")
    x = 0.05 + 0.03j
    value = sum(c * x**k for k, c in enumerate(coeffs))
    _close(value, phi_pointwise(req["tau"], x), 1e-9, "series vs pointwise product")


def _check_genus_cpm(req, payload) -> None:
    from locq import genus, spectral

    m = req["m"]
    level = genus.LevelData(req["N"], req["k"], req["l"], spectral.Tau(req["tau"]))
    nodes = 2 * (m + 1) + 64
    terms = []
    for j in range(nodes):
        x = cmath.exp(2j * math.pi * (j + 0.5) / nodes)
        terms.append(x * genus.f_point(level, x) ** -(m + 1))
    residue = sum(terms) / nodes
    scale = max(abs(t) for t in terms)
    bound = float(payload["error_bound"])
    _expect(0 <= bound < math.inf, "error bound")
    # the contour sum is exact up to rounding of its largest term
    err = abs(_cpx(payload["value"]) - residue)
    _expect(err <= 1e-12 * scale + bound,
            f"x^{m} coefficient differs from the contour integral by {err:.3g}")


def _check_period_scan(req, payload) -> None:
    n, k, l = req["N"], req["k"], req["l"]
    _expect(payload["index"] == n and payload["level"] == n, "sublattice index")
    want = sorted([m, mp] for m in range(-n, n + 1) for mp in range(-n, n + 1)
                  if (k * mp - l * m) % n == 0)
    _expect(payload["periods"] == want, "periods differ from the twist-character lattice")
    _expect(0 <= payload["max_deviation"] < 1e-8, "deviation of kept periods")


def _check_verify_all(req, payload) -> None:
    suites = payload["suites"]
    _expect(payload["all_passed"] is True, "a suite failed")
    _expect(len(suites) == 9 and all(s["passed"] is True for s in suites), "suite list")
    local = [s for s in suites if s["name"] == "dh-localization"]
    _expect(len(local) == 1 and local[0]["details"]["checks"] == 19376,
            "localization case count")


CHECKS = {
    "euler-series": _check_euler_series,
    "twisted-sym": _check_twisted_sym,
    "macdonald": _check_macdonald,
    "orbifold": _check_orbifold,
    "pochhammer": _check_pochhammer,
    "psi": _check_psi,
    "saalschutz": _check_saalschutz,
    "pfaffian": _check_pfaffian,
    "dh-verify": _check_dh_verify,
    "spectral-eval": _check_spectral_eval,
    "phi": _check_phi,
    "genus-cpm": _check_genus_cpm,
    "period-scan": _check_period_scan,
    "verify-all": _check_verify_all,
}
