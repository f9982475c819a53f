"""Seeded request lists for the four benchmark workloads.

A request is a dict with the CLI argument vector (`argv`), the exit code
the CLI must return (`expect`), the request form (`form`) and the decoded
parameters the output checker needs.  The same (workload, seed, tiny)
always yields the same list.  Sizes are stratified: cli-small draws one
size in each equal slice of a range; the large workloads, which hold few
requests per pass, put sizes on a grid with a small seeded jitter and draw
values from sets of near-equal cost.  Two seeds thus give different inputs
at nearly the same total cost, and the same request tends to sit at each
percentile.

Nothing here imports locq: inputs are made independently of the program
under test.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from fractions import Fraction

# Why each workload exists, and which layers it should and should not move,
# is recorded in BENCHMARK.json.
WORKLOADS = ("verify-all", "cli-small", "exact-large", "numeric-large")

# Exact 1psi1 inputs "a b q z", in groups of near-equal cost: (count drawn
# per pass, cases).  The four window-128 cases of a pass are its slowest
# requests, so the tail latency is read inside one group.  At the commit that introduced the benchmark every case
# reached the automatic window named in the comment, within 10% of its
# group's median time.  Cases with b == q have a terminating lower tail
# (q-binomial theorem); the others are bilateral with |b/a| < |z| < 1.
PSI_EXACT_GROUPS = (
    (2, ["1/2 2/5 2/5 1/8", "-1/2 2/5 2/5 1/8", "2/3 2/5 2/5 1/8", "1/2 2/5 2/5 1/10",
         "-2/3 1/3 1/3 1/8", "3/4 1/3 1/3 1/10", "2/3 1/3 1/3 1/5"]),  # window 32
    (2, ["3/4 1/3 1/3 2/5", "-1/2 1/5 1/5 2/5", "3/4 1/5 1/5 1/4", "-1/2 1/3 1/3 1/5",
         "1/2 2/5 2/5 1/4", "-2/3 2/5 2/5 1/3", "2/3 1/5 1/5 1/4",
         "3/4 2/5 2/5 1/4"]),  # window 64
    (3, ["1/2 2/5 2/5 3/5", "3/4 1/5 1/5 1/2", "-2/3 1/5 1/5 1/2", "-1/2 1/5 1/5 1/2",
         "-2/3 1/5 1/5 3/5", "3/4 2/5 2/5 1/2", "1/2 1/5 1/5 3/5", "2/3 1/5 1/5 1/2",
         "-2/3 2/5 2/5 3/5", "2/3 1/5 1/5 3/5", "2/3 2/5 2/5 1/2"]),  # window 128
    (1, ["-1/2 -1/16 1/2 1/2", "-2/3 -1/12 1/2 1/2", "-2/3 -1/6 1/2 1/2"]),  # 128, bilateral
)

# Saalschutz parameters of one height each, so that the cost of a check
# follows n alone.
SAALSCHUTZ_A = (Fraction(2, 3), Fraction(3, 2), Fraction(3, 4), Fraction(4, 3))
SAALSCHUTZ_B = (Fraction(2, 5), Fraction(5, 2), Fraction(3, 5), Fraction(5, 3))
SAALSCHUTZ_C = (Fraction(-2, 3), Fraction(-3, 2), Fraction(-4, 5), Fraction(-5, 4))
SAALSCHUTZ_Q = (Fraction(3, 10), Fraction(3, 11))


def make_requests(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The request list of one pass; `tiny` shrinks it for the self-tests."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify-all":
        return [{"form": "verify-all", "argv": ["verify-all"], "expect": 0}]
    if workload == "cli-small":
        requests = _cli_small(rng, 1 if tiny else 40)
    elif workload == "exact-large":
        requests = _exact_large(rng, tiny)
    elif workload == "numeric-large":
        requests = _numeric_large(rng, 1 if tiny else 3, tiny)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(requests)
    return requests


# -- helpers -----------------------------------------------------------------


def _strata(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of k equal slices of [lo, hi)."""
    width = (hi - lo) / k
    return [lo + width * (i + rng.random()) for i in range(k)]


def _int_strata(rng: random.Random, k: int, lo: int, hi: int) -> list[int]:
    """Stratified integers in [lo, hi]."""
    return [min(hi, int(v)) for v in _strata(rng, k, lo, hi + 1)]


def _grid(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """k points evenly spread over [lo, hi], each moved by up to a tenth of its slice.

    The large workloads hold few requests per pass, so their sizes stay
    close to a fixed grid: two seeds then cost nearly the same.
    """
    width = (hi - lo) / k
    return [lo + width * (i + 0.5 + 0.2 * (rng.random() - 0.5)) for i in range(k)]


def _int_grid(rng: random.Random, k: int, lo: int, hi: int) -> list[int]:
    return [round(v) for v in _grid(rng, k, lo, hi)]


def _cnum(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _tau(rng: random.Random, im_lo: float, im_hi: float) -> complex:
    return complex(rng.uniform(-0.5, 0.5), rng.uniform(im_lo, im_hi))


def _frac(rng: random.Random, num: tuple[int, int], den: tuple[int, int]) -> Fraction:
    n = 0
    while n == 0:
        n = rng.randint(*num)
    return Fraction(n, rng.randint(*den))


def _is_positive_power(x: Fraction, q: Fraction, kmax: int) -> bool:
    """x == q**k for some 1 <= k <= kmax (0 < q < 1)."""
    p = q
    for _ in range(kmax):
        if p == x:
            return True
        if p < abs(x):
            return False
        p *= q
    return False


def _level_indices(rng: random.Random, level: int) -> tuple[int, int]:
    """Twist indices (k, l) with gcd(k, l, N) == 1, so the period lattice has index N."""
    while True:
        k, l = rng.randrange(level), rng.randrange(level)
        if (k, l) != (0, 0) and math.gcd(math.gcd(k, l), level) == 1:
            return k, l


def _betti(rng: random.Random, max_len: int, max_entry: int) -> list[int]:
    return [1] + [rng.randint(0, max_entry) for _ in range(rng.randint(0, max_len - 1))]


# -- request builders ------------------------------------------------------------


def dh_verify(rng, n_factors: int, c, r_range=(0.5, 3.0)) -> dict:
    factors = [(rng.uniform(*r_range), rng.choice((1, -1)) * rng.uniform(*r_range))
               for _ in range(n_factors)]
    text = ",".join(f"{r!r}:{mu!r}" for r, mu in factors)
    c_text = _cnum(c) if isinstance(c, complex) else repr(c)
    return {"form": "dh-verify", "argv": ["dh-verify", f"--factors={text}", f"--c={c_text}"],
            "expect": 0, "factors": factors, "c": c, "tol": 1e-8}


def spectral_eval(rng, tau: complex) -> dict:
    a = rng.uniform(0.5, 2.0)
    eps = rng.uniform(0.1, 1.0)
    ell = rng.randint(0, 3)
    sign = rng.choice(("minus", "plus"))
    argv = ["spectral-eval", f"--a={a!r}", f"--epsilon={eps!r}", f"--ell={ell}",
            f"--sign={sign}", f"--tau={_cnum(tau)}"]
    return {"form": "spectral-eval", "argv": argv, "expect": 0,
            "a": a, "eps": eps, "ell": ell, "sign": sign, "tau": tau}


def pfaffian(rng, dim: int) -> dict:
    raw = [[rng.gauss(0.0, 1.0) for _ in range(dim)] for _ in range(dim)]
    mat = [[raw[i][j] - raw[j][i] for j in range(dim)] for i in range(dim)]
    return {"form": "pfaffian", "argv": ["pfaffian", f"--matrix={json.dumps(mat)}"],
            "expect": 0, "matrix": mat}


def pochhammer(rng, i: int) -> dict:
    if i % 2:
        a, q = rng.uniform(-0.9, 0.9), rng.uniform(0.1, 0.9)
        return {"form": "pochhammer", "argv": ["qhyper", "pochhammer", f"--a={a!r}",
                                               f"--q={q!r}", "--infinite"],
                "expect": 0, "a": a, "q": q, "n": None}
    while True:
        a = _frac(rng, (-9, 9), (1, 9))
        q = Fraction(rng.randint(1, 8), rng.randint(9, 12))
        n = rng.randint(-6, 6)
        if n >= 0 or not _is_positive_power(a, q, -n):
            break
    return {"form": "pochhammer", "argv": ["qhyper", "pochhammer", f"--a={a}", f"--q={q}",
                                           f"--n={n}"],
            "expect": 0, "a": a, "q": q, "n": n}


def psi_numeric(rng) -> dict:
    """Convergent numeric 1psi1 with |b/a| < |z| < 1 (Ramanujan's sum applies)."""
    a = rng.uniform(0.3, 0.9)
    q = rng.uniform(0.1, 0.5)
    z = rng.uniform(0.3, 0.6)
    b = a * z * rng.uniform(0.2, 0.6)
    argv = ["qhyper", "psi", f"--num={a!r}", f"--den={b!r}", f"--q={q!r}", f"--z={z!r}"]
    return {"form": "psi", "argv": argv, "expect": 0, "a": a, "b": b, "q": q, "z": z,
            "exact": False}


def psi_exact(case: str) -> dict:
    a, b, q, z = (Fraction(t) for t in case.split())
    argv = ["qhyper", "psi", f"--num={a}", f"--den={b}", f"--q={q}", f"--z={z}"]
    return {"form": "psi", "argv": argv, "expect": 0, "a": a, "b": b, "q": q, "z": z,
            "exact": True}


def saalschutz(rng, n: int) -> dict:
    """a, b > 0 and c < 0 keep every denominator factor away from zero."""
    q = Fraction(rng.randint(1, 8), rng.randint(9, 12))
    while True:
        a = _frac(rng, (1, 9), (1, 9))
        b = _frac(rng, (1, 9), (1, 9))
        if not (_is_positive_power(a, q, n + 3) or _is_positive_power(b, q, n + 3)):
            break
    return saalschutz_request(a, b, -_frac(rng, (1, 9), (1, 9)), n, q)


def saalschutz_request(a: Fraction, b: Fraction, c: Fraction, n: int, q: Fraction) -> dict:
    argv = ["qhyper", "saalschutz", f"--a={a}", f"--b={b}", f"--c={c}", f"--n={n}",
            f"--q={q}"]
    return {"form": "saalschutz", "argv": argv, "expect": 0, "a": a, "b": b, "c": c,
            "n": n, "q": q}


def macdonald(rng, order: int, betti: list[int]) -> dict:
    text = ",".join(map(str, betti))
    return {"form": "macdonald", "argv": ["macdonald", f"--betti={text}", f"--order={order}"],
            "expect": 0, "betti": betti, "order": order, "y_bound": None}


def orbifold(rng, order: int, betti: list[int], y_bound: int | None) -> dict:
    text = ",".join(map(str, betti))
    argv = ["orbifold", f"--betti={text}", f"--order={order}"]
    if y_bound is not None:
        argv.append(f"--y-bound={y_bound}")
    return {"form": "orbifold", "argv": argv, "expect": 0, "betti": betti, "order": order,
            "y_bound": y_bound}


def euler_series(chi: int, order: int) -> dict:
    return {"form": "euler-series",
            "argv": ["euler-series", f"--chi={chi}", f"--order={order}"],
            "expect": 0, "chi": chi, "order": order}


def twisted_sym(chi: int, order: int) -> dict:
    return {"form": "twisted-sym", "argv": ["twisted-sym", f"--chi={chi}", f"--order={order}"],
            "expect": 0, "chi": chi, "order": order}


def phi(rng, x_order: int, tau: complex) -> dict:
    return {"form": "phi", "argv": ["phi", f"--tau={_cnum(tau)}", f"--x-order={x_order}"],
            "expect": 0, "tau": tau, "x_order": x_order}


def genus_cpm(rng, level: int, m: int, tau: complex) -> dict:
    k, l = _level_indices(rng, level)
    argv = ["genus-cpm", f"--tau={_cnum(tau)}", f"--N={level}", f"--k={k}", f"--l={l}",
            f"--m={m}"]
    return {"form": "genus-cpm", "argv": argv, "expect": 0, "tau": tau, "N": level,
            "k": k, "l": l, "m": m}


def period_scan(rng, level: int, tau: complex) -> dict:
    k, l = _level_indices(rng, level)
    argv = ["period-scan", f"--tau={_cnum(tau)}", f"--N={level}", f"--k={k}", f"--l={l}"]
    return {"form": "period-scan", "argv": argv, "expect": 0, "tau": tau, "N": level,
            "k": k, "l": l}


# -- workloads -----------------------------------------------------------------


def _cli_small(rng: random.Random, per_form: int) -> list[dict]:
    """All 13 request forms, `per_form` of each, at the README sizes."""
    out = []
    for i in range(per_form):
        c = rng.choice((1, -1)) * math.exp(rng.uniform(math.log(0.01), math.log(5.0)))
        out.append(dh_verify(rng, 1 + i % 4, c))
        out.append(spectral_eval(rng, _tau(rng, 0.5, 2.0)))
        out.append(pfaffian(rng, 2 + 2 * (i % 4)))
        out.append(pochhammer(rng, i))
        out.append(psi_numeric(rng))
        out.append(saalschutz(rng, rng.randint(0, 6)))
    for order in _int_strata(rng, per_form, 8, 20):
        out.append(macdonald(rng, order, _betti(rng, 4, 2)))
    for i, order in enumerate(_int_strata(rng, per_form, 8, 20)):
        out.append(orbifold(rng, order, _betti(rng, 3, 2), 12 if i % 2 else None))
    for order in _int_strata(rng, per_form, 8, 20):
        out.append(euler_series(rng.randint(-3, 3), order))
    for order in _int_strata(rng, per_form, 8, 20):
        out.append(twisted_sym(rng.randint(-3, 3), order))
    for order in _int_strata(rng, per_form, 8, 20):
        out.append(phi(rng, order, _tau(rng, 0.6, 2.0)))
    for i in range(per_form):
        out.append(genus_cpm(rng, 2 + i % 3, rng.randint(1, 8), _tau(rng, 0.8, 1.5)))
        out.append(period_scan(rng, 2 + i % 3, _tau(rng, 0.8, 1.5)))
    return out


def _exact_large(rng: random.Random, tiny: bool) -> list[dict]:
    """Exact big-integer requests; `tiny` shrinks the sizes for self-tests."""
    if tiny:
        return [euler_series(3, 60), twisted_sym(-3, 40), psi_exact(PSI_EXACT_GROUPS[0][1][0]),
                macdonald(rng, 10, [1, 2, 1]), orbifold(rng, 8, [1, 1], None),
                saalschutz(rng, 8)]
    out = []
    # |chi| pairs with the order slice so that every slice costs about the same
    for chi, order in zip((3, -2, 1), _int_grid(rng, 3, 1000, 2000)):
        out.append(euler_series(chi, order))
    for chi, order in zip((-3, 2, 3), _int_grid(rng, 3, 300, 800)):
        out.append(twisted_sym(chi, order))
    shapes = ([1, 2, 1], [1, 0, 3, 0, 1], [1, 4, 6, 4, 1], [1, 2, 2, 2], [1, 1], [1, 3, 1])
    for betti, order in zip(shapes, _int_grid(rng, 6, 16, 30)):
        out.append(macdonald(rng, order, betti))
    shapes = ([1, 1], [1, 2, 1], [1, 0, 2], [1, 2, 1], [1, 1, 1], [1, 0, 1])
    for i, (betti, order) in enumerate(zip(shapes, _int_grid(rng, 6, 16, 30))):
        out.append(orbifold(rng, order, betti, 40 if i == 3 else None))
    # the middle of the latency distribution: a dense run of checks
    for n in _int_grid(rng, 16, 20, 40):
        out.append(saalschutz_request(rng.choice(SAALSCHUTZ_A), rng.choice(SAALSCHUTZ_B),
                                      rng.choice(SAALSCHUTZ_C), n, rng.choice(SAALSCHUTZ_Q)))
    for count, cases in PSI_EXACT_GROUPS:
        out += [psi_exact(case) for case in rng.sample(cases, count)]
    return out


def _numeric_large(rng: random.Random, reps: int, tiny: bool) -> list[dict]:
    """Numeric requests at size; `tiny` shrinks the sizes for self-tests."""
    out = []
    for _ in range(reps):
        # the two largest spaces take the same (real, Decimal) path, so that
        # the slowest requests of a pass cost the same on every seed
        sizes = ((2, False), (3, True)) if tiny else (
            (8, False), (9, True), (10, False), (11, True), (12, False), (12, False))
        for n, complex_c in sizes:
            if complex_c:
                c = rng.choice((1, -1)) * cmath.rect(rng.uniform(0.8, 1.5),
                                                      rng.uniform(-math.pi / 4, math.pi / 4))
            else:
                c = rng.choice((1, -1)) * rng.uniform(0.05, 2.0)
            out.append(dh_verify(rng, n, c, r_range=(1.0, 3.0)))
        dims = [10] if tiny else [2 * round(v / 2) for v in _grid(rng, 5, 10, 60)]
        out += [pfaffian(rng, d) for d in dims]
        for level, m in zip((2, 3, 4, 5), [3] if tiny else _int_grid(rng, 4, 16, 40)):
            out.append(genus_cpm(rng, level, m, _tau(rng, 0.9, 1.1)))
        for order in ([12] if tiny else _int_grid(rng, 4, 40, 60)):
            out.append(phi(rng, order, _tau(rng, 0.45, 0.55)))
        for level in ((4,) if tiny else (4, 5, 6)):
            out.append(period_scan(rng, level, _tau(rng, 0.95, 1.05)))
        ims = [0.05] if tiny else [math.exp(v) for v in _grid(rng, 4, math.log(0.002),
                                                               math.log(0.05))]
        out += [spectral_eval(rng, _tau(rng, im, im)) for im in ims]
    return out
