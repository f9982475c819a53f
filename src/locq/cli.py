"""Command-line interface: one JSON-emitting subcommand per operation.

Exit-code contract: 0 on success, 1 when a checked identity fails to hold
(mathematical failure), 2 on invalid input.  Every exit path prints a
single JSON document on one line, strict and with sorted keys
(`python -m json.tool` pretty-prints it); the parsed options are echoed
under "config" so a run can be reproduced from its own output.  Identical
configs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys
from fractions import Fraction

from . import genfunc, genus, localization, pfaffian, qhyper, spectral, verify
from .errors import LocqError, ScanInconclusiveError, UsageError
from .genfunc import BettiData
from .genus import LevelData
from .localization import SphereProductSpace
from .spectral import SpectralParams, Tau


# -- value formatting ----------------------------------------------------------


def cpx(z: complex) -> list[str]:
    """Complex as a two-element array of decimal strings (repr round-trips)."""
    z = complex(z)
    return [repr(z.real), repr(z.imag)]


def frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def parse_complex(text: str) -> complex:
    parts = [p.strip() for p in text.split(",")]
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise UsageError(f"cannot parse complex number from {text!r}: {exc}") from exc
    raise UsageError(f"complex numbers are written 're' or 're,im', got {text!r}")


def parse_scalar(text: str):
    """Integers and 'p/q' strings stay exact; decimals go numeric."""
    text = text.strip()
    if "/" in text or re.fullmatch(r"[+-]?\d+", text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"cannot parse exact rational from {text!r}: {exc}") from exc
    return parse_complex(text)


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse exact rational from {text!r}: {exc}") from exc


def parse_factors(text: str) -> SphereProductSpace:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            r_text, mu_text = chunk.split(":")
            pairs.append((float(r_text), float(mu_text)))
        except ValueError as exc:
            raise UsageError(f"factors are written 'r:mu[,r:mu...]', got {chunk!r}") from exc
    if not pairs:
        raise UsageError("at least one sphere factor is required")
    return SphereProductSpace.of(*pairs)


def scalar_json(value):
    if isinstance(value, Fraction):
        return frac(value)
    return cpx(value)


class _Encoded:
    """A payload value given as strict JSON text, in chunks, for _emit."""

    __slots__ = ("chunks",)

    def __init__(self, chunks):
        self.chunks = chunks


def xseries_json(series: genus.XSeries) -> dict:
    return {
        "var": "x",
        "order": series.order,
        "coeffs": [cpx(c) for c in series.coeffs],
        "coeff_error": series.coeff_error,
    }


# -- handlers -------------------------------------------------------------------


def _cmd_spectral_eval(args) -> tuple[dict, int]:
    params = SpectralParams(
        a=float(args.a),
        epsilon=parse_complex(args.epsilon),
        ell=int(args.ell),
        sign=args.sign,
        tau=Tau(parse_complex(args.tau)),
    )
    result = spectral.evaluate_product(params, rel_tol=float(args.tol))
    return {
        "s": cpx(result.s.s),
        "branch": result.s.branch,
        "value": cpx(result.value),
        "factors_used": result.factors_used,
    }, 0


def _cmd_pfaffian(args) -> tuple[dict, int]:
    if args.matrix_file:
        with open(args.matrix_file, "r", encoding="utf-8") as fh:
            entries = json.load(fh)
    elif args.matrix:
        entries = json.loads(args.matrix)
    else:
        raise UsageError("provide --matrix or --matrix-file")
    a = pfaffian.SkewMatrix(entries)
    form = pfaffian.canonicalize(a)
    return {
        "pfaffian": pfaffian.pfaffian(a),
        "det": a.det(),
        "sqrt_det": pfaffian.sqrt_det(a),
        "lambdas": list(form.lambdas),
        "antisymmetrized": a.adjusted,
    }, 0


def _joined_products(pairs: list[tuple[str, str]]) -> list[str]:
    """The texts "x_1, ..., x_n" for x in itertools.product(*pairs), in order.

    Built by subset doubling, first pair slowest: each child text is its
    parent's plus ", " and the child's element.
    """
    texts = list(pairs[0])
    for pair in pairs[1:]:
        tails = [", " + e for e in pair]
        texts = [t + e for t in texts for e in tails]
    return texts


def _fixed_point_listing(space: SphereProductSpace, points) -> _Encoded:
    """The fixed-point listing as json.dumps(sort_keys=True) writes it, in chunks.

    `points` is enumerate_fixed_points(space), and each point's object is
    {"H": ..., "lambdas": [...], "pole_signs": [...]}.  Its lambdas are the
    factor rates with its signs applied and its pole_signs depend only on
    n, so both array texts are built by subset doubling from the repr of
    the 2n signed rates; H takes float.__repr__ once per point, as the C
    encoder does.  A non-finite rate or H raises the encoder's own
    ValueError (strict JSON).
    """
    rates = [f.rate for f in space.factors]
    h_values = [p.h_value for p in points]
    if not (all(map(math.isfinite, rates)) and all(map(math.isfinite, h_values))):
        # raises at the first non-finite value in document order
        json.dumps([(p.h_value, p.lambdas) for p in points], allow_nan=False)
    lambdas = _joined_products([(repr(r), repr(-r)) for r in rates])
    signs = _joined_products([("1", "-1")] * space.half_dim)
    separators = itertools.chain(("[",), itertools.repeat(", "))
    objects = map('{}{{"H": {}, "lambdas": [{}], "pole_signs": [{}]}}'.format,
                  separators, map(float.__repr__, h_values), lambdas, signs)
    return _Encoded(itertools.chain(objects, ("]",)))


def _cmd_dh_verify(args) -> tuple[dict, int]:
    space = parse_factors(args.factors)
    c = parse_complex(args.c)
    if c.imag == 0.0:
        c = c.real
        if c == 0:
            raise UsageError("c must be nonzero")
    tol = float(args.tol)
    spectral.check_tolerance(tol)
    report = localization.dh_verify(space, c, quad_points=int(args.quad_nodes))
    budget = report.rel_err / tol  # overflows to inf at a tiny --tol; reported as null
    payload = {
        "lhs": cpx(report.lhs) if isinstance(report.lhs, complex) else report.lhs,
        "rhs": cpx(report.rhs) if isinstance(report.rhs, complex) else report.rhs,
        "rel_err": report.rel_err,
        "fixed_points": _fixed_point_listing(space, report.fixed_points),
        "tolerance": tol,
        "diagnostics": {
            "path": "complex" if report.decimal_digits is None else "decimal",
            "decimal_digits": report.decimal_digits,
            "fixed_points": len(report.fixed_points),
            "quad_nodes": int(args.quad_nodes),
            "budget_used": budget if math.isfinite(budget) else None,
        },
    }
    return payload, 0 if report.rel_err < tol else 1


def _cmd_qhyper(args) -> tuple[dict, int]:
    if args.form == "pochhammer":
        a = parse_scalar(args.a)
        q = parse_scalar(args.q)
        if args.infinite:
            value = qhyper.pochhammer_infinite(a, q, tol=float(args.tol))
        else:
            value = qhyper.pochhammer(a, q, int(args.n))
        return {"value": scalar_json(value)}, 0
    if args.form == "psi":
        spec = qhyper.BilateralSeriesSpec.make(
            [parse_scalar(p) for p in args.num.split(";") if p.strip()],
            [parse_scalar(p) for p in args.den.split(";") if p.strip()],
            parse_scalar(args.q),
            parse_scalar(args.z),
        )
        window = int(args.window) if args.window else None
        summary = qhyper.bilateral_psi(spec, window=window, tol=float(args.tol))
        return {
            "value": scalar_json(summary.value),
            "window": summary.window,
            "upper_tail": summary.upper_tail,
            "lower_tail": summary.lower_tail,
            "terminated": [summary.lower_terminated, summary.upper_terminated],
            "converged": summary.converged,
            "notes": summary.notes,
        }, 0
    if args.form == "saalschutz":
        result = qhyper.saalschutz_check(
            parse_fraction(args.a),
            parse_fraction(args.b),
            parse_fraction(args.c),
            int(args.n),
            parse_fraction(args.q),
        )
        return {
            "lhs": frac(result.lhs),
            "rhs": frac(result.rhs),
            "equal": result.equal,
        }, 0 if result.equal else 1
    raise UsageError(f"unknown qhyper form {args.form!r}")


def _cmd_betti_series(args) -> tuple[dict, int]:
    build = (genfunc.macdonald_series if args.subcommand == "macdonald"
             else genfunc.orbifold_series)
    b = BettiData.from_string(args.betti)
    y_bound = int(args.y_bound) if args.y_bound else None
    series = build(b, int(args.order), y_bound)
    payload = series.to_json_dict()
    payload["chi"] = b.chi
    if y_bound is not None:
        payload["y_bound"] = y_bound
    return payload, 0


def _cmd_chi_series(args) -> tuple[dict, int]:
    build = (genfunc.twisted_sym_series if args.subcommand == "twisted-sym"
             else genfunc.equivariant_euler_series)
    return build(int(args.chi), int(args.order)).to_json_dict(), 0


def _cmd_phi(args) -> tuple[dict, int]:
    tau = Tau(parse_complex(args.tau))
    series = genus.phi_series(tau, int(args.x_order), float(args.q_tol))
    return xseries_json(series), 0


def _cmd_genus_cpm(args) -> tuple[dict, int]:
    lvl = LevelData(int(args.N), int(args.k), int(args.l), Tau(parse_complex(args.tau)))
    result = genus.genus_cpm(lvl, int(args.m), float(args.q_tol))
    return {"value": cpx(result.value), "error_bound": result.error_bound}, 0


def _cmd_period_scan(args) -> tuple[dict, int]:
    lvl = LevelData(int(args.N), int(args.k), int(args.l), Tau(parse_complex(args.tau)))
    bound = int(args.trial_bound) if args.trial_bound else None
    try:
        report = genus.lattice_periodicity_scan(
            lvl, trial_bound=bound, tol=float(args.tol), q_tol=float(args.q_tol)
        )
    except ScanInconclusiveError as exc:
        return {"error": str(exc), "index": None}, 1
    return {
        "periods": [list(p) for p in report.periods],
        "index": report.index,
        "level": report.level,
        "max_deviation": report.max_deviation,
    }, 0


def _cmd_verify_all(args) -> tuple[dict, int]:
    results = verify.run_all()
    payload = {
        "suites": [r.to_json_dict() for r in results],
        "all_passed": all(r.passed for r in results),
    }
    return payload, 0 if payload["all_passed"] else 1


# -- parser ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use: parse_args never changes it."""
    parser = _Parser(prog="locq", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("spectral-eval", help="evaluate one spectral infinite product")
    p.add_argument("--a", required=True)
    p.add_argument("--epsilon", default="0")
    p.add_argument("--ell", default="1")
    p.add_argument("--sign", choices=["minus", "plus"], default="minus")
    p.add_argument("--tau", required=True, help="complex as 're,im'")
    p.add_argument("--tol", default="1e-12")
    p.set_defaults(handler=_cmd_spectral_eval)

    p = sub.add_parser("pfaffian", help="Pfaffian and canonical data of a skew matrix")
    p.add_argument("--matrix", help="JSON array of rows")
    p.add_argument("--matrix-file", help="path to a JSON matrix")
    p.set_defaults(handler=_cmd_pfaffian)

    p = sub.add_parser("dh-verify", help="check the fixed-point localization identity")
    p.add_argument("--factors", required=True, help="'r1:mu1,r2:mu2,...'")
    p.add_argument("--c", required=True)
    p.add_argument("--quad-nodes", default="64")
    p.add_argument("--tol", default="1e-8")
    p.set_defaults(handler=_cmd_dh_verify)

    p = sub.add_parser("qhyper", help="q-Pochhammer and bilateral series")
    p.add_argument("form", choices=["pochhammer", "psi", "saalschutz"])
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--c")
    p.add_argument("--q")
    p.add_argument("--z")
    p.add_argument("--n", default="0")
    p.add_argument("--num", default="")
    p.add_argument("--den", default="")
    p.add_argument("--window", default="")
    p.add_argument("--infinite", action="store_true")
    p.add_argument("--tol", default="1e-12")
    p.set_defaults(handler=_cmd_qhyper)

    for name, text in (("macdonald", "symmetric-product Poincare series"),
                       ("orbifold", "orbifold Poincare series")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--betti", required=True, help="'b0,b1,b2,...'")
        p.add_argument("--order", default="8")
        p.add_argument("--y-bound", default="")
        p.set_defaults(handler=_cmd_betti_series)

    for name, text in (("twisted-sym", "twisted symmetric-product Euler series"),
                       ("euler-series", "equivariant Euler-characteristic series")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--chi", required=True)
        p.add_argument("--order", default="20")
        p.set_defaults(handler=_cmd_chi_series)

    p = sub.add_parser("phi", help="building-block series in x")
    p.add_argument("--tau", required=True)
    p.add_argument("--x-order", default="8")
    p.add_argument("--q-tol", default="1e-12")
    p.set_defaults(handler=_cmd_phi)

    p = sub.add_parser("genus-cpm", help="level-N genus of complex projective space")
    p.add_argument("--tau", required=True)
    p.add_argument("--N", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--l", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--q-tol", default="1e-12")
    p.set_defaults(handler=_cmd_genus_cpm)

    p = sub.add_parser("period-scan", help="scan lattice translations for periods")
    p.add_argument("--tau", required=True)
    p.add_argument("--N", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--l", required=True)
    p.add_argument("--trial-bound", default="")
    p.add_argument("--tol", default="1e-8")
    p.add_argument("--q-tol", default="1e-12")
    p.set_defaults(handler=_cmd_period_scan)

    p = sub.add_parser("verify-all", help="run every verification suite")
    p.set_defaults(handler=_cmd_verify_all)

    for sp in sub.choices.values():
        sp.add_argument("--out", default="", help="write the JSON document to a file")

    return parser


def _config_echo(args: argparse.Namespace) -> dict:
    options = {
        k: v
        for k, v in vars(args).items()
        if k not in ("handler", "subcommand", "out") and v is not None
    }
    return {"subcommand": args.subcommand, "options": options}


def _emit(payload: dict, out: str) -> None:
    # One line through the C encoder: any `indent` selects the pure-Python
    # one.  Strict JSON: a non-finite float raises ValueError instead of
    # printing NaN, before any file is opened.  A value that is already text
    # (_Encoded, at most one) goes in at its sorted-key position between the
    # encoded keys either side.  The pieces are written one by one, so no
    # second copy of the document is built.
    encode = functools.partial(json.dumps, sort_keys=True, allow_nan=False)
    key = next((k for k, v in payload.items() if isinstance(v, _Encoded)), None)
    if key is None:
        pieces = (encode(payload), "\n")
    else:
        head = encode({k: v for k, v in payload.items() if k < key})[:-1]
        tail = encode({k: v for k, v in payload.items() if k > key})[1:]
        pieces = itertools.chain(
            (head, ", " if head != "{" else "", encode(key), ": "),
            payload[key].chunks,
            (", " if tail != "}" else "", tail, "\n"),
        )
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(500_000)  # exact outputs can be huge rationals
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        _emit({"error": str(exc), "exit": 2}, "")
        return 2
    try:
        payload, status = args.handler(args)
        payload["config"] = _config_echo(args)
        _emit(payload, args.out)
    except UsageError as exc:
        _emit({"error": str(exc), "config": _config_echo(args), "exit": 2}, "")
        return 2
    except (LocqError, ValueError, ArithmeticError, json.JSONDecodeError, OSError) as exc:
        _emit(
            {
                "error": f"{type(exc).__name__}: {exc}",
                "config": _config_echo(args),
                "exit": 2,
            },
            "",
        )
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
