"""Command-line interface: one JSON-emitting subcommand per operation.

Exit-code contract: 0 on success, 1 when a checked identity fails to hold
(mathematical failure), 2 on invalid input, and 2 with nothing more written
when the reader of stdout closes it early.  Every other exit path prints a
single JSON document on one line, strict and with sorted keys; the options
read are echoed under "config", and identical configs give identical bytes.
-h or --help answers {"help": usage text} and exit 0.  Options are written
`--name value` or `--name=value`, in full, and each subcommand or qhyper
form takes only its own.  A malformed value is named first, then every
unrecognized word, then every missing option.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import genfunc, genus, localization, pfaffian, qhyper, spectral, verify
from .errors import LocqError, ScanInconclusiveError, UsageError, require_double
from .genfunc import BettiData
from .genus import LevelData
from .localization import SphereProductSpace
from .series import MAX_DIGITS, BivariateSeries, FormalSeries
from .spectral import SpectralParams, Tau


# -- value formatting ----------------------------------------------------------
# This module alone reads and writes the CLI's text: the library's records
# hold what a computation found, and the encoders below write them.


def cpx(z: complex) -> list[str]:
    """Complex as a two-element array of decimal strings (repr round-trips).

    A value that is not finite is refused (require_double): "nan" and "inf"
    would pass the strict encoder as strings.
    """
    z = require_double("the complex result", complex(z))
    return [repr(z.real), repr(z.imag)]


def frac(value: Fraction | int) -> str:
    """An exact rational as "p/q"; an int's denominator is 1.  One with
    more than MAX_DIGITS digits in either is refused by name."""
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # int to str past sys.get_int_max_str_digits()
        raise ValueError(f"an exact result has more than MAX_DIGITS = {MAX_DIGITS} digits "
                         f"in its numerator or denominator") from None


def finite_or_none(x: float) -> float | None:
    """x, or None where strict JSON has no number for it."""
    return x if math.isfinite(x) else None


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
    if "/" in text or (text[1:] if text[:1] in ("+", "-") else text).isdecimal():
        return parse_fraction(text)
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


def parse_betti(text: str) -> BettiData:
    """Betti numbers written 'b0,b1,b2,...'; an empty text is the empty space."""
    return BettiData(tuple(int(p) for p in text.split(",")) if text.strip() else ())


def scalar_json(value):
    if isinstance(value, Fraction):
        return frac(value)
    return cpx(value)


class _Encoded:
    """A payload value given as strict JSON text, in chunks, for _emit."""

    __slots__ = ("chunks",)

    def __init__(self, chunks):
        self.chunks = chunks


def formal_series_json(series: FormalSeries) -> dict:
    return {"var": "q", "order": series.order, "coeffs": list(map(frac, series.coeffs))}


def bivariate_series_json(series: BivariateSeries) -> dict:
    coeffs = [{str(e): c for e, c in sorted(d.items())} for d in series.coeffs]
    data = {"var": "q", "order": series.order, "coeffs": coeffs}
    return {**data, "y_truncated": True} if series.y_truncated else data


def xseries_json(series: genus.XSeries) -> dict:
    return {"var": "x", "order": series.order, "coeffs": [cpx(c) for c in series.coeffs],
            "coeff_error": series.coeff_error}


def row_json(row: verify.Row) -> dict:
    budget = None if row.tolerance is None else finite_or_none(row.worst / row.tolerance)
    return {"identity": row.identity, "checks": row.checks, "worst": finite_or_none(row.worst),
            "tolerance": row.tolerance, "budget_used": budget, "passed": row.passed}


def suite_json(suite: verify.SuiteResult) -> dict:
    details = {"checks": sum(row.checks for row in suite.rows),
               "rows": list(map(row_json, suite.rows))}
    return {"name": suite.name, "passed": suite.passed, "details": details}


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
        "s": cpx(spectral.s_of_params(params)),
        "branch": params.sign,
        "value": cpx(result.value),
        "factors_used": result.factors_used,
    }, 0


_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean",
               type(None): "null", int: "number", float: "number"}


def _json_type(value) -> str:
    """The JSON type of a json.loads value, with its Python type's name."""
    return f"JSON {_JSON_TYPES[type(value)]} ({type(value).__name__!r})"


def _check_matrix(entries) -> None:
    """Reject a parsed JSON matrix that is not an array of rows of numbers.

    JSON numbers load as int or float; a string, boolean or null entry
    raises a ValueError naming the first one, in row-major order, and its
    JSON type, before NumPy could convert it ("2" to 2.0, true to 1.0, null
    to nan).  A row whose length is not the number of rows raises one that
    names the row, where NumPy would name none.
    """
    prefix = "matrix entries must be real numbers: "
    if not isinstance(entries, list):
        raise ValueError(f"{prefix}got {_json_type(entries)}, not an array of rows")
    for row, values in enumerate(entries):
        if not isinstance(values, list):
            raise ValueError(f"{prefix}row {row} is {_json_type(values)}, not an array")
        if len(values) != len(entries):
            raise ValueError(f"square matrix required, got {len(values)} entries in row "
                             f"{row} of {len(entries)} rows")
        for col, value in enumerate(values):
            if type(value) not in (int, float):
                raise ValueError(
                    f"{prefix}got {_json_type(value)} at (row, col) = ({row}, {col})")


def _cmd_pfaffian(args) -> tuple[dict, int]:
    if args.matrix_file is not None:
        with open(args.matrix_file, "r", encoding="utf-8") as fh:
            entries = json.load(fh)
    else:
        entries = json.loads(args.matrix)
    _check_matrix(entries)
    a = pfaffian.SkewMatrix(entries)
    form = pfaffian.canonicalize(a)
    return {
        # canonicalize refused a singular matrix: a value below the normal doubles underflowed
        "pfaffian": require_double("Pfaffian", pfaffian.pfaffian(a), normal=True),
        "det": require_double("determinant", a.det(), normal=True),
        "sqrt_det": require_double("sqrt_det", form.sqrt_det, normal=True),
        "lambdas": [require_double("rotation rate", rate, normal=True) for rate in form.lambdas],
        "antisymmetrized": a.adjusted,
    }, 0


def _joined_products(pairs: list[tuple[str, str]]) -> list[str]:
    """The texts "x_1, ..., x_n" for x in itertools.product(*pairs), in order
    (one empty text for no pairs).  Built by subset doubling, first pair
    slowest: each child text is its parent's, ", " and the child's element."""
    texts = [""]
    for i, pair in enumerate(pairs):
        tails = [", " + e for e in pair] if i else pair
        texts = [t + e for t in texts for e in tails]
    return texts


def _fixed_point_listing(space: SphereProductSpace, h_values: list[float]) -> _Encoded:
    """The fixed-point listing as json.dumps(sort_keys=True) writes it, in chunks.

    Point p's object is {"H": h_values[p], "lambdas": [...], "pole_signs":
    [...]}, its arrays the p-th itertools.product entries of the factors'
    (rate, -rate) pairs and of the signs.  A chunk joins the 2^9 points that
    share all signs but the last 9, each array their head and one of 2^9
    tails, all built by subset doubling.  enumerate_fixed_points gives point
    2^n - 1 - p the H 0 - H(p), so only half of H takes float.__repr__.
    SphereFactor refuses a rate, and enumerate_fixed_points an H, that is
    not finite.
    """
    split = max(space.half_dim - 9, 0)
    rates = [(repr(f.rate), repr(-f.rate)) for f in space.factors]
    signs = [("1", "-1")] * space.half_dim
    rate_tails, sign_tails = _joined_products(rates[split:]), _joined_products(signs[split:])
    sep = ", " if split else ""
    heads = [(rate + sep, sign + sep) for rate, sign in
             zip(_joined_products(rates[:split]), _joined_products(signs[:split]))]
    half = list(map(float.__repr__, h_values[:len(h_values) // 2]))
    h_texts = half + [t[1:] if t[0] == "-" else "0.0" if t == "0.0" else "-" + t
                      for t in reversed(half)]
    size = len(sign_tails)
    chunks = itertools.chain.from_iterable(("[" if b == 0 else ", ", ", ".join([
        f'{{"H": {h}, "lambdas": [{rate_head}{rate}], "pole_signs": [{sign_head}{sign}]}}'
        for h, rate, sign in zip(h_texts[b * size:(b + 1) * size], rate_tails, sign_tails)]))
        for b, (rate_head, sign_head) in enumerate(heads))
    return _Encoded(itertools.chain(chunks, ("]",)))


def _cmd_dh_verify(args) -> tuple[dict, int]:
    space = parse_factors(args.factors)
    c = parse_complex(args.c)
    if c.imag == 0.0:
        c = c.real
        if c == 0:
            raise UsageError("c must be nonzero")
    tol = float(args.tol)
    spectral.check_tolerance(tol)
    report = localization.dh_verify(space, c)
    h_values = localization.enumerate_fixed_points(space)
    budget = report.rel_err / tol  # overflows to inf at a tiny --tol; reported as null
    payload = {
        "lhs": cpx(report.lhs) if isinstance(report.lhs, complex) else report.lhs,
        "rhs": cpx(report.rhs) if isinstance(report.rhs, complex) else report.rhs,
        "rel_err": report.rel_err,
        "fixed_points": _fixed_point_listing(space, h_values),
        "tolerance": tol,
        "diagnostics": {
            "fixed_points": len(h_values),
            "quad_nodes": list(report.quad_nodes),
            "rhs_bound": finite_or_none(report.rhs_bound),
            "budget_used": finite_or_none(budget),
        },
    }
    return payload, 0 if report.rel_err < tol else 1


def _cmd_pochhammer(args) -> tuple[dict, int]:
    if args.tol is not None and not args.infinite:
        raise UsageError("argument --tol: not allowed without argument --infinite")
    a, q = parse_scalar(args.a), parse_scalar(args.q)
    if args.infinite:
        tol = 1e-12 if args.tol is None else float(args.tol)
        value = qhyper.pochhammer_infinite(a, q, tol=tol)
    else:
        value = qhyper.pochhammer(a, q, 0 if args.n is None else int(args.n))
    return {"value": scalar_json(value)}, 0


def _cmd_psi(args) -> tuple[dict, int]:
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
        "upper_tail": finite_or_none(summary.upper_tail),
        "lower_tail": finite_or_none(summary.lower_tail),
        "terminated": [summary.lower_terminated, summary.upper_terminated],
        "converged": summary.converged,
        "tail_bound": finite_or_none(summary.tail_bound),
        "notes": summary.notes,
    }, 0


def _cmd_saalschutz(args) -> tuple[dict, int]:
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


def _cmd_betti_series(args) -> tuple[dict, int]:
    build = (genfunc.macdonald_series if args.subcommand == "macdonald"
             else genfunc.orbifold_series)
    b = parse_betti(args.betti)
    y_bound = int(args.y_bound) if args.y_bound else None
    payload = bivariate_series_json(build(b, int(args.order), y_bound))
    payload["chi"] = b.chi
    if y_bound is not None:
        payload["y_bound"] = y_bound
    return payload, 0


def _cmd_chi_series(args) -> tuple[dict, int]:
    build = (genfunc.twisted_sym_series if args.subcommand == "twisted-sym"
             else genfunc.equivariant_euler_series)
    return formal_series_json(build(int(args.chi), int(args.order))), 0


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
        "level": lvl.level,
        "max_deviation": report.max_deviation,
    }, 0


def _cmd_verify_all(args) -> tuple[dict, int]:
    results = verify.run_all()
    payload = {
        "suites": list(map(suite_json, results)),
        "all_passed": all(r.passed for r in results),
    }
    return payload, 0 if payload["all_passed"] else 1


# -- grammar ---------------------------------------------------------------------
# Each path a request can name, () and a subcommand or ("qhyper", form): its
# help, its handler (None where the next word names a path below it) and its
# options, {option: (reader, default, help, group)}.  A reader is str, int or
# float (the text must convert; it stays text for the handler and the config
# echo), [int] (ints joined by commas, a blank text none), a tuple of choices
# or bool (a flag).  A default is a text, None (not echoed), False (a flag) or
# REQUIRED; a value equal to it is taken unchecked (`--window ""` is unset).
# Options of a group exclude each other; if REQUIRED, one of them is required.

REQUIRED = object()
_POSITIONALS = ("subcommand", "form")  # the attributes of the words that name a path
_BETTI = {"--betti": ([int], REQUIRED, "'b0,b1,b2,...'", None),
          "--order": (int, "8", "", None),
          "--y-bound": (int, "", "", None)}
_CHI = {"--chi": (int, REQUIRED, "", None),
        "--order": (int, "20", "", None)}

_TABLE = {
    (): (__doc__, None, {}),
    ("spectral-eval",): ("evaluate one spectral infinite product", _cmd_spectral_eval, {
        "--a": (float, REQUIRED, "", None),
        "--epsilon": (str, "0", "", None),
        "--ell": (int, "1", "", None),
        "--sign": (("minus", "plus"), "minus", "", None),
        "--tau": (str, REQUIRED, "complex as 're,im'", None),
        "--tol": (float, "1e-12", "", None)}),
    ("pfaffian",): ("Pfaffian and canonical data of a skew matrix", _cmd_pfaffian, {
        "--matrix": (str, REQUIRED, "JSON array of rows", "matrix"),
        "--matrix-file": (str, REQUIRED, "path to a JSON matrix", "matrix")}),
    ("dh-verify",): ("check the fixed-point localization identity", _cmd_dh_verify, {
        "--factors": (str, REQUIRED, "'r1:mu1,r2:mu2,...'", None),
        "--c": (str, REQUIRED, "", None),
        "--tol": (float, "1e-8", "", None)}),
    ("qhyper",): ("q-Pochhammer symbol, bilateral sum and q-Saalschutz check", None, {}),
    ("qhyper", "pochhammer"): ("(a;q)_n, or (a;q)_infinity with --infinite", _cmd_pochhammer, {
        **dict.fromkeys(("--a", "--q"), (str, REQUIRED, "", None)),
        "--n": (int, None, "default 0", "n"),
        "--infinite": (bool, False, "", "n"),
        "--tol": (float, None, "default 1e-12; only with --infinite", None)}),
    ("qhyper", "psi"): ("bilateral basic hypergeometric sum", _cmd_psi, {
        "--num": (str, "", "numerator parameters 'a1;a2;...'", None),
        "--den": (str, "", "denominator parameters 'b1;b2;...'", None),
        **dict.fromkeys(("--q", "--z"), (str, REQUIRED, "", None)),
        "--window": (int, "", "", None),
        "--tol": (float, "1e-12", "", None)}),
    ("qhyper", "saalschutz"): ("check the terminating q-Saalschutz identity", _cmd_saalschutz, {
        **dict.fromkeys(("--a", "--b", "--c"), (str, REQUIRED, "", None)),
        "--n": (int, "0", "", None),
        "--q": (str, REQUIRED, "", None)}),
    ("macdonald",): ("symmetric-product Poincare series", _cmd_betti_series, _BETTI),
    ("orbifold",): ("orbifold Poincare series", _cmd_betti_series, _BETTI),
    ("twisted-sym",): ("twisted symmetric-product Euler series", _cmd_chi_series, _CHI),
    ("euler-series",): ("equivariant Euler-characteristic series", _cmd_chi_series, _CHI),
    ("phi",): ("building-block series in x", _cmd_phi, {
        "--tau": (str, REQUIRED, "", None),
        "--x-order": (int, "8", "", None),
        "--q-tol": (float, "1e-12", "", None)}),
    ("genus-cpm",): ("level-N genus of complex projective space", _cmd_genus_cpm, {
        "--tau": (str, REQUIRED, "", None),
        **dict.fromkeys(("--N", "--k", "--l", "--m"), (int, REQUIRED, "", None)),
        "--q-tol": (float, "1e-12", "", None)}),
    ("period-scan",): ("scan lattice translations for periods", _cmd_period_scan, {
        "--tau": (str, REQUIRED, "", None),
        **dict.fromkeys(("--N", "--k", "--l"), (int, REQUIRED, "", None)),
        "--trial-bound": (int, "", "", None),
        "--tol": (float, "1e-8", "", None),
        "--q-tol": (float, "1e-12", "", None)}),
    ("verify-all",): ("run every verification suite", _cmd_verify_all, {}),
}
_OUT = {"--out": (str, "", "write the JSON document to a file", None)}  # read by every leaf
_TABLE = {path: (text, handler, {**options, **_OUT} if handler else options)
          for path, (text, handler, options) in _TABLE.items()}
_HELP = (bool, False, "show this help message and exit", None)  # -h and --help, on every path


class _Help(Exception):
    """-h or --help was given: the help text of the path that read it."""


def _children(path: tuple) -> tuple:
    """The words that name a path below `path`, in table order."""
    return tuple(p[-1] for p in _TABLE if len(p) == len(path) + 1 and p[:-1] == path)


def _is_option(word: str) -> bool:
    """An option word: it starts with "-", but not "-" or "-." and a digit (-1/2, -.5)."""
    return word[:1] == "-" and not word.removeprefix("-").removeprefix(".")[:1].isdecimal()


def _check(name: str, reader, text: str) -> None:
    """Refuse, naming `name`, a text that `reader` does not read."""
    if isinstance(reader, tuple) and text not in reader:
        raise UsageError(f"argument {name}: invalid choice: {text!r} "
                         f"(choose from {', '.join(map(repr, reader))})")
    convert, entries = reader, [text]
    if isinstance(reader, list):
        convert, entries = reader[0], text.split(",") if text.strip() else []
    for entry in entries if convert in (int, float) else ():
        try:
            convert(entry)
        except ValueError:
            raise UsageError(
                f"argument {name}: invalid {convert.__name__} value: {entry!r}") from None


def _parse(argv: list) -> SimpleNamespace:
    """argv read by the table in one pass: `subcommand` (and `form`), each
    option of the path it names ("--y-bound" as y_bound), and its `handler`.

    Raised as met, in word order: a value its reader refuses, a value
    missing, -h/--help (as _Help) and an option its group excludes.  Then
    every unrecognized word, the missing options and an empty required group.
    """
    path, options, given, extras = (), {}, {}, []
    words = iter(argv)
    for word in words:
        if not _is_option(word) and _TABLE[path][1] is None:  # the word names a path below
            _check(_POSITIONALS[len(path)], _children(path), word)
            path += (word,)
            options = _TABLE[path][2]
            continue
        name, joined, value = word.partition("=")
        spec = _HELP if name in ("-h", "--help") else options.get(name)
        if spec is None:  # no option, or a word no option reads
            extras.append(word)
            continue
        reader, default, _, group = spec
        if reader is bool and joined:
            raise UsageError(f"argument {name}: ignored explicit argument {value!r}")
        if reader is bool:
            value = True
        elif not joined:
            value = next(words, None)
            if value is None or _is_option(value):
                raise UsageError(f"argument {name}: expected one argument")
        if value != default:
            _check(name, reader, value)
        if spec is _HELP:
            raise _Help(_help(path))
        clash = [o for o in given if o != name and group is not None and options[o][3] == group]
        if clash:
            raise UsageError(f"argument {name}: not allowed with argument {clash[0]}")
        given[name] = value
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    required = [o for o, spec in options.items() if spec[1] is REQUIRED]
    missing = [o for o in required if options[o][3] is None and o not in given]
    if missing or _TABLE[path][1] is None:  # where no leaf is named, its subcommand or form
        raise UsageError("the following arguments are required: "
                         + (", ".join(missing) or _POSITIONALS[len(path)]))
    grouped = [o for o in required if options[o][3] is not None]  # a path has one at most
    if grouped and not given.keys() & set(grouped):
        raise UsageError(f"one of the arguments {' '.join(grouped)} is required")
    values = {o[2:].replace("-", "_"): given.get(o, None if spec[1] is REQUIRED else spec[1])
              for o, spec in options.items()}
    return SimpleNamespace(**dict(zip(_POSITIONALS, path)), **values, handler=_TABLE[path][1])


def _help(path: tuple) -> str:
    """`path`'s usage (wrapped at 80 columns), help, and paths below it or options."""
    text, handler = _TABLE[path][:2]
    prog = " ".join(("locq", *path))
    usage, rows, last = ["[-h]"], [], None  # a row is a heading or a (left, right) pair
    if handler is None:
        usage += ["{" + ",".join(_children(path)) + "}", "..."]
        rows += [f"{_POSITIONALS[len(path)]}s:",
                 *((child, _TABLE[(*path, child)][0]) for child in _children(path)), ""]
    rows += ["options:", ("-h, --help", _HELP[2])]
    for option, (reader, default, note, group) in _TABLE[path][2].items():
        metavar = "{" + ",".join(reader) + "}" if isinstance(reader, tuple) else option[2:].upper()
        word = option if reader is bool else f"{option} {metavar}"
        if group is not None and group == last:  # [--n N | --infinite]
            usage[-1] = f"{usage[-1][:-1]} | {word}{usage[-1][-1]}"
        else:
            brackets = "[]" if default is not REQUIRED else "()" if group else ""
            usage.append(f"{brackets[:1]}{word}{brackets[1:]}")
        rows.append((word, note))
        last = group
    lines = [f"usage: {prog}"]
    for word in usage:  # a word that would pass column 80 starts a line, under the first
        if len(lines[-1]) > len(prog) + 7 and len(lines[-1]) + 1 + len(word) > 80:
            lines.append(" " * (len(prog) + 7))
        lines[-1] += " " + word
    width = max(len(row[0]) for row in rows if isinstance(row, tuple)) + 2
    lines += ["", text.strip(), ""]
    lines += [row if isinstance(row, str) else f"  {row[0]:<{width}} {row[1]}".rstrip()
              for row in rows]
    return "\n".join(lines) + "\n"


def _config_echo(args: SimpleNamespace) -> dict:
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
        sys.set_int_max_str_digits(MAX_DIGITS)  # exact outputs can be huge rationals
    try:
        status = _respond(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout is gone: write nothing more to it, and point
        # its descriptor at os.devnull so the flush at interpreter exit
        # stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    return status


def _respond(argv) -> int:
    """Parse argv, run its handler and emit its document; the exit code."""
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except UsageError as exc:
        _emit({"error": str(exc), "exit": 2}, "")
        return 2
    except _Help as exc:
        _emit({"help": str(exc)}, "")
        return 0
    try:
        payload, status = args.handler(args)
        payload["config"] = _config_echo(args)
        _emit(payload, args.out)
    except BrokenPipeError:
        raise  # stdout is closed: main ends the request without writing again
    except UsageError as exc:
        _emit({"error": str(exc), "config": _config_echo(args), "exit": 2}, "")
        return 2
    except (LocqError, ValueError, ArithmeticError, OSError) as exc:
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
