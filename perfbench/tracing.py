"""Per-layer spans, installed around locq's public functions from outside.

`Tracer.install()` replaces each traced function with a wrapper that
records one span (name, start, end, parent) per call and `remove()` puts
the originals back.  Module-level functions are replaced under every name
a locq module binds them to (`from .series import expand_product` makes a
second binding); methods are replaced on their class; the verify suites
are replaced inside `verify.ALL_SUITES`.  A target that no longer exists
is listed in `missing` and its metrics read 0, so deleting a helper never
breaks the trace.

Spans live in flat arrays while the pass runs and are aggregated (calls,
self time, inclusive time) or written out only after it ends.  Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array

TARGETS = {
    "kernel": ("locq.kernel", ["mul_trunc", "invert_ints", "mul_binomial_inplace"]),
    "series": ("locq.series", [
        "FormalSeries.__mul__", "FormalSeries.invert", "FormalSeries.int_pow",
        "expand_product",
        "BivariateSeries.__mul__", "BivariateSeries.invert", "BivariateSeries.int_pow",
    ]),
    "genfunc": ("locq.genfunc", [
        "macdonald_series", "orbifold_series", "twisted_sym_series",
        "equivariant_euler_series", "sym_poincare_oracle", "orbifold_oracle",
    ]),
    "qhyper": ("locq.qhyper", [
        "bilateral_psi", "_psi_window", "_psi_term", "saalschutz_check", "pochhammer",
    ]),
    "localization": ("locq.localization", [
        "dh_verify", "dh_lhs", "dh_rhs", "factor_integral_quad", "enumerate_fixed_points",
    ]),
    "pfaffian": ("locq.pfaffian", [
        "pfaffian_combinatorial", "pfaffian_tridiagonal", "canonicalize", "sqrt_det",
    ]),
    "genus": ("locq.genus", [
        "phi_series", "phi_shifted_series", "f_series", "f_point", "genus_cpm",
        "lattice_periodicity_scan",
    ]),
    "spectral": ("locq.spectral", ["evaluate_product"]),
    "cli": ("locq.cli", ["main"]),
}

VERIFY_SUITES = ["localization", "pfaffian", "macdonald", "euler", "orbifold", "twisted",
                 "qidentities", "spectral", "genus"]

COUNTERS = {
    "kernel.coeff_ops": "count",
    "kernel.max_coeff_bits": "bits",
    "qhyper.psi_terms": "count",
    "qhyper.psi_useful_ratio": "ratio",
    "localization.fixed_points": "count",
    "localization.enumerations_per_check": "ratio",
    "spectral.factors": "count",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
}


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for layer, (_, names) in TARGETS.items():
        if layer == "cli":
            continue
        for name in names:
            out[f"{layer}.{name}.calls"] = "count"
            out[f"{layer}.{name}.self_s"] = "s"
    out.update(COUNTERS)
    for suite in VERIFY_SUITES:
        out[f"verify.{suite}_s"] = "s"
    out["trace.overhead_ratio"] = "ratio"
    return out


def _bits(values) -> int:
    return max(map(int.bit_length, values), default=0)


class Tracer:
    """Span recorder for one pass.  Not thread-safe: the benchmark has one client."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.counters = {"kernel.coeff_ops": 0, "kernel.max_coeff_bits": 0,
                         "localization.fixed_points": 0, "spectral.factors": 0,
                         "psi.useful": 0, "psi.computed": 0}
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._hooks = {
            "kernel.mul_trunc": self._hook_mul_trunc,
            "kernel.invert_ints": self._hook_invert,
            "kernel.mul_binomial_inplace": self._hook_binomial,
            "qhyper.bilateral_psi": self._hook_psi,
            "localization.enumerate_fixed_points": self._hook_fixed_points,
            "spectral.evaluate_product": self._hook_spectral,
        }

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "locq" or n.startswith("locq."))]
        for layer, (module_name, qualnames) in TARGETS.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing += [f"{layer}.{q}" for q in qualnames]
                continue
            for qualname in qualnames:
                self._install_one(layer, module, qualname, modules)
        self._install_suites()

    def _install_one(self, layer: str, module, qualname: str, modules) -> None:
        span = f"{layer}.{qualname}"
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(attr) if isinstance(owner, type) else None
            if original is None:
                self.missing.append(span)
                return
            self._replace(owner, attr, self._wrap(original, span))
            return
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(span)
            return
        wrapper = self._wrap(original, span)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    self._replace(m, name, wrapper)

    def _install_suites(self) -> None:
        verify = sys.modules.get("locq.verify")
        suites = getattr(verify, "ALL_SUITES", None)
        if suites is None:
            self.missing += [f"verify.{s}" for s in VERIFY_SUITES]
            return
        names = {id(v): k[len("suite_"):] for k, v in vars(verify).items()
                 if k.startswith("suite_")}
        wrapped = tuple(self._wrap(fn, f"verify.{names.get(id(fn), f'suite{i}')}")
                        for i, fn in enumerate(suites))
        self._replace(verify, "ALL_SUITES", wrapped)

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, span: str):
        name_id = self.name_ids.setdefault(span, len(self.names))
        if name_id == len(self.names):
            self.names.append(span)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter_ns
        hook = self._hooks.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(idx, args, result)
            return result

        return wrapper

    # -- work counters -------------------------------------------------------------

    def _hook_mul_trunc(self, idx, args, result) -> None:
        n = len(args[0])
        self.counters["kernel.coeff_ops"] += n * (n + 1) // 2
        self._note_bits(_bits(result))

    def _hook_invert(self, idx, args, result) -> None:
        n = len(args[0])
        self.counters["kernel.coeff_ops"] += n * (n - 1) // 2
        self._note_bits(max(_bits(result[0]), result[1].bit_length()))

    def _hook_binomial(self, idx, args, result) -> None:
        nums, exponent = args[0], args[1]
        self.counters["kernel.coeff_ops"] += max(0, len(nums) - exponent)
        self._note_bits(_bits(nums))

    def _note_bits(self, bits: int) -> None:
        if bits > self.counters["kernel.max_coeff_bits"]:
            self.counters["kernel.max_coeff_bits"] = bits

    def _hook_psi(self, idx, args, result) -> None:
        term_id = self.name_ids.get("qhyper._psi_term")
        computed = self.span_name[idx + 1:].count(term_id) if term_id is not None else 0
        self.counters["psi.useful"] += 2 * result.window + 1
        self.counters["psi.computed"] += computed

    def _hook_fixed_points(self, idx, args, result) -> None:
        self.counters["localization.fixed_points"] += len(result)

    def _hook_spectral(self, idx, args, result) -> None:
        self.counters["spectral.factors"] += result.factors_used

    # -- results -----------------------------------------------------------------

    def aggregate(self) -> dict[str, float]:
        """Per-layer metrics of the recorded pass (trace.overhead_ratio excluded)."""
        n = len(self.span_start)
        durations = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += durations[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        incl_ns = [0] * len(self.names)
        for i, name_id in enumerate(self.span_name):
            calls[name_id] += 1
            self_ns[name_id] += durations[i] - child[i]
            incl_ns[name_id] += durations[i]
        by_name = {name: (calls[i], self_ns[i] / 1e9, incl_ns[i] / 1e9)
                   for i, name in enumerate(self.names)}
        zero = (0, 0.0, 0.0)

        out = {}
        for metric in per_layer_metrics():
            span, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = by_name.get(span, zero)[0]
            elif field == "self_s":
                out[metric] = by_name.get(span, zero)[1]
        for suite in VERIFY_SUITES:
            out[f"verify.{suite}_s"] = by_name.get(f"verify.{suite}", zero)[2]
        c = self.counters
        out["kernel.coeff_ops"] = c["kernel.coeff_ops"]
        out["kernel.max_coeff_bits"] = c["kernel.max_coeff_bits"]
        out["qhyper.psi_terms"] = by_name.get("qhyper._psi_term", zero)[0]
        out["qhyper.psi_useful_ratio"] = (c["psi.useful"] / c["psi.computed"]
                                          if c["psi.computed"] else 0.0)
        out["localization.fixed_points"] = c["localization.fixed_points"]
        checks = by_name.get("localization.dh_verify", zero)[0]
        out["localization.enumerations_per_check"] = (
            by_name.get("localization.enumerate_fixed_points", zero)[0] / checks
            if checks else 0.0)
        out["spectral.factors"] = c["spectral.factors"]
        out["cli.self_s"] = by_name.get("cli.main", zero)[1]
        return out

    def write_spans(self, path) -> None:
        """All spans as gzipped CSV: id, parent, name, start and end (ns from the first)."""
        base = self.span_start[0] if len(self.span_start) else 0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i},{self.span_parent[i]},{self.names[self.span_name[i]]},"
                         f"{self.span_start[i] - base},{self.span_end[i] - base}\n")
