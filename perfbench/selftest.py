#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of locq).

Run from the root of a source checkout:

  python3 perfbench/selftest.py

  tiny_runs          a tiny run of every workload, untraced and traced,
                     prints every metric of BENCHMARK.json with its unit
  corrupted          a response with one perturbed value, a non-finite
                     constant or a wrong exit code is counted as failed,
                     for every request form, so the checks are not vacuous
  trace_counts       two traced runs at the same seed give identical work
                     counts, and the counts are nonzero where the workload
                     exercises the layer
  trace_removal      wrappers come off cleanly, and a traced helper that no
                     longer exists drops out of the trace without an error
  bare_directory     with only BENCHMARK.json and perfbench/ present the
                     benchmark exits nonzero without printing a result

Exit status 0 when every test passes.  Takes about two minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK_COUNTS = ("kernel.coeff_ops", "localization.fixed_points", "qhyper.psi_terms",
               "spectral.factors", "cli.out_bytes")


class SelfTestFailure(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise SelfTestFailure(what)


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def _tiny(workload: str, trace: bool) -> dict:
    metrics, info, failures = run.measure(workload, seed=1, seconds=0, trace=trace,
                                          tiny=True, min_timed=1)
    _require(not failures, f"{workload}: tiny run failed checks: {failures[:3]}")
    _require(info["fail_ratio"]["attempted"] >= 1, f"{workload}: nothing attempted")
    return metrics


def test_tiny_runs() -> None:
    for w in BENCHMARK["workloads"]:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            metrics = _tiny(w["name"], trace)
            got = {name: m["unit"] for name, m in metrics.items()}
            _require(got == _units(section),
                     f"{w['name']} trace={int(trace)}: metric names or units differ "
                     f"from BENCHMARK.json: {sorted(set(got) ^ set(_units(section)))}")
            for name, m in metrics.items():
                print(f"    {w['name']:14s} {name:44s} {m['value']:>14.6g} {m['unit']}")
            if not trace:
                _require(all(m["value"] > 0 for m in metrics.values()),
                         f"{w['name']}: an end-to-end metric is 0")


def _corrupt_value(value):
    """One perturbed leaf value: ints and exact fractions move by 1, floats slightly."""
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + max(abs(value) * 1e-6, 1e-3)
    if isinstance(value, str) and "/" in value:
        num, den = value.split("/")
        return f"{int(num) + 1}/{den}"
    if isinstance(value, list) and len(value) == 2 and isinstance(value[0], str):
        return [repr(_corrupt_value(float(value[0]))), value[1]]
    if isinstance(value, dict) and value:
        key = sorted(value)[-1]
        return dict(value, **{key: _corrupt_value(value[key])})
    raise ValueError(f"cannot perturb {value!r}")


CORRUPT = {
    "euler-series": lambda p: p["coeffs"].__setitem__(-1, _corrupt_value(p["coeffs"][-1])),
    "twisted-sym": lambda p: p["coeffs"].__setitem__(-1, _corrupt_value(p["coeffs"][-1])),
    "macdonald": lambda p: p["coeffs"].__setitem__(2, _corrupt_value(p["coeffs"][2])),
    "orbifold": lambda p: p["coeffs"].__setitem__(2, _corrupt_value(p["coeffs"][2])),
    "pfaffian": lambda p: p.__setitem__("pfaffian", _corrupt_value(p["pfaffian"])),
    "pochhammer": lambda p: p.__setitem__("value", _corrupt_value(p["value"])),
    "psi": lambda p: p.__setitem__("value", _corrupt_value(p["value"])),
    "saalschutz": lambda p: p.__setitem__("rhs", _corrupt_value(p["rhs"])),
    "dh-verify": lambda p: p.__setitem__("rhs", _corrupt_value(p["rhs"])),
    "spectral-eval": lambda p: p.__setitem__("value", _corrupt_value(p["value"])),
    "phi": lambda p: p["coeffs"].__setitem__(3, _corrupt_value(p["coeffs"][3])),
    "genus-cpm": lambda p: p.__setitem__("value", _corrupt_value(p["value"])),
    "period-scan": lambda p: p["periods"].pop(),
    "verify-all": lambda p: p["suites"][0]["details"].__setitem__(
        "checks", _corrupt_value(p["suites"][0]["details"]["checks"])),
}


def test_corrupted() -> None:
    from locq import cli

    requests = (workloads.make_requests("cli-small", 1, tiny=True)
                + workloads.make_requests("exact-large", 1, tiny=True)
                + workloads.make_requests("verify-all", 1))
    _require(set(CORRUPT) == {r["form"] for r in requests}, "a request form is untested")
    for req in requests:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(req["argv"])
        text = buf.getvalue()
        _require(checks.check(req, rc, text) is None, f"{req['form']}: genuine response "
                                                      f"rejected: {checks.check(req, rc, text)}")
        payload = json.loads(text)
        CORRUPT[req["form"]](payload)
        _require(checks.check(req, rc, json.dumps(payload)) is not None,
                 f"{req['form']}: perturbed response accepted")
        _require(checks.check(req, rc + 1, text) is not None,
                 f"{req['form']}: wrong exit code accepted")
        nan_text = text.replace('"config"', '"nan_probe": NaN, "config"', 1)
        _require(checks.check(req, rc, nan_text) is not None,
                 f"{req['form']}: NaN in the output accepted")


def test_trace_counts() -> None:
    nonzero = {"exact-large": ("kernel.coeff_ops", "qhyper.psi_terms"),
               "numeric-large": ("localization.fixed_points", "spectral.factors"),
               "cli-small": WORK_COUNTS}
    for workload, must_move in nonzero.items():
        first, second = _tiny(workload, True), _tiny(workload, True)
        counts = [n for n in first if n in WORK_COUNTS or n.endswith(".calls")]
        differ = [n for n in counts if first[n]["value"] != second[n]["value"]]
        _require(not differ, f"{workload}: work counts differ between runs: {differ}")
        zero = [n for n in must_move if not first[n]["value"] > 0]
        _require(not zero, f"{workload}: work counts are 0: {zero}")


def test_trace_removal() -> None:
    import locq.cli
    from locq import kernel, localization, series, verify

    before = (kernel.mul_trunc, series.FormalSeries.__mul__, series.expand_product,
              localization.dh_rhs, locq.cli.main, verify.ALL_SUITES)
    saved = dict(tracing.TARGETS)
    tracing.TARGETS["localization"] = ("locq.localization",
                                       ["dh_verify", "a_helper_that_was_deleted"])
    try:
        tracer = tracing.Tracer()
        tracer.install()
        _require(kernel.mul_trunc is not before[0], "kernel.mul_trunc not wrapped")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = locq.cli.main(["dh-verify", "--factors=1:1,2:3", "--c=0.5"])
        tracer.remove()
        _require(rc == 0, "traced request failed")
        _require(tracer.missing == ["localization.a_helper_that_was_deleted"],
                 f"missing targets: {tracer.missing}")
        layers = tracer.aggregate()
        _require(layers["localization.dh_verify.calls"] == 1, "dh_verify span missing")
        _require(layers["localization.fixed_points"] == 0, "a removed target was counted")
        _require(layers["cli.self_s"] > 0, "cli.main span missing")
    finally:
        tracing.TARGETS.clear()
        tracing.TARGETS.update(saved)
    after = (kernel.mul_trunc, series.FormalSeries.__mul__, series.expand_product,
             localization.dh_rhs, locq.cli.main, verify.ALL_SUITES)
    _require(all(a is b for a, b in zip(before, after)), "wrappers left installed")


def test_bare_directory() -> None:
    bare = run.SPANS_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            BENCHMARK["command"] + ["--workload", "cli-small", "--seed", "1",
                                    "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        _require(proc.returncode != 0, "bare directory run exited 0")
        _require('"correct"' not in proc.stdout, "bare directory run printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


TESTS = [test_tiny_runs, test_corrupted, test_trace_counts, test_trace_removal,
         test_bare_directory]


def main() -> int:
    failed = 0
    for test in TESTS:
        try:
            test()
        except Exception:  # report every failing test, not just the first
            failed += 1
            print(f"FAIL {test.__name__}\n{traceback.format_exc()}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
