#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of locq.

Usage, from the root of a source checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for why each exists and which layers it should
and should not move): verify-all, cli-small, exact-large, numeric-large.

A run is a closed loop with one client and no threads.  The seed fixes a
request list (one pass).  Every pass runs in a fresh worker process, so a
cache the program keeps in memory helps within a pass, as it would for a
user's process, but never carries over from one pass to the next:

  1. a check pass: every response is checked against an oracle
     (checks.py), outside the timed call, and a seeded tenth of the
     requests is re-run in the same process and must be byte-identical;
  2. timed passes, as many as --seconds holds at the nominal pass time of
     the workload (at least two; with --trace 1 they alternate untraced
     and traced).  Each response must be byte-identical to the checked one;
  3. set-up probes until there are seven set-up samples.

Times are reported in reference seconds.  On a shared machine the CPU's
speed drifts by up to 2x within seconds, so each measured interval is
scaled by the speed of a fixed reference loop timed around it on the same
CPU (speed.py); raw wall times are listed in the info line.

With --trace 0 the last stdout line carries the end-to-end metrics, from
the check pass and the untraced passes:

  wall_s           time spent in locq.cli.main over one pass (the sum over
                   requests of each request's median time)
  latency_p50_ms   median per-request time
  latency_tail_ms  the highest percentile with at least ten samples beyond
                   it (percentile and sample count in the info line)
  setup_s          spawn to "locq imported, first request can be sent"
  peak_rss_mb      peak resident set size of a pass's process (median over
                   the untraced passes; the check pass holds parsed outputs)

With --trace 1 it carries the per-layer metrics of tracing.py, taken from
the traced passes, and trace.overhead_ratio, the traced wall_s over the
untraced wall_s.  The line before it is an info object: environment,
pass counts, the tail percentile, and the failure ratio with its base.
Exit status 0 when every response was correct, 1 when a check failed,
2 when the benchmark could not run (for example without src/locq).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".perfbench_out"
MIN_SETUP_SAMPLES = 7
# Nominal wall time of one pass on a 2-CPU machine.  The number of timed
# passes depends on --seconds and these constants only, never on how fast
# the machine happens to be, so every run pools the same number of samples.
PASS_SECONDS = {"verify-all": 8.0, "cli-small": 3.2, "exact-large": 5.0, "numeric-large": 3.4}
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    """The benchmark itself could not run."""


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(config: dict) -> dict:
    """Run one worker and return its result."""
    config = dict(config, spawn_ns=time.monotonic_ns())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
            cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{config['role']} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{config['role']} worker exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    """HEAD of the checkout, read without git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, min_timed: int = 2) -> tuple[dict, dict, list]:
    """Run one benchmark; return (metrics, info, failures)."""
    base = {"workload": workload, "seed": seed, "tiny": tiny}
    check = spawn(dict(base, role="check"))
    setups, raw_setups = [check["setup_s"]], [check["raw_setup_s"]]
    failures = list(check["failures"])
    attempted = check["attempted"]
    untraced, traced = [], []
    passes = max(min_timed, 2 if trace else 1, int(seconds / PASS_SECONDS[workload]))
    for i in range(passes):
        role = "trace" if trace and i % 2 else "time"
        config = dict(base, role=role)
        if role == "trace" and not traced:
            SPANS_DIR.mkdir(exist_ok=True)
            config["spans_path"] = str(SPANS_DIR / f"spans-{workload}-seed{seed}.csv.gz")
        result = spawn(config)
        setups.append(result["setup_s"])
        raw_setups.append(result["raw_setup_s"])
        attempted += result["attempted"]
        for index, (got, want) in enumerate(zip(result["digests"], check["digests"])):
            if got != want:
                failures.append({"request": index, "why": f"{role} pass output differs "
                                                          "from the checked pass"})
        (traced if role == "trace" else untraced).append(result)
    while len(setups) < MIN_SETUP_SAMPLES:
        probe = spawn(dict(base, role="probe"))
        setups.append(probe["setup_s"])
        raw_setups.append(probe["raw_setup_s"])

    timed = [check] + untraced
    latencies = [x for r in timed for x in r["latencies"]]
    tail_value, tail_pct = _tail(latencies)
    wall = {"untraced": _pass_wall(timed)}
    if trace:
        wall["traced"] = _pass_wall(traced)
        metrics = _layer_metrics(traced)
        metrics["trace.overhead_ratio"] = wall["traced"] / wall["untraced"]
        units = tracing.per_layer_metrics()
    else:
        metrics = {
            "wall_s": wall["untraced"],
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_tail_ms": 1e3 * tail_value,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        units = END_TO_END
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "requests_per_pass": len(check["latencies"]),
        "passes": {"check": 1, "untraced": len(untraced), "traced": len(traced)},
        "wall_s": wall,
        "pass_wall_s": [round(sum(r["latencies"]), 6) for r in timed + traced],
        "raw_pass_wall_s": [round(r["raw_wall_s"], 6) for r in timed + traced],
        "speed_factor": [round(r["speed"], 4) for r in timed + traced],
        "raw_setup_s": statistics.median(raw_setups),
        "latency_tail": {"percentile": round(tail_pct, 3), "samples": len(latencies)},
        "setup_samples": len(setups),
        "fail_ratio": {"value": len(failures) / attempted, "failed": len(failures),
                       "attempted": attempted},
        "missing_trace_targets": traced[0]["missing"] if traced else [],
        "env": dict(check["env"], nproc=os.cpu_count(), python=platform.python_version(),
                    commit=_git_commit(), threads={v: "1" for v in THREAD_VARS}),
        "failures": failures[:20],
    }
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}, \
        info, failures


def _pass_wall(results: list[dict]) -> float:
    """Time of one pass: the sum over requests of each request's median time.

    Taking the median per request before summing keeps a burst of
    interference during one pass from moving the figure.
    """
    per_request = zip(*(r["latencies"] for r in results))
    return sum(statistics.median(times) for times in per_request)


def _layer_metrics(traced: list[dict]) -> dict:
    """Work counts from the first traced pass (they repeat exactly); times are medians."""
    out = dict(traced[0]["layers"])
    for name, unit in tracing.per_layer_metrics().items():
        if unit == "s" and name in out:
            out[name] = statistics.median(r["layers"][name] for r in traced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "locq" / "__init__.py").is_file():
        print(f"perfbench: no locq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        metrics, info, failures = measure(args.workload, args.seed, args.seconds,
                                          bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:44s} {m['value']:>16.6g} {m['unit']}",
              file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not failures, "attempted": info["fail_ratio"]["attempted"],
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
