"""One pass of one workload in a fresh process.

Usage (from run.py): python3 perfbench/worker.py '<json config>'

The config names the workload, seed, role and the monotonic time at which
the parent spawned this process.  Roles:

  probe  import locq and report the set-up time only
  check  run the pass, check every response and re-run a seeded sample
  time   run the pass untraced
  trace  run the pass with per-layer spans installed

Set-up time runs from the parent's spawn to the moment locq is imported
and the first request could be sent.  Each request is timed from the call
of `locq.cli.main(argv)` to its return, with stdout captured in memory.
Every time is converted to reference seconds by speed.SpeedSampler, which
runs from before the locq import to the end.  The last line of stdout is
a JSON result for run.py.
"""

import os
import sys
import time

# Set-up is timed from the spawn to the end of the locq import, so the
# sampler starts and locq is imported before anything else of the benchmark.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import speed  # noqa: E402

SAMPLER = speed.SpeedSampler()
SAMPLER.start()

import locq  # noqa: E402
import locq.cli  # noqa: E402  (imports every layer, numpy included)

SETUP_DONE_NS = time.monotonic_ns()
SETUP_DONE = time.perf_counter()
SAMPLER.burst(0.05)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

RERUN_SHARE = 0.1


def _call(argv):
    """(exit code, start, end, stdout text) of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        rc = locq.cli.main(argv)
        t1 = time.perf_counter()
    return rc, t0, t1, buf.getvalue()


def _digest(req: dict, rc: int, text: str) -> str:
    return f"{hashlib.sha256(checks.repeatable_bytes(req, text)).hexdigest()}:{rc}"


def run_pass(config: dict) -> dict:
    role = config["role"]
    requests = workloads.make_requests(config["workload"], config["seed"], config["tiny"])
    tracer = tracing.Tracer() if role == "trace" else None
    spans, digests, failures = [], [], []
    out_bytes = 0
    if tracer is not None:
        tracer.install()
    try:
        for i, req in enumerate(requests):
            rc, t0, t1, text = _call(req["argv"])
            spans.append((t0, t1))
            digests.append(_digest(req, rc, text))
            out_bytes += len(text.encode())
            if role == "check":
                reason = checks.check(req, rc, text)
                if reason:
                    failures.append({"request": i, "argv": req["argv"][:2], "why": reason})
    finally:
        if tracer is not None:
            tracer.remove()
    attempted = len(requests)
    if role == "check":
        rng = random.Random(f"rerun/{config['workload']}/{config['seed']}")
        sample = rng.sample(range(len(requests)), round(RERUN_SHARE * len(requests)))
        for i in sample:
            rc, _, _, text = _call(requests[i]["argv"])
            attempted += 1
            if _digest(requests[i], rc, text) != digests[i]:
                failures.append({"request": i, "argv": requests[i]["argv"][:2],
                                 "why": "re-run in the same process is not byte-identical"})
    pass_factor = SAMPLER.factor(spans[0][0], spans[-1][1])
    result = {
        "attempted": attempted,
        "latencies": [(t1 - t0) * SAMPLER.factor(t0, t1) for t0, t1 in spans],
        "raw_wall_s": sum(t1 - t0 for t0, t1 in spans),
        "speed": pass_factor,
        "digests": digests,
        "failures": failures,
        "out_bytes": out_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if role == "check":
        import numpy

        result["env"] = {"numpy": numpy.__version__, "kernel_backend": locq.KERNEL_BACKEND}
    if tracer is not None:
        result["layers"] = {name: value * pass_factor if name.endswith("_s") else value
                            for name, value in tracer.aggregate().items()}
        result["layers"]["cli.out_bytes"] = out_bytes
        result["missing"] = tracer.missing
        if config.get("spans_path"):
            tracer.write_spans(config["spans_path"])
    return result


def main() -> None:
    config = json.loads(sys.argv[1])
    setup_raw = (SETUP_DONE_NS - config["spawn_ns"]) / 1e9
    result = {"setup_s": setup_raw * SAMPLER.factor(SETUP_DONE - setup_raw, SETUP_DONE),
              "raw_setup_s": setup_raw}
    if config["role"] != "probe":
        sys.set_int_max_str_digits(0)
        result.update(run_pass(config))
    SAMPLER.stop()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
