"""One measured repetition of a workload, in a fresh interpreter.

Started by ``run.py`` once per repetition, so the process-wide state of
the package (term interner, plan cache, vectorization counters) starts
empty every time.  Writes one pickled result dict to standard output;
everything the package prints goes to standard error instead.

    python3 perfbench/rep.py --workload NAME --seed N --trace 0|1 [--spans PATH]

Wall times are reported as measured and rescaled to the reference host
speed (:mod:`calibration`; README.md, "Timing method").
"""

from __future__ import annotations

import argparse
import importlib
import os
import pickle
import resource
import sys
import time

_RESULT_OUT = sys.stdout.buffer
sys.stdout = sys.stderr

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402
from calibration import SpeedProbe  # noqa: E402


def _layer_counters(tracer):
    """Process-wide counters of the core layers, read after the run."""
    optional = workloads.optional

    def plan():
        return importlib.import_module("repro.core.plan").GLOBAL_PLAN_CACHE

    def vector_stats():
        return importlib.import_module("repro.core.vector").VECTOR_STATS

    out = {
        "plan.cache_hits": optional("plan.cache_hits", lambda: plan().hits),
        "plan.cache_misses": optional("plan.cache_misses", lambda: plan().misses),
    }
    for key in ("batch_rows", "vectorized_steps", "fallback_steps"):
        out[f"vector.{key}"] = optional(
            f"vector.{key}", lambda key=key: vector_stats()[key])
    if tracer.enabled:
        out["routing.destinations"] = len(tracer.destinations)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    spec = workloads.WORKLOADS[args.workload]
    inputs = spec["inputs"](args.seed)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()

    with tracer.span("setup"), SpeedProbe() as setup_probe:
        t0 = time.perf_counter()
        # Importing the package is part of set-up: every user pays it.
        obs = importlib.import_module("repro.obs")
        if obs.enabled():
            raise SystemExit("telemetry (repro.obs) must be off in measured runs")
        missing = tracing.install(tracer) if args.trace and spec["wrap"] else []
        state = spec["setup"](inputs, tracer)
        t1 = time.perf_counter()
    with tracer.span("run"), SpeedProbe() as run_probe:
        t2 = time.perf_counter()
        spec["run"](state, tracer)
        t3 = time.perf_counter()

    rows, counts = spec["collect"](state)
    counts.update(_layer_counters(tracer))
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "rows": rows,
        "counts": counts,
        "setup_s": setup_probe.rescale(t1 - t0),
        "run_s": run_probe.rescale(t3 - t2),
        "setup_wall_s": t1 - t0,
        "run_wall_s": t3 - t2,
        "probe_slice_s": run_probe.slice_s(),
        "peak_rss_mb": max(self_kb, child_kb) / 1024.0,
        "worker_peak_rss_mb": child_kb / 1024.0,
        "times": spec["times"](state) if "times" in spec else {},
        "absent": dict(workloads.ABSENT),
        "missing_entry_points": missing,
    }
    if args.trace:
        result["spans"] = {
            phase: tracer.self_times(phase) for phase in ("setup", "run")
        }
        if args.spans:
            tracer.write(args.spans)
    pickle.dump(result, _RESULT_OUT, protocol=pickle.HIGHEST_PROTOCOL)
    _RESULT_OUT.flush()


if __name__ == "__main__":
    main()
