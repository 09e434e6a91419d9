"""The repository benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's inputs are made from the
seed and its oracle rows computed once, outside any timing.  Then
repetitions run, each in a fresh interpreter (``rep.py``), until
``--seconds`` are used up (at least :data:`MIN_REPS`).  Every
repetition is checked against the oracle, and every exact count must
repeat exactly across the repetitions of one invocation.

The last line of standard output is ``{"correct", "attempted",
"failed", "metrics"}``: with ``--trace 0`` the end-to-end metrics
(medians over the repetitions), with ``--trace 1`` the per-layer
metrics of traced repetitions, alternated with untraced ones so the
tracing overhead can be reported.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_REPS = 3
REP_TIMEOUT_S = 120
#: Spans of traced repetitions are written here, under the working directory.
SPANS_DIR = ".perfbench"
#: Counts only traced repetitions can make (left out of the determinism guard).
TRACE_ONLY = {"routing.destinations"}

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metric -> unit.  Counts a workload's layers do not touch
#: read 0; a source that no longer exists is left out (with a warning).
PER_LAYER = {
    "setup_wall_s": "s",
    "run_wall_s": "s",
    "probe_slice_s": "s",
    "messages": "count",
    "max_node_load": "count",
    "result_latency_p50_sim": "sim_s",
    "result_latency_p99_sim": "sim_s",
    "result_latency_samples": "count",
    "wrong_row_share": "ratio",
    "parser.parse_s": "s",
    "plan.cache_hits": "count",
    "plan.cache_misses": "count",
    "eval.seminaive_s": "s",
    "eval.xy_s": "s",
    "eval.derived_facts": "count",
    "eval.facts_per_s": "1/s",
    "eval.probes": "count",
    "eval.scans": "count",
    "vector.batch_rows": "count",
    "vector.vectorized_steps": "count",
    "vector.fallback_steps": "count",
    "vector.vectorized_ratio": "ratio",
    "gpa.install_s": "s",
    "gpa.handler_self_s": "s",
    "gpa.publish_calls": "count",
    "gpa.retract_calls": "count",
    "gpa.streamed_derivations": "count",
    "gpa.delivered": "count",
    "gpa.gave_up": "count",
    "node.forward_s": "s",
    "routing.next_hop_s": "s",
    "routing.next_hop_calls": "count",
    "routing.destinations": "count",
    "routing.hops_per_table": "count",
    "radio.transmit_s": "s",
    "radio.transmit_calls": "count",
    "radio.dropped": "count",
    "transport.acks": "count",
    "transport.retries": "count",
    "transport.dup_suppressed": "count",
    "transport.retry_exhausted": "count",
    "transport.useful_ratio": "ratio",
    "sim.events": "count",
    "sim.queue_hwm": "count",
    "sim.dispatch_self_s": "s",
    "sim.events_per_s": "1/s",
    "topology.build_s": "s",
    "topology.edges": "count",
    "shard.windows": "count",
    "shard.border_records": "count",
    "shard.event_skew": "ratio",
    "shard.exchange_s": "s",
    "shard.worker_peak_rss_mb": "MB",
    "checkpoint.count": "count",
    "checkpoint.bytes": "bytes",
    "checkpoint.capture_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

#: Per-layer self time -> the span names charged to it, and the phase
#: (setup or run) whose spans count.
SPAN_TIMES = {
    "parser.parse_s": ("setup", ("parser.parse",)),
    "topology.build_s": ("setup", ("topology.build",)),
    "gpa.install_s": ("setup", ("gpa.install",)),
    "eval.seminaive_s": ("run", ("eval.seminaive",)),
    "eval.xy_s": ("run", ("eval.xy",)),
    "gpa.handler_self_s": ("run", ("gpa.handler", "gpa.publish", "gpa.retract")),
    "node.forward_s": ("run", ("node.routed",)),
    "routing.next_hop_s": ("run", ("routing.next_hop", "routing.envelope_hop")),
    "radio.transmit_s": ("run", ("radio.transmit", "radio.arrival",
                                 "transport.timer")),
    "sim.dispatch_self_s": ("run", ("sim.dispatch",)),
    "shard.exchange_s": ("run", ("shard.run",)),
    "trace.unattributed_s": ("run", ("run",)),
}

#: Per-layer call count -> span name (run phase).
SPAN_CALLS = {
    "gpa.publish_calls": "gpa.publish",
    "gpa.retract_calls": "gpa.retract",
    "routing.next_hop_calls": "routing.next_hop",
    "radio.transmit_calls": "radio.transmit",
}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong result)."""


def run_rep(workload, seed, traced, spans_path):
    # One fixed hash seed, so string hashing (and with it set order) is
    # the same in every repetition.
    env = dict(os.environ, PYTHONHASHSEED="0")
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    if spans_path:
        cmd += ["--spans", spans_path]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition exceeded {REP_TIMEOUT_S}s") from exc
    if proc.returncode != 0 or not proc.stdout:
        raise BenchError(f"repetition exited with code {proc.returncode}")
    return pickle.loads(proc.stdout)


def compare_rows(expected, got):
    """(missing, extra) rows over every checked predicate."""
    missing = extra = 0
    for pred, rows in expected.items():
        have = got.get(pred, set())
        missing += len(rows - have)
        extra += len(have - rows)
    return missing, extra


def guarded_counts(rep):
    return {k: v for k, v in rep["counts"].items() if k not in TRACE_ONLY}


def check(reps, expected, reference_fp):
    """Per-repetition failures and the determinism report."""
    total = sum(len(rows) for rows in expected.values())
    failed = 0
    wrong_share = 0.0
    first = guarded_counts(reps[0])
    drift = {}
    for i, rep in enumerate(reps):
        missing, extra = compare_rows(expected, rep["rows"])
        share = (missing + extra) / max(1, total)
        wrong_share = max(wrong_share, share)
        bad = share > 0
        if share > 0:
            print(f"perfbench: repetition {i}: {missing} missing and {extra} "
                  f"extra rows against the oracle", file=sys.stderr)
        if (reference_fp is not None
                and rep["counts"].get("shard.fingerprint") != reference_fp):
            print(f"perfbench: repetition {i}: sharded fingerprint differs "
                  "from the single-process run", file=sys.stderr)
            bad = True
        counts = guarded_counts(rep)
        for key in set(first) | set(counts):
            if first.get(key) != counts.get(key):
                drift.setdefault(key, []).append((i, counts.get(key)))
                bad = True
        failed += bad
    for key, values in sorted(drift.items()):
        print(f"perfbench: PROGRAM NONDETERMINISM: exact count {key!r} was "
              f"{first.get(key)!r} in repetition 0 but {values} later "
              "(same inputs, same hash seed)", file=sys.stderr)
    return failed, wrong_share


def end_to_end(reps):
    return {
        name: {"value": statistics.median([r[name] for r in reps]), "unit": unit}
        for name, unit in END_TO_END.items()
    }


def per_layer(plain, traced, wrong_share):
    """Per-layer metrics: counts of the first traced repetition (the
    determinism guard makes them the same in all), span times as
    medians over the traced repetitions."""
    counts = traced[0]["counts"]
    values = {"wrong_row_share": wrong_share}
    values.update((k, v) for k, v in counts.items() if v is not None)
    for name, (phase, spans) in SPAN_TIMES.items():
        values[name] = statistics.median([
            sum(r["spans"][phase].get(s, (0.0, 0))[0] for s in spans)
            for r in traced
        ])
    spans = traced[0]["spans"]["run"]
    for name, span in SPAN_CALLS.items():
        values[name] = spans.get(span, (0.0, 0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    run_s = statistics.median([r["run_s"] for r in plain])
    for name in ("setup_wall_s", "run_wall_s", "probe_slice_s"):
        values[name] = statistics.median([r[name] for r in plain])
    capture = statistics.median(
        [r["times"].get("checkpoint.capture_s") or 0.0 for r in traced])
    if "checkpoint.count" in values:
        values["checkpoint.capture_s"] = capture
        values["shard.exchange_s"] -= capture
        values["shard.worker_peak_rss_mb"] = statistics.median(
            [r["worker_peak_rss_mb"] for r in traced])
    values["trace.overhead_s"] = (
        statistics.median([r["run_s"] for r in traced]) - run_s)
    values["eval.facts_per_s"] = ratio(
        values.get("eval.derived_facts", 0),
        values["eval.seminaive_s"] + values["eval.xy_s"])
    steps = values.get("vector.vectorized_steps")
    fallback = values.get("vector.fallback_steps")
    if steps is not None and fallback is not None:
        values["vector.vectorized_ratio"] = ratio(steps, steps + fallback)
    values["routing.hops_per_table"] = ratio(
        values["routing.next_hop_calls"], values.get("routing.destinations", 0))
    messages = values.get("messages", 0)
    if messages:
        values["transport.useful_ratio"] = ratio(
            messages - values.get("transport.acks", 0)
            - values.get("transport.retries", 0), messages)
    values["sim.events_per_s"] = ratio(values.get("sim.events", 0), run_s)

    # A layer the workload never reaches reads 0; a count whose source
    # no longer exists (None) is left out.
    return {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in PER_LAYER.items()
        if counts.get(name, 0) is not None
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    # The oracle and every repetition use the default engine with
    # telemetry off.
    for var in ("REPRO_TELEMETRY", "REPRO_ENGINE"):
        os.environ.pop(var, None)
    sys.path.insert(0, os.path.abspath("src"))
    spec = workloads.WORKLOADS[args.workload]
    inputs = spec["inputs"](args.seed)
    expected = spec["oracle"](inputs)
    reference = spec.get("reference_fingerprint")
    reference_fp = reference(inputs) if reference else None
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)

    reps = []
    start = time.perf_counter()
    last = 0.0
    while (len(reps) < (2 if args.trace else MIN_REPS)
           or time.perf_counter() - start + last <= args.seconds):
        traced = bool(args.trace) and len(reps) % 2 == 1
        spans_path = (os.path.join(
            SPANS_DIR, f"{args.workload}-seed{args.seed}-rep{len(reps)}.spans.tsv.gz")
            if traced else None)
        t0 = time.perf_counter()
        rep = run_rep(args.workload, args.seed, traced, spans_path)
        last = time.perf_counter() - t0
        print(f"perfbench: repetition {len(reps)}{' (traced)' if traced else ''}: "
              f"setup_s={rep['setup_s']:.4f} run_s={rep['run_s']:.4f} "
              f"(wall {rep['setup_wall_s']:.4f} / {rep['run_wall_s']:.4f}, "
              f"probe slice {rep['probe_slice_s'] * 1e6:.0f} us)", file=sys.stderr)
        reps.append(dict(rep, traced=traced))

    failed, wrong_share = check(reps, expected, reference_fp)
    absent = {}
    for rep in reps:
        absent.update(rep["absent"])
        for entry in rep["missing_entry_points"]:
            absent[entry] = "entry point missing; not traced"
    for name, why in sorted(absent.items()):
        print(f"perfbench: metric source {name!r} is absent ({why})",
              file=sys.stderr)
    plain = [r for r in reps if not r["traced"]]
    if args.trace:
        metrics = per_layer(plain, [r for r in reps if r["traced"]], wrong_share)
    else:
        metrics = end_to_end(plain)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
