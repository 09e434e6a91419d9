"""The four benchmark workloads.

Each workload is a set of plain functions:

* ``inputs(seed)`` builds the workload's inputs from the seed with
  ``random.Random`` only (no ``repro`` import, never timed);
* ``setup(inputs, tr)`` builds what the run needs (timed as ``setup_s``);
* ``run(state, tr)`` runs from the first input to fixpoint or
  quiescence (timed as ``run_s``);
* ``collect(state)`` reads result rows and exact counts after the
  clock has stopped;
* ``oracle(inputs)`` computes the expected rows with code independent
  of the code path being timed.

Every counter is read through the package's public surface and through
:func:`optional`, so a source that a later refactor removes turns into
an absent metric rather than a crash.  ``tr`` is the span recorder of
:mod:`tracing` (a no-op in untraced runs).
"""

from __future__ import annotations

import functools
import math
import os
import random
from collections import deque

# -- shared helpers -----------------------------------------------------------

#: Counters whose source disappeared, with the reason (reported on stderr).
ABSENT = {}


def optional(name, read):
    """``read()``, or ``None`` (recorded in :data:`ABSENT`) when the
    attribute or module it reads no longer exists."""
    try:
        return read()
    except (AttributeError, ImportError, KeyError, TypeError) as exc:
        ABSENT[name] = f"{type(exc).__name__}: {exc}"
        return None


def _central_rows(program_text, facts, preds):
    """Rows of ``preds`` from the central evaluator over ``facts`` (the
    oracle of the distributed workloads: a different engine, run
    without any network layer)."""
    from repro.core.eval import Database, evaluate
    from repro.core.parser import parse_program

    db = Database()
    for pred, args in facts:
        db.assert_fact(pred, args)
    evaluate(parse_program(program_text), db)
    return {pred: set(db.rows(pred)) for pred in preds}


def _network_counts(metrics, engine=None, sim=None):
    """Exact counts every network workload reports."""
    out = {
        "messages": optional("messages", lambda: metrics.total_messages),
        "max_node_load": optional("max_node_load", lambda: metrics.max_node_load),
        "radio.dropped": optional("radio.dropped", lambda: metrics.dropped),
        "transport.acks": optional("transport.acks", lambda: metrics.acks),
        "transport.retries": optional("transport.retries", lambda: metrics.retries),
        "transport.dup_suppressed": optional(
            "transport.dup_suppressed", lambda: metrics.dup_suppressed),
        "transport.retry_exhausted": optional(
            "transport.retry_exhausted", lambda: metrics.retry_exhausted),
    }
    if engine is not None:
        report = optional("gpa.delivered", engine.delivery_report) or {}
        out["gpa.delivered"] = report.get("delivered")
        out["gpa.gave_up"] = report.get("gave_up")
        out["gpa.streamed_derivations"] = optional(
            "gpa.streamed_derivations", lambda: engine.streamed_derivations)
        samples = optional(
            "result_latency", lambda: sorted(lat for _p, lat in engine.latency_samples))
        if samples is None:
            for key in ("samples", "p50_sim", "p99_sim"):
                out[f"result_latency_{key}"] = None
        elif samples:
            out["result_latency_samples"] = len(samples)
            out["result_latency_p50_sim"] = _quantile(samples, 0.50)
            out["result_latency_p99_sim"] = _quantile(samples, 0.99)
    if sim is not None:
        out["sim.events"] = optional("sim.events", lambda: sim.events_processed)
        out["sim.queue_hwm"] = optional("sim.queue_hwm", lambda: sim.queue_hwm)
    return out


def _quantile(ordered, q):
    """Nearest-rank quantile of an ascending list."""
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def _edges(topology):
    return optional("topology.edges", lambda: topology.graph.number_of_edges())


# -- eval-fixpoint ---------------------------------------------------------------

TC_PROGRAM = """
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- e(X, Y), tc(Y, Z).
"""

#: The paper's logicH shortest-path-tree program (Example 3).
SPTREE_PROGRAM = """
    h(a, a, 0).
    h(a, X, 1) :- g(a, X).
    hp(Y, D + 1) :- h(_, Y, Dp), D + 1 > Dp, h(_, X, D), g(X, Y).
    h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
"""

TC_NODES, TC_DEGREE = 120, 4
GRID_SIDE = 14


def fixpoint_inputs(seed):
    """A random out-degree-4 digraph for ``tc`` and a 14x14 grid graph
    for ``logicH``.  The grid's shape is fixed so every seed does the
    same stage work; the seed only shuffles the node names (and so the
    interned ids and hash order the evaluator sees)."""
    rng = random.Random(seed)
    edges = set()
    for u in range(TC_NODES):
        out = set()
        while len(out) < TC_DEGREE:
            out.add(rng.randrange(TC_NODES))
        edges.update((u, v) for v in out)
    labels = list(range(GRID_SIDE * GRID_SIDE))
    rng.shuffle(labels)

    def name(x, y):
        return "a" if (x, y) == (0, 0) else f"n{labels[x * GRID_SIDE + y]}"

    grid = []
    for x in range(GRID_SIDE):
        for y in range(GRID_SIDE):
            for nx_, ny in ((x + 1, y), (x, y + 1)):
                if nx_ < GRID_SIDE and ny < GRID_SIDE:
                    grid.append((name(x, y), name(nx_, ny)))
                    grid.append((name(nx_, ny), name(x, y)))
    return {"edges": sorted(edges), "grid": grid}


def fixpoint_setup(inputs, tr):
    from repro.core.eval import Database
    from repro.core.parser import parse_program

    with tr.span("parser.parse"):
        tc = parse_program(TC_PROGRAM)
        sptree = parse_program(SPTREE_PROGRAM)
    with tr.span("eval.load"):
        tc_db = Database()
        for edge in inputs["edges"]:
            tc_db.assert_fact("e", edge)
        sp_db = Database()
        for edge in inputs["grid"]:
            sp_db.assert_fact("g", edge)
    return {"tc": tc, "tc_db": tc_db, "sptree": sptree, "sp_db": sp_db}


def fixpoint_run(state, tr):
    from repro.core.eval import evaluate

    with tr.span("eval.seminaive"):
        evaluate(state["tc"], state["tc_db"])
    with tr.span("eval.xy"):
        evaluate(state["sptree"], state["sp_db"])


def fixpoint_collect(state):
    tc_db, sp_db = state["tc_db"], state["sp_db"]
    rows = {
        "tc": set(tc_db.rows("tc")),
        "h": set(sp_db.rows("h")),
        "hp": set(sp_db.rows("hp")),
    }
    counts = {"eval.derived_facts": sum(len(r) for r in rows.values())}
    for key in ("probes", "scans"):
        counts[f"eval.{key}"] = optional(f"eval.{key}", lambda key=key: sum(
            getattr(db.relation(p), key)
            for db in (tc_db, sp_db) for p in db.predicates()
        ))
    return rows, counts


def _bfs(adjacency, source):
    depth = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency.get(u, ()):
            if v not in depth:
                depth[v] = depth[u] + 1
                queue.append(v)
    return depth


def fixpoint_oracle(inputs):
    """``tc``: pairs joined by a path of one or more edges, by BFS from
    each node.  ``logicH``: BFS depths d; ``h(X, Y, d(Y))`` for every
    edge with d(X) = d(Y) - 1 plus the root fact, and ``hp(Y, d(X)+1)``
    for every edge where that exceeds d(Y)."""
    out = {}
    succ = {}
    for u, v in inputs["edges"]:
        succ.setdefault(u, []).append(v)
    tc = set()
    for u, targets in succ.items():
        for w in targets:
            tc.update((u, v) for v in _bfs(succ, w))
    out["tc"] = tc
    adj = {}
    for u, v in inputs["grid"]:
        adj.setdefault(u, []).append(v)
    depth = _bfs(adj, "a")
    out["h"] = {("a", "a", 0)} | {
        (x, y, depth[y]) for x, y in inputs["grid"] if depth[x] == depth[y] - 1
    }
    out["hp"] = {
        (y, depth[x] + 1) for x, y in inputs["grid"] if depth[x] + 1 > depth[y]
    }
    return out


# -- the two GPA join workloads ------------------------------------------------

#: The network workloads run on one fixed deployment: the topology, the
#: simulator's random stream and the nodes that sense are drawn from
#: this seed.  ``--seed`` draws the readings (and which are retracted),
#: so every seed loads the layers equally and only the data differ.
DEPLOYMENT_SEED = 1

JOIN_PROGRAM = "j(K, A, B) :- r(K, A), s(K, B)."
NEG_PROGRAM = JOIN_PROGRAM + "\nu(K, A) :- r(K, A), not s(K, A)."


def _schedule(engine, events, node_ids):
    """Queue the input events on the simulator: ``("pub", when, rank,
    pred, args)`` publishes at node ``node_ids[rank]``; ``("del", when,
    i)`` retracts the i-th event's tuple at its source."""
    sim = engine.network.sim
    published = {}

    def publish(i, node, pred, args):
        published[i] = (node, pred, args, engine.publish(node, pred, args))

    def retract(i):
        engine.retract(*published[i])

    for i, event in enumerate(events):
        if event[0] == "pub":
            _op, when, rank, pred, args = event
            node = node_ids[rank % len(node_ids)]
            sim.schedule_at(when, functools.partial(publish, i, node, pred, args))
        else:
            sim.schedule_at(event[1], functools.partial(retract, event[2]))


def _live_facts(events):
    """(pred, args) facts with at least one published, unretracted copy."""
    retracted = {e[2] for e in events if e[0] == "del"}
    return sorted({
        (e[3], e[4]) for i, e in enumerate(events)
        if e[0] == "pub" and i not in retracted
    })


LOSSY_SIDE = 14
LOSSY_PUBLISHES = 96   # per stream
LOSSY_SPACING = 0.25   # simulated seconds between publishes
LOSSY_DOMAIN = 12      # shared value domain of r and s, so negation bites


def lossy_inputs(seed):
    """Publishes alternate between ``r`` and ``s`` on a fixed simulated
    schedule; a quarter of them are retracted a few slots later, while
    other inserts are still in flight."""
    rng, place = random.Random(seed), random.Random(DEPLOYMENT_SEED)
    events = []
    for i in range(2 * LOSSY_PUBLISHES):
        pred = "rs"[i % 2]
        args = (rng.randrange(4), rng.randrange(LOSSY_DOMAIN))
        events.append(("pub", i * LOSSY_SPACING,
                       place.randrange(LOSSY_SIDE ** 2), pred, args))
    victims = rng.sample(range(len(events)), len(events) // 4)
    for i in sorted(victims):
        events.append(("del", events[i][1] + 5 * LOSSY_SPACING + 0.01, i))
    return {"events": events}


def lossy_setup(inputs, tr):
    from repro.core.parser import parse_program
    from repro.dist.gpa import GPAEngine
    from repro.net.network import GridNetwork
    from repro.net.transport import TransportConfig

    with tr.span("topology.build"):
        # At 10% loss an attempt fails (data or ack lost) with p ~ 0.19;
        # 12 attempts make a give-up ~1e-9 per hop, so no hop gives up.
        net = GridNetwork(LOSSY_SIDE, seed=DEPLOYMENT_SEED, loss_rate=0.10,
                          reliable=True, transport=TransportConfig(max_retries=11))
    with tr.span("parser.parse"):
        program = parse_program(NEG_PROGRAM)
    with tr.span("gpa.install"):
        engine = GPAEngine(program, net, strategy="pa", mode="pipelined").install()
    _schedule(engine, inputs["events"], sorted(net.topology.node_ids))
    return {"net": net, "engine": engine}


def gpa_run(state, tr):
    state["net"].run_all()


def gpa_collect(state, preds):
    net, engine = state["net"], state["engine"]
    rows = {pred: set(engine.rows(pred)) for pred in preds}
    counts = _network_counts(net.metrics, engine, net.sim)
    counts["topology.edges"] = _edges(net.topology)
    return rows, counts


def lossy_oracle(inputs):
    return _central_rows(NEG_PROGRAM, _live_facts(inputs["events"]), ("j", "u"))


BFS_NODES = 3000
BFS_RADIUS = 1.8
BFS_PUBLISHES = 4  # per stream


def bfs_inputs(seed):
    rng, place = random.Random(seed), random.Random(DEPLOYMENT_SEED)
    events = []
    for i in range(BFS_PUBLISHES):
        for pred in "rs":
            events.append(("pub", 0.0, place.randrange(BFS_NODES), pred,
                           (rng.randrange(3), f"{pred}{i}")))
    return {"events": events}


def bfs_setup(inputs, tr):
    from repro.core.parser import parse_program
    from repro.dist.gpa import GPAEngine
    from repro.net.network import RandomNetwork

    with tr.span("topology.build"):
        net = RandomNetwork(BFS_NODES, radius=BFS_RADIUS,
                            side=BFS_NODES ** 0.5, seed=DEPLOYMENT_SEED)
    with tr.span("parser.parse"):
        program = parse_program(JOIN_PROGRAM)
    with tr.span("gpa.install"):
        engine = GPAEngine(program, net, strategy="virtual-grid").install()
    _schedule(engine, inputs["events"], sorted(net.topology.node_ids))
    return {"net": net, "engine": engine}


def bfs_oracle(inputs):
    return _central_rows(JOIN_PROGRAM, _live_facts(inputs["events"]), ("j",))


# -- shard-checkpoint --------------------------------------------------------------

SHARD_NODES = 2000
SHARD_RADIUS = 1.8
SHARD_PUBLISHES = 8  # per stream
CHECKPOINT_EVERY = 150


def shard_inputs(seed):
    rng, place = random.Random(seed), random.Random(DEPLOYMENT_SEED)
    publishes = []
    for i in range(SHARD_PUBLISHES):
        for pred in "rs":
            publishes.append((0.0, place.randrange(SHARD_NODES), pred,
                              (rng.randrange(3), f"{pred}{i}")))
    return {"publishes": publishes}


def shard_spec(inputs):
    from repro.net.shard import WorkloadSpec

    side = SHARD_NODES ** 0.5
    return WorkloadSpec(
        topology={"kind": "random", "n": SHARD_NODES, "radius": SHARD_RADIUS,
                  "side": side, "seed": DEPLOYMENT_SEED},
        program=JOIN_PROGRAM,
        publishes=list(inputs["publishes"]),
        outputs=("j",),
        seed=DEPLOYMENT_SEED,
        strategy="virtual-grid",
        strategy_kwargs={"leg_bound": max(1, int(2 * side / SHARD_RADIUS))},
        routing="geo",
        net={"loss_rate": 0.05, "reliable": True,
             "transport": {"max_retries": 7}},
    )


def shard_count():
    return max(1, min(2, os.cpu_count() or 1))


def shard_setup(inputs, tr):
    from repro.net.shard import build_topology

    spec = shard_spec(inputs)
    with tr.span("topology.build"):
        topology = build_topology(spec)
    return {"spec": spec, "topology": topology}


def shard_run(state, tr):
    from repro.net import shard

    with tr.span("shard.run"):
        state["report"] = shard.run(
            state["spec"], shards=shard_count(), topology=state["topology"],
            checkpoint_every=CHECKPOINT_EVERY,
        )


def shard_collect(state):
    report = state["report"]
    rows = {pred: set(r) for pred, r in report.rows.items()}
    counts = _network_counts(report.metrics)
    counts["topology.edges"] = _edges(state["topology"])
    counts["shard.windows"] = optional("shard.windows", lambda: report.windows)
    counts["shard.border_records"] = optional(
        "shard.border_records", lambda: report.border_records)
    counts["sim.events"] = optional("sim.events", lambda: report.events_processed)
    counts["shard.event_skew"] = optional("shard.event_skew", lambda: (
        max(s["events"] for s in report.per_shard)
        / (sum(s["events"] for s in report.per_shard) / len(report.per_shard))
    ))
    sup = optional("checkpoint", lambda: dict(report.supervision)) or {}
    counts["checkpoint.count"] = sup.get("checkpoints")
    counts["checkpoint.bytes"] = sup.get("checkpoint_bytes")
    counts["shard.fingerprint"] = optional("shard.fingerprint", report.fingerprint)
    return rows, counts


def shard_times(state):
    """Coordinator-side wall times the report carries (not exact, so
    kept out of the determinism guard)."""
    sup = (getattr(state["report"], "supervision", None) or {})
    return {"checkpoint.capture_s": sup.get("checkpoint_seconds")}


def shard_oracle(inputs):
    facts = [(pred, args) for _when, _node, pred, args in inputs["publishes"]]
    return _central_rows(JOIN_PROGRAM, facts, ("j",))


def shard_single_fingerprint(inputs):
    """The same spec on the single-process simulator (``shards=None``):
    the sharded report's fingerprint must equal this one."""
    from repro.net import shard

    return shard.run(shard_spec(inputs), shards=None).fingerprint()


# -- the registry -------------------------------------------------------------------


WORKLOADS = {
    "eval-fixpoint": {
        "inputs": fixpoint_inputs,
        "setup": fixpoint_setup,
        "run": fixpoint_run,
        "collect": fixpoint_collect,
        "oracle": fixpoint_oracle,
        # Wrapped too, so the trace shows that no network code runs.
        "wrap": True,
    },
    "join-grid-lossy": {
        "inputs": lossy_inputs,
        "setup": lossy_setup,
        "run": gpa_run,
        "collect": lambda state: gpa_collect(state, ("j", "u")),
        "oracle": lossy_oracle,
        "wrap": True,
    },
    "join-random-bfs": {
        "inputs": bfs_inputs,
        "setup": bfs_setup,
        "run": gpa_run,
        "collect": lambda state: gpa_collect(state, ("j",)),
        "oracle": bfs_oracle,
        "wrap": True,
    },
    "shard-checkpoint": {
        "inputs": shard_inputs,
        "setup": shard_setup,
        "run": shard_run,
        "collect": shard_collect,
        "times": shard_times,
        "oracle": shard_oracle,
        "reference_fingerprint": shard_single_fingerprint,
        # Shard workers are forked from the measured process: in-process
        # wrappers would slow them without their spans ever coming back.
        "wrap": False,
    },
}

