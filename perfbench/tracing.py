"""Span recording for the traced run.

A span is ``(name, start, end, parent)``: ``parent`` is the index of
the enclosing span, or -1.  Spans stay in memory until the run ends;
:meth:`Tracer.write` then writes them out and :meth:`Tracer.self_times`
charges each span's duration, minus the part its child spans cover, to
its name.

The benchmark opens spans around its own calls into each layer
(``tr.span``) and, for the network workloads, wraps the public entry
points of the per-message layers (:func:`install`).  Entry points that
no longer exist are skipped and listed, never fatal.
"""

from __future__ import annotations

import contextlib
import gzip
import time

perf_counter = time.perf_counter


class NullTracer:
    """The untraced run's recorder: every span is a no-op."""

    enabled = False

    @staticmethod
    def span(_name):
        return contextlib.nullcontext()


class Tracer:
    enabled = True

    def __init__(self):
        self.records = []
        self._stack = []
        #: Distinct destinations asked of the BFS router.
        self.destinations = set()

    @contextlib.contextmanager
    def span(self, name):
        records, stack = self.records, self._stack
        idx = len(records)
        records.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            records[idx] = (name, start, end, parent)

    def wrap(self, fn, name_of, observe=None):
        """``fn`` recording one span per call, named ``name_of(args)``
        (a string is used as is)."""
        records, stack = self.records, self._stack
        fixed = name_of if isinstance(name_of, str) else None

        def traced(*args, **kwargs):
            if observe is not None:
                observe(args)
            idx = len(records)
            records.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                records[idx] = (fixed or name_of(args), start, end, parent)

        traced.__wrapped__ = fn
        return traced

    def self_times(self, root):
        """``{name: (self seconds, calls)}`` over the spans inside the
        first span named ``root`` (which is included)."""
        records = self.records
        root_idx = next(i for i, r in enumerate(records) if r[0] == root)
        inside = {root_idx}
        child_time = [0.0] * len(records)
        for i in range(root_idx + 1, len(records)):
            name, start, end, parent = records[i]
            if parent in inside:
                inside.add(i)
                child_time[parent] += end - start
        out = {}
        for i in sorted(inside):
            name, start, end, _parent = records[i]
            secs, calls = out.get(name, (0.0, 0))
            out[name] = (secs + (end - start) - child_time[i], calls + 1)
        return out

    def write(self, path):
        """Write every span as one tab-separated line (gzip)."""
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.records:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def _deliver_span(args):
    # Routed envelopes are forwarding glue of the node layer; every
    # other message goes to a registered phase handler (dist.gpa).
    return "node.routed" if args[1].kind == "__routed__" else "gpa.handler"


def install(tracer):
    """Wrap the per-message entry points of the network and GPA layers.
    Returns the entry points that were missing."""
    import importlib

    def note_destination(args):
        tracer.destinations.add(args[2])

    targets = [
        ("repro.net.sim", "Simulator", "run", "sim.dispatch", None),
        ("repro.net.node", "Node", "deliver", _deliver_span, None),
        ("repro.net.routing", "Router", "next_hop", "routing.next_hop",
         note_destination),
        ("repro.net.routing", "Router", "envelope_hop", "routing.envelope_hop",
         None),
        ("repro.net.radio", "Radio", "transmit", "radio.transmit", None),
        # The receiver half of a frame and the retransmission timer run
        # as simulator events, outside any transmit span.
        ("repro.net.radio", "Radio", "_frame_arrival", "radio.arrival", None),
        ("repro.net.transport", "ReliableTransport", "_on_timeout",
         "transport.timer", None),
        ("repro.dist.gpa", "GPAEngine", "publish", "gpa.publish", None),
        ("repro.dist.gpa", "GPAEngine", "retract", "gpa.retract", None),
    ]
    missing = []
    for module, cls_name, attr, name, observe in targets:
        try:
            cls = getattr(importlib.import_module(module), cls_name)
            fn = getattr(cls, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{cls_name}.{attr}")
            continue
        setattr(cls, attr, tracer.wrap(fn, name, observe))
    return missing
