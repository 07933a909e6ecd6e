"""Layer spans recorded from outside the program.

The tracer replaces public functions with timing wrappers at the place the
caller looks them up (``dmsgd.harness`` globals for the names the harness
imports, ``dmsgd.optimizer`` globals for the names ``run`` calls, the
``dmsgd.bounds`` module attributes and two ``UnifiedObjective`` methods), and
restores them afterwards.  Nothing under ``src/`` changes.

Each span records its layer, thread id, start, end and parent (the enclosing
span on the same thread), so overlap between pool workers stays visible.
Spans are kept in memory and reduced to per-layer totals when a job ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
from time import perf_counter


class Span:
    __slots__ = ("layer", "tid", "t0", "t1", "parent", "child_s", "counts")

    def __init__(self, layer, tid, parent):
        self.layer, self.tid, self.parent = layer, tid, parent
        self.child_s = 0.0
        self.counts = None

    @property
    def duration(self):
        return self.t1 - self.t0

    @property
    def nested(self):
        """True when an enclosing span belongs to the same layer."""
        p = self.parent
        while p is not None:
            if p.layer == self.layer:
                return True
            p = p.parent
        return False


def _run_counts(args, trace):
    return {"agent_iters": len(trace) * trace.swarm.x_cur.shape[0],
            "aborted_runs": int(trace.status != "completed")}


def _trace_written(args, result):
    return {"rows_written": len(args[1]), "bytes_written": os.path.getsize(args[0])}


def _bounds_written(args, result):
    return {"rows_written": sum(len(ks) for _, ks, _ in args[1]),
            "bytes_written": os.path.getsize(args[0])}


def _trace_read(args, result):
    return {"rows_read": len(result[1]["k"])}


def _bounds_read(args, result):
    return {"rows_read": sum(len(v) for v in result[1].values())}


def layer_table(harness, optimizer, bounds, objectives):
    """(owner, attribute, layer, counter) for every wrapped callable."""
    table = []
    for attr in ("build_topology", "load_edge_list", "metropolis_mixing"):
        table.append((harness, attr, "topology.build", None))
    table.append((harness, "spectrum", "topology.spectrum", None))
    for attr in ("make_quadratic", "make_pl", "make_logistic", "make_synthetic_dataset",
                 "partition_iid", "partition_noniid", "load_dataset_csv"):
        table.append((harness, attr, "objectives.suite", None))
    for attr in ("unified_optimum", "common_optimum"):
        table.append((harness, attr, "objectives.optimum", None))
    table.append((optimizer, "stochastic_grad", "objectives.oracle", None))
    for attr in ("value", "grad"):
        table.append((objectives.UnifiedObjective, attr, "objectives.eval", None))
    table.append((harness, "run", "optimizer.run", _run_counts))
    table.append((optimizer, "step", "optimizer.step", None))
    for attr in bounds.__all__:
        if callable(getattr(bounds, attr)) and not isinstance(getattr(bounds, attr), type):
            table.append((bounds, attr, "bounds.eval", None))
    table.append((harness, "check_bound_domination", "verify.check", None))
    table.append((harness, "build_scenario", "harness.scenario", None))
    table.append((harness, "pilot_measurements", "harness.pilot", None))
    table.append((harness, "write_trace_csv", "harness.write", _trace_written))
    table.append((harness, "write_bounds_csv", "harness.write", _bounds_written))
    table.append((harness, "read_trace_csv", "harness.read", _trace_read))
    table.append((harness, "read_bounds_csv", "harness.read", _bounds_read))
    return table


class Tracer:
    """Collects spans from every thread while its wrappers are installed."""

    def __init__(self, table):
        self.table = table
        self.spans = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(layer, threading.get_ident(), stack[-1] if stack else None)
            stack.append(span)
            span.t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.t1 - span.t0
                tracer.spans.append(span)
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        saved = []
        try:
            for owner, attr, layer, counter in self.table:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, layer, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def take(self):
        spans, self.spans = self.spans, []
        return spans


def reduce_spans(spans, main_tid, pooled_wall_s):
    """Per-layer totals for one job.

    A layer's time counts only its outermost spans, so a bound that calls
    another bound is not counted twice; its call count counts every span.
    Self time is a span minus the spans it directly encloses.  The pool ratio
    is the busy time of pool worker threads (their top-level spans) divided
    by the wall time of the commands that ran a pool.
    """
    time_s, calls, self_s, counts = {}, {}, {}, {}
    worker_busy = 0.0
    for s in spans:
        calls[s.layer] = calls.get(s.layer, 0) + 1
        if not s.nested:
            time_s[s.layer] = time_s.get(s.layer, 0.0) + s.duration
        self_s[s.layer] = self_s.get(s.layer, 0.0) + s.duration - s.child_s
        if s.tid != main_tid and s.parent is None:
            worker_busy += s.duration
        for key, value in (s.counts or {}).items():
            counts[key] = counts.get(key, 0) + value
    ratio = worker_busy / pooled_wall_s if pooled_wall_s > 0 else 1.0
    return time_s, calls, self_s, counts, ratio
