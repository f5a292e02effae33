"""Span tracing for the mvsc benchmark.

The child side (`Tracer`) wraps the public functions of the traced mvsc
modules at their module attributes and records one span per call:
(id, name, start, end, parent id, thread id). Each thread keeps its own
parent stack. A span opened at the root of a worker thread (the restart
pool) takes as parent the innermost span open in the thread that
installed the tracer, which is `pipeline.run_restarts` while the pool
runs. Spans stay in memory and are written as JSON when the command ends.

The parent side (`layer_metrics`) reads that JSON and derives busy time,
call counts and self time per span name, and from them the per-layer
metrics the benchmark reports. This module imports nothing from mvsc at
import time, so run.py can use the analysis half without
loading numpy.
"""

import inspect
import itertools
import json
import logging
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

TRACED_MODULES = ("data", "graphs", "spectral", "metrics", "solver", "pipeline")

# linalg is not a traced layer, but these two kernels carry the SVT and
# the Z solve; they are wrapped where the solver sees them.
SOLVER_KERNELS = ("svt", "solve_spd")

# (logger name, message template) -> counter name
LOG_COUNTERS = {
    ("mvsc.linalg", "Cholesky failed; retrying with diagonal jitter %.3e"):
        "linalg.cholesky_jitter_retries",
    ("mvsc.spectral", "spectral clustering produced %d nonempty clusters (asked for %d)"):
        "spectral.fewer_clusters",
}


class _LogCounter(logging.Handler):
    def __init__(self, counters, lock):
        super().__init__(level=logging.WARNING)
        self._counters = counters
        self._lock = lock

    def emit(self, record):
        name = LOG_COUNTERS.get((record.name, record.msg))
        if name is not None:
            with self._lock:
                self._counters[name] += 1


class Tracer:
    """Records spans around the public functions of the traced modules."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.q_ranks = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._origin = time.perf_counter()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        tracer = self
        hook = {"solver.svt": self._after_svt, "solver.fit": self._after_fit}.get(name)

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                tail = tracer._main_stack[-1:]
                parent = tail[0] if tail else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, name, start - tracer._origin, end - tracer._origin,
                     parent, threading.get_ident())
                )
            if hook is not None:
                hook(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _after_svt(self, Q):
        if not Q.any():
            with self._lock:
                self.counters["solver.svt.zero_calls"] += 1

    def _after_fit(self, result):
        import numpy as np

        rank = int(np.linalg.matrix_rank(result[1].Q))
        with self._lock:
            self.q_ranks.append(rank)

    def install(self):
        """Wrap every traced function and rebind each alias of it (from-imports
        in other mvsc modules) to the same wrapper."""
        import mvsc  # noqa: F401  (loads every submodule)

        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules["mvsc." + short]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == module.__name__:
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
        solver = sys.modules["mvsc.solver"]
        for attr in SOLVER_KERNELS:
            obj = getattr(solver, attr)
            wrappers[obj] = self._wrap(obj, f"solver.{attr}")
        for modname, module in list(sys.modules.items()):
            if modname != "mvsc" and not modname.startswith("mvsc."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
        handler = _LogCounter(self.counters, self._lock)
        for logger_name in {key[0] for key in LOG_COUNTERS}:
            logging.getLogger(logger_name).addHandler(handler)

    def dump(self, path):
        doc = {
            "spans": self.spans,
            "counters": dict(self.counters),
            "q_ranks": self.q_ranks,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _covered(start, end, children):
    """Length of [start, end] covered by the union of the children's intervals."""
    total, reach = 0.0, start
    for c_start, c_end in sorted((max(s, start), min(e, end)) for s, e in children):
        if c_end <= reach:
            continue
        total += c_end - max(c_start, reach)
        reach = c_end
    return total


def span_table(doc):
    """Busy time, call count and self time per span name, plus a list of
    structural problems (a span outside its parent, or a dangling parent)."""
    spans = doc["spans"]
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    problems = []
    for span_id, name, start, end, parent, _ in spans:
        if end < start:
            problems.append(f"span {name} ends before it starts")
        if parent is None:
            continue
        outer = by_id.get(parent)
        if outer is None:
            problems.append(f"span {name} has a dangling parent")
            continue
        if start < outer[2] or end > outer[3]:
            problems.append(f"span {name} lies outside its parent {outer[1]}")
        children[parent].append((start, end))
    busy, calls, self_time = Counter(), Counter(), Counter()
    for span_id, name, start, end, _, _ in spans:
        busy[name] += end - start
        calls[name] += 1
        self_time[name] += (end - start) - _covered(start, end, children[span_id])
    return busy, calls, self_time, problems


def layer_metrics(doc):
    """Per-layer metrics of one traced command, keyed by metric name."""
    busy, calls, self_time, problems = span_table(doc)
    counters = doc["counters"]
    ranks = doc["q_ranks"]
    restarts_wall = busy["pipeline.run_restarts"]
    metrics = {
        "data.load_dataset.s": busy["data.load_dataset"],
        "data.normalize_views.s": busy["data.normalize_views"],
        "graphs.build_graph_set.s": busy["graphs.build_graph_set"],
        "graphs.build_graph_set.calls": calls["graphs.build_graph_set"],
        "graphs.first_order_proximity.calls": calls["graphs.first_order_proximity"],
        "graphs.second_order_proximity.s": busy["graphs.second_order_proximity"],
        "solver.fit.s": busy["solver.fit"],
        "solver.fit.calls": calls["solver.fit"],
        "solver.fit.self_s": self_time["solver.fit"],
        "solver.alm_iterations": calls["solver.update_E"],
        "solver.update_Q.s": busy["solver.update_Q"],
        "solver.svt.s": busy["solver.svt"],
        "solver.svt.zero_calls": counters.get("solver.svt.zero_calls", 0),
        "solver.q_rank_final": statistics.median(ranks) if ranks else 0,
        "solver.update_Z.s": busy["solver.update_Z"],
        "solver.solve_spd.s": busy["solver.solve_spd"],
        "solver.update_Z.self_s": self_time["solver.update_Z"],
        "solver.update_E.s": busy["solver.update_E"],
        "solver.update_multipliers.s": busy["solver.update_multipliers"],
        "linalg.cholesky_jitter_retries": counters.get("linalg.cholesky_jitter_retries", 0),
        "spectral.spectral_cluster.calls": calls["spectral.spectral_cluster"],
        "spectral.spectral_embedding.s": busy["spectral.spectral_embedding"],
        "spectral.kmeans.s": busy["spectral.kmeans"],
        "spectral.fewer_clusters": counters.get("spectral.fewer_clusters", 0),
        "metrics.evaluate.s": busy["metrics.evaluate"],
        "metrics.nmi.calls": calls["metrics.nmi"],
        "pipeline.run_restarts.s": restarts_wall,
        "pipeline.restart_parallelism":
            busy["solver.fit"] / restarts_wall if restarts_wall > 0 else 0.0,
        "pipeline.write_csv.s": busy["pipeline.write_csv"],
        "trace.spans": len(doc["spans"]),
    }
    return metrics, problems
