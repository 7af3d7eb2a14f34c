"""Span tracer for the kcbs-msr benchmark, applied from outside the package.

The tracer wraps the public functions of each layer module (the functions
listed in the module's ``__all__``) and patches every module of the package
that holds a reference to them, because ``checks``, ``classify``, ``cli`` and
``extremal`` import names such as ``s_closed_form`` into their own
namespaces.  ``uninstall`` puts every original back.

Spans are kept in memory as parallel arrays (name, start, end, parent,
operation id) and written out as JSON lines when the run ends.  Per-layer
metrics are derived from them per operation: a layer's time is the summed
duration of its outermost spans, and a span's self time is its duration
minus the durations of its direct children (one thread, so children never
overlap).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import statistics
import time
from array import array

import numpy as np

LAYERS = ("cli", "scan", "states", "measures", "classify", "observables", "extremal", "checks")

# Grid arrays built by scan.compute_scan per record: seven float64 arrays
# (t1, t2, dphi, f, y, s, c) and one label array of '<U21' (4 bytes a char).
KERNEL_BYTES_PER_RECORD = 7 * 8 + 21 * 4

# Per-layer metrics and their units, in the order they are printed.
PER_LAYER_UNITS = {
    "scan.compute_s": "s",
    "scan.compute_rss_mb": "MB",
    "scan.records": "count",
    "scan.render_s": "s",
    "scan.bytes": "bytes",
    "scan.write_s": "s",
    "scan.counts_s": "s",
    "scan.kernel_bytes_computed": "bytes",
    "states.sample_s": "s",
    "states.qutrit_calls": "count",
    "states.qutrit_s": "s",
    "states.f_calls": "count",
    "states.f_s": "s",
    "measures.calls": "count",
    "measures.s": "s",
    "classify.calls": "count",
    "classify.s": "s",
    "observables.calls": "count",
    "observables.s": "s",
    "extremal.search_calls": "count",
    "extremal.search_s": "s",
    "extremal.witness_s": "s",
    "checks.run_s": "s",
    "checks.self_s": "s",
    "checks.passed": "count",
    "checks.total": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


def _rss_mb() -> float:
    """Current resident set size of this process in MB (0 where unavailable)."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * _PAGE_MB
    except (OSError, IndexError, ValueError):
        return 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process's address space in MB.

    Read from VmHWM, which starts afresh at exec.  ``ru_maxrss`` does not: it
    carries over the high-water mark of the process that spawned this one,
    so a large parent would mask a small workload's peak.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Counts recorded at a span's boundary from the function's return value.
_COUNTERS = {
    "scan.compute_scan": lambda res: {"scan.records": len(res)},
    "scan.render_csv": lambda res: {"scan.bytes": len(res)},
    "scan.render_json": lambda res: {"scan.bytes": len(res)},
    "checks.run_all_checks": lambda res: {
        "checks.passed": sum(1 for r in res if r.passed),
        "checks.total": len(res),
    },
}
# Spans across which the growth of the resident set is recorded.
_RSS_SPANS = {"scan.compute_scan": "scan.compute_rss_mb"}


class Tracer:
    """Records spans of the wrapped layer functions while installed."""

    def __init__(self) -> None:
        self.package = importlib.import_module("kcbs_msr")
        self.modules = {name: importlib.import_module(f"kcbs_msr.{name}") for name in LAYERS}
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.counts: dict[int, dict[str, float]] = {}
        self.op = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        for layer, module in self.modules.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    self._wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)

    def _intern(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops, stack = self.span_parent, self.span_op, self._stack
        clock = time.perf_counter_ns
        counter = _COUNTERS.get(name)
        rss_key = _RSS_SPANS.get(name)
        tracer = self

        if counter is None and rss_key is None:
            # The common, lean wrapper: a verify op makes ~0.5 M spans, so
            # every statement here adds visibly to trace.overhead_s.

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ops.append(tracer.op)
                ends.append(0)
                stack.append(idx)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()

            return traced

        @functools.wraps(fn)
        def traced_counted(*args, **kwargs):
            rss_before = _rss_mb() if rss_key else 0.0
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            op_counts = tracer.counts.setdefault(tracer.op, {})
            if counter is not None:
                for key, value in counter(result).items():
                    op_counts[key] = op_counts.get(key, 0) + value
            if rss_key is not None:
                op_counts[rss_key] = op_counts.get(rss_key, 0.0) + _rss_mb() - rss_before
            return result

        return traced_counted

    def install(self, op: int) -> None:
        """Patch every reference to a wrapped function; spans get operation id ``op``."""
        self.op = op
        for module in (self.package, *self.modules.values()):
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched reference."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)
        self.op = -1

    def write_jsonl(self, path, meta: dict) -> None:
        """Write a header line naming the fields and the span names, then one
        ``[name, start_ns, end_ns, parent, op]`` line a span.

        ``name`` indexes the header's ``names``; times count from the first
        span; ``parent`` numbers the enclosing span's line, counting span lines
        from 0, and is -1 at the top.
        """
        t0 = self.span_start[0] if self.span_start else 0
        header = {**meta, "names": self.names, "fields": ["name", "start_ns", "end_ns", "parent", "op"]}
        rows = zip(self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            fh.writelines(f"[{n},{s - t0},{e - t0},{p},{o}]\n" for n, s, e, p, o in rows)

    def per_op_metrics(self) -> dict[int, dict[str, float]]:
        """Per-layer metrics of every traced operation, keyed by operation id."""
        name = np.array(self.span_name, dtype=np.int64)
        parent = np.array(self.span_parent, dtype=np.int64)
        dur = (np.array(self.span_end) - np.array(self.span_start)) * 1e-9
        ops, op_index = np.unique(np.array(self.span_op), return_inverse=True)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        span_layer = np.array([LAYERS.index(n.split(".", 1)[0]) for n in self.names], dtype=np.int64)[name]
        parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], -1)
        values = {"dur": dur, "self": dur - child, "calls": np.ones_like(dur)}

        columns = {}
        for metric, (scope, target, kind) in _METRIC_DEFS.items():
            if scope == "layer":
                selected = span_layer == LAYERS.index(target)
                if kind == "dur":  # a layer's time: its outermost spans only
                    selected &= parent_layer != span_layer
            else:
                ids = [self.name_id[n] for n in target if n in self.name_id]
                selected = np.isin(name, ids)
            columns[metric] = np.bincount(
                op_index[selected], weights=values[kind][selected], minlength=len(ops)
            )

        per_op = {}
        for k, op in enumerate(ops.tolist()):
            m = _empty_metrics()
            for metric, column in columns.items():
                m[metric] = int(column[k]) if _is_count(metric) else float(column[k])
            m.update(self.counts.get(op, {}))
            m["scan.kernel_bytes_computed"] = m["scan.records"] * KERNEL_BYTES_PER_RECORD
            per_op[op] = m
        return per_op


# How each span-derived metric is computed: ("span", names, kind) sums over
# spans of those functions, ("layer", layer, kind) over spans of the layer.
# kind "dur" sums durations (for a layer, of its outermost spans only),
# "self" sums self times and "calls" counts spans.
_METRIC_DEFS = {
    "scan.compute_s": ("span", ["scan.compute_scan"], "dur"),
    "scan.render_s": ("span", ["scan.render_csv", "scan.render_json"], "dur"),
    "scan.write_s": ("span", ["scan.write_scan"], "self"),
    "scan.counts_s": ("span", ["scan.regime_counts"], "dur"),
    "states.sample_s": ("span", ["states.sample_pairs"], "dur"),
    "states.qutrit_calls": ("span", ["states.msr_to_qutrit"], "calls"),
    "states.qutrit_s": ("span", ["states.msr_to_qutrit"], "dur"),
    "states.f_calls": ("span", ["states.f_function"], "calls"),
    "states.f_s": ("span", ["states.f_function"], "dur"),
    "measures.calls": ("layer", "measures", "calls"),
    "measures.s": ("layer", "measures", "dur"),
    "classify.calls": ("layer", "classify", "calls"),
    "classify.s": ("layer", "classify", "dur"),
    "observables.calls": ("layer", "observables", "calls"),
    "observables.s": ("layer", "observables", "dur"),
    "extremal.search_calls": ("span", ["extremal.numeric_extremal_search"], "calls"),
    "extremal.search_s": ("span", ["extremal.numeric_extremal_search"], "dur"),
    "extremal.witness_s": ("span", ["extremal.extremal_witnesses"], "dur"),
    "checks.run_s": ("span", ["checks.run_all_checks"], "dur"),
    "checks.self_s": ("span", ["checks.run_all_checks"], "self"),
    "cli.self_s": ("span", ["cli.main"], "self"),
}


def _is_count(metric: str) -> bool:
    return PER_LAYER_UNITS[metric] in ("count", "bytes")


def _empty_metrics() -> dict[str, float]:
    return {name: (0 if _is_count(name) else 0.0)
            for name in PER_LAYER_UNITS if name != "trace.overhead_s"}


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median of each per-layer metric over the given (non-empty) operations."""
    return {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
