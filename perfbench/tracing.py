"""Span tracing for the benchmark's traced run, installed from outside.

:class:`Tracer` wraps public methods of each layer (see
:data:`LAYER_HOOKS`) with timing wrappers for the length of one traced
run and restores the originals afterwards; no file under ``src/``
changes.  Spans are kept in memory as parallel lists (name, start, end,
parent, query id), self time is a span's duration minus its children's,
and :meth:`Tracer.write_chrome` exports them as a Chrome trace-event
file (open it in ``chrome://tracing`` or Perfetto).
"""

from __future__ import annotations

import contextlib
import functools
import json
import pathlib
from collections import Counter
from time import perf_counter

import numpy as np

from repro.apps.base import App
from repro.core import SageScheduler
from repro.graph.csr import CSRGraph
from repro.gpusim.device import Device
from repro.obs import MetricsRegistry
from repro.serve.cache import GraphStore, ResultCache
from repro.serve.executor import BatchExecutor

#: (owner, method, span name) of every traced layer boundary.
LAYER_HOOKS = (
    (SageScheduler, "kernel_stats", "core.kernel_stats"),
    (SageScheduler, "post_level", "core.post_level"),
    (Device, "run_kernel", "gpusim.run_kernel"),
    (CSRGraph, "expand_frontier", "graph.expand_frontier"),
    (CSRGraph, "permute", "graph.permute"),
    (BatchExecutor, "execute", "serve.execute"),
    (GraphStore, "apply_edges", "graph.apply_edges"),
    (ResultCache, "apply_delta", "serve.cache_apply_delta"),
)

#: Spans the benchmark opens itself around each unit of work; their self
#: time is the caller-side layer's own cost.
QUERY_SPAN = "core.query"
REPLAY_SPAN = "serve.replay"

#: Per-layer metric fed by each span's summed self time.
SPAN_METRICS = {
    QUERY_SPAN: "core.pipeline_self_s",
    REPLAY_SPAN: "serve.replay_self_s",
    "core.kernel_stats": "core.kernel_stats_s",
    "core.post_level": "core.post_level_s",
    "gpusim.run_kernel": "gpusim.run_kernel_s",
    "graph.expand_frontier": "graph.expand_frontier_s",
    "graph.permute": "graph.permute_s",
    "apps.process_level": "apps.process_level_s",
    "serve.execute": "serve.execute_s",
    "graph.apply_edges": "graph.apply_edges_s",
    "serve.cache_apply_delta": "serve.cache_apply_delta_s",
}


def _app_classes() -> list[type]:
    """Every loaded App subclass that defines its own ``process_level``."""
    found, pending = [], [App]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "process_level" in vars(cls) and cls is not App:
            found.append(cls)
    return found


class Tracer:
    """In-memory spans plus the kernel counters observed at the hooks."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.qids: list[int] = []
        #: query (or rate-step) id stamped on every span opened next
        self.qid = -1
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[type, str, object]] = []
        self._pending_update = None

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.qids.append(self.qid)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span called ``name``."""
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def _wrap(self, owner: type, attr: str, name: str) -> None:
        """Time ``owner.attr`` under span ``name``; a tracer method
        ``_observe_<attr>`` also sees each call's arguments and result."""
        original = vars(owner)[attr]
        observe = getattr(self, f"_observe_{attr}", None)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if observe is not None:
                observe(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    @contextlib.contextmanager
    def hooks(self):
        """Wrap every layer hook for the ``with`` block, then restore
        every wrapped method, even on error."""
        try:
            for owner, attr, name in LAYER_HOOKS:
                self._wrap(owner, attr, name)
            for cls in _app_classes():
                self._wrap(cls, "process_level", "apps.process_level")
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _observe_kernel_stats(self, args, stats) -> None:
        self.counts["iterations"] += 1
        self.counts["edges_traversed"] += stats.active_edges

    def _observe_post_level(self, args, commit) -> None:
        if commit is not None:
            self.counts["reorder_commits"] += 1
            self._pending_update = commit.update_stats

    def _observe_run_kernel(self, args, timing) -> None:
        stats = args[1]
        counts = self.counts
        counts["kernels"] += 1
        counts["compute_cycles"] += timing.compute_cycles
        counts["memory_cycles"] += timing.memory_cycles
        counts["launch_cycles"] += timing.launch_cycles
        counts["overhead_cycles"] += timing.overhead_cycles
        counts["dram_bytes"] += timing.dram_bytes
        counts["active_lanes"] += stats.active_edges
        counts["issued_lanes"] += stats.issued_lane_cycles
        if stats is self._pending_update:
            counts["reorder_kernel_cycles"] += timing.cycles
            self._pending_update = None

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its children."""
        duration = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        nested = parents >= 0
        children = np.bincount(
            parents[nested], weights=duration[nested], minlength=duration.size
        )
        return duration - children

    def layer_metrics(
        self, registry: MetricsRegistry, units: int
    ) -> dict[str, float]:
        """Per-layer host seconds and kernel counts per unit of work,
        plus the memo and lane ratios (hits per expansion kernel)."""
        own = self.self_times()
        names = np.asarray(self.names)
        out = {
            metric: float(own[names == span].sum()) / units
            for span, metric in SPAN_METRICS.items()
        }
        c = self.counts
        for key in ("iterations", "kernels", "edges_traversed",
                    "reorder_commits"):
            out[f"core.{key}"] = c[key] / units
        for key in ("moved_nodes", "sampled_pairs"):
            out[f"core.reorder.{key}"] = (
                registry.counters.get(f"reorder.{key}", 0.0) / units
            )
        expand = max(1, c["iterations"])
        out["core.decomp_memo_hit_ratio"] = (
            registry.counters.get("sage.decomp_cache_hits", 0.0) / expand
        )
        out["core.edge_accounting_memo_hit_ratio"] = (
            registry.counters.get("sage.edge_accounting_cache_hits", 0.0)
            / expand
        )
        for key in ("compute_cycles", "memory_cycles", "launch_cycles",
                    "overhead_cycles", "dram_bytes"):
            out[f"gpusim.{key}"] = c[key] / units
        out["gpusim.lane_efficiency"] = (
            c["active_lanes"] / c["issued_lanes"] if c["issued_lanes"] else 1.0
        )
        out["core.reorder_kernel_cycles"] = c["reorder_kernel_cycles"] / units
        return out

    def write_chrome(self, path: pathlib.Path) -> None:
        """Export the spans as Chrome trace events (microseconds)."""
        origin = min(self.starts, default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"qid": qid, "parent": parent},
            }
            for name, start, end, parent, qid in zip(
                self.names, self.starts, self.ends, self.parents, self.qids
            )
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
