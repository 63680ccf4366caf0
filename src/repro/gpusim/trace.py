"""Trace-driven cache analysis (the deep-profiling companion tool).

While the cost model estimates L2 behaviour analytically for speed, this
module replays a traversal's *exact* sector access stream through the
exact :class:`~repro.gpusim.memory.LRUCacheModel` — the kind of ground
truth Nsight Compute provides on real hardware.  It is used by tests to
validate the analytic estimator and by users to inspect how reordering
changes cache behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import App
from repro.core.pipeline import Level, LevelPricer, run_levels
from repro.graph.csr import CSRGraph
from repro.gpusim.memory import LRUCacheModel
from repro.gpusim.spec import GPUSpec
from repro.gpusim.streams import TraceNode


@dataclass(frozen=True)
class CacheTraceReport:
    """Exact cache statistics of one traversal."""

    accesses: int
    hits: int
    misses: int
    iterations: int

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def dram_sectors(self) -> int:
        return self.misses


class _CacheReplay(LevelPricer):
    """Prices no time: replays each level's value-array sectors through
    an exact LRU cache instead."""

    name = "cache-trace"

    def __init__(
        self, cache: LRUCacheModel, sector_width: int, stride: int
    ) -> None:
        self.cache = cache
        self.sector_width = sector_width
        self.stride = stride
        self.accesses = 0

    def price(
        self, graph: CSRGraph, app: App, level: Level, trace: list[TraceNode]
    ) -> None:
        sectors = (level.edge_dst // self.sector_width)[::self.stride]
        self.cache.access(sectors)
        self.accesses += int(sectors.size)


def replay_cache_trace(
    graph: CSRGraph,
    app: App,
    source: int | None = None,
    *,
    spec: GPUSpec | None = None,
    capacity_sectors: int | None = None,
    max_iterations: int = 10_000,
    sample_stride: int = 1,
) -> CacheTraceReport:
    """Run ``app`` functionally and replay its value-array sector trace.

    Args:
        graph: input graph.
        app: application (run to convergence, results discarded).
        source: traversal source if the app needs one.
        spec: hardware description (sector width, default L2 size).
        capacity_sectors: cache size override.
        max_iterations: convergence guard.
        sample_stride: replay every ``stride``-th access (>=1) to bound
            cost on large traces; hits/misses are scaled accordingly.

    Returns:
        Exact LRU statistics over the (possibly strided) access stream.
    """
    spec = spec or GPUSpec()
    capacity = capacity_sectors or spec.l2_sectors
    replay = _CacheReplay(
        LRUCacheModel(capacity), spec.sector_width, sample_stride
    )
    result = run_levels(replay, graph, app, source, max_iterations)
    return CacheTraceReport(
        accesses=replay.accesses,
        hits=replay.cache.hits,
        misses=replay.cache.misses,
        iterations=result.iterations,
    )
