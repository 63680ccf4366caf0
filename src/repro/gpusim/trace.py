"""Trace-driven cache analysis (the deep-profiling companion tool).

While the cost model estimates L2 behaviour analytically for speed
(:func:`~repro.gpusim.memory.estimate_dram_sectors`), this module
replays a traversal's *exact* sector access stream through an exact
:class:`LRUCacheModel` — the kind of ground truth Nsight Compute
provides on real hardware.  It is used by tests to validate the analytic
estimator and by users to inspect how reordering changes cache
behaviour.  It is an analysis tool, not a hot path: the simulated
kernels never call it, so the LRU walks its stream one sector at a time.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.apps.base import App
from repro.core.pipeline import Level, LevelPricer, run_levels
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.gpusim.spec import GPUSpec
from repro.gpusim.streams import TraceNode

#: Levels a replayed run may take before it raises ConvergenceError.
MAX_ITERATIONS = 10_000


class LRUCacheModel:
    """Exact LRU cache over sector ids.

    An ordered dict holds the resident sectors from least to most
    recently used: a hit moves its sector to the end, a miss appends it
    and evicts the front once more than ``capacity`` are resident.
    """

    def __init__(self, capacity_sectors: int) -> None:
        if capacity_sectors < 1:
            raise InvalidParameterError("cache capacity must be >= 1")
        self.capacity = capacity_sectors
        self._entries: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, sectors: np.ndarray | list[int]) -> int:
        """Touch sectors in order; returns the number of misses added."""
        stream = np.asarray(sectors, dtype=np.int64).ravel().tolist()
        misses = 0
        entries = self._entries
        for s in stream:
            if s in entries:
                entries.move_to_end(s)
            else:
                entries[s] = None
                misses += 1
                if len(entries) > self.capacity:
                    entries.popitem(last=False)
        self.hits += len(stream) - misses
        self.misses += misses
        return misses


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

    def __init__(self, cache: LRUCacheModel, sector_width: int) -> None:
        self.cache = cache
        self.sector_width = sector_width
        self.accesses = 0

    def price(
        self, graph: CSRGraph, app: App, level: Level, trace: list[TraceNode]
    ) -> None:
        sectors = level.edge_dst // self.sector_width
        self.cache.access(sectors)
        self.accesses += int(sectors.size)


def replay_cache_trace(
    graph: CSRGraph,
    app: App,
    source: int | None = None,
    *,
    spec: GPUSpec | None = None,
    capacity_sectors: int | None = None,
) -> CacheTraceReport:
    """Run ``app`` functionally and replay its value-array sector trace.

    Args:
        graph: input graph.
        app: application (run to convergence, results discarded).
        source: traversal source if the app needs one.
        spec: hardware description (sector width, default L2 size).
        capacity_sectors: cache size override; ``None`` takes
            ``spec.l2_sectors``, and below 1 raises
            :class:`~repro.errors.InvalidParameterError`.

    Returns:
        Exact LRU statistics over the whole access stream.
    """
    spec = spec or GPUSpec()
    if capacity_sectors is None:
        capacity_sectors = spec.l2_sectors
    replay = _CacheReplay(LRUCacheModel(capacity_sectors), spec.sector_width)
    result = run_levels(replay, graph, app, source, MAX_ITERATIONS)
    return CacheTraceReport(
        accesses=replay.accesses,
        hits=replay.cache.hits,
        misses=replay.cache.misses,
        iterations=result.iterations,
    )
