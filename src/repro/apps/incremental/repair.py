"""Incremental BFS / SSSP: affected-cone invalidation + re-settle.

The repair is the classic two-phase scheme (Ramalingam–Reps style,
vectorized for the frontier pipeline):

1. **Cone discovery** (old graph).  A deleted edge ``(u, v)`` can only
   increase distances if it was *tight* — ``dist[v] == dist[u] + w``.
   Every vertex whose distance can increase lies on some old shortest
   path through a deleted tight edge, i.e. it is a descendant of a
   deletion seed ``v`` along old tight edges.  :class:`_AffectedConeApp`
   marks that descendant cone with an ordinary frontier traversal — a
   safe over-approximation (extra members only cost re-settling work,
   never correctness).
2. **Re-settle** (new graph).  Cone distances are invalidated to
   infinity; everything else keeps its old value, which is a valid
   *upper bound* on the new distance (insertions can only decrease
   non-cone distances).  :class:`_RelaxRepairApp` then runs
   frontier-driven min-relaxation seeded from every intact vertex with
   an edge into the cone (found via a delta-patched reverse CSR, work
   proportional to the cone) plus the inserted edges' reachable
   sources.  Any vertex whose label can still improve is reachable by a
   chain of relaxations from that seed set, so the fixpoint equals the
   full-recompute answer **bit-for-bit** (shortest distances are
   unique; unreachable stays unreachable).

Both phases run through the traversal pipeline, so their simulated
device seconds are comparable with the full-recompute oracle's.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.apps.base import App, contract, relax
from repro.apps.bfs import BFSApp
from repro.apps.incremental.base import (
    MODE_FULL,
    MODE_INCREMENTAL,
    MODE_NOOP,
    IncrementalEngine,
    IncrementalReport,
)
from repro.apps.sssp import INF, SSSPApp, pair_weights, synthetic_weights
from repro.core import SageScheduler
from repro.core.scheduler import Scheduler
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.graph.delta import GraphDelta, patch_csr
from repro.obs import MetricsRegistry

_EMPTY = np.empty(0, dtype=np.int64)


class _AffectedConeApp(App):
    """Mark the tight-edge descendant cone of the deletion seeds."""

    name = "inc-cone"
    uses_atomics = False
    value_access_factor = 1.0
    edge_compute_factor = 1.0

    def __init__(
        self,
        dist: np.ndarray,
        weights: np.ndarray | None,
        seeds: np.ndarray,
    ) -> None:
        super().__init__()
        self._dist_init = dist
        self._weights = weights
        self._seeds = seeds
        self.needs_edge_positions = weights is not None
        self.dist: np.ndarray | None = None
        self.affected: np.ndarray | None = None

    def setup(self, graph: CSRGraph, source: int | None = None) -> None:
        self.graph = graph
        self.dist = self._dist_init.copy()
        self.affected = np.zeros(graph.num_nodes, dtype=bool)
        self.affected[self._seeds] = True

    def initial_frontier(self) -> np.ndarray:
        return np.asarray(self._seeds, dtype=np.int64)

    def process_level(
        self,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_pos: np.ndarray | None = None,
    ) -> np.ndarray:
        assert self.dist is not None and self.affected is not None
        if self._weights is None:
            weight = 1
        else:
            assert edge_pos is not None
            weight = self._weights[edge_pos]
        tight = self.dist[edge_dst] == self.dist[edge_src] + weight
        fresh = edge_dst[np.flatnonzero(tight & ~self.affected[edge_dst])]
        self.affected[fresh] = True
        return contract(fresh)

    def result(self) -> dict[str, np.ndarray]:
        assert self.affected is not None
        return {"affected": self.affected.astype(np.int64)}


class _RelaxRepairApp(App):
    """Frontier-driven min-relaxation over a valid upper-bound labeling."""

    name = "inc-repair"
    uses_atomics = True
    value_access_factor = 1.0
    edge_compute_factor = 1.5

    def __init__(
        self,
        dist: np.ndarray,
        weights: np.ndarray | None,
        frontier: np.ndarray,
    ) -> None:
        super().__init__()
        self._dist_init = dist
        self._weights = weights
        self._frontier = frontier
        self.needs_edge_positions = weights is not None
        self.dist: np.ndarray | None = None

    def setup(self, graph: CSRGraph, source: int | None = None) -> None:
        self.graph = graph
        self.dist = self._dist_init.copy()

    def initial_frontier(self) -> np.ndarray:
        return np.asarray(self._frontier, dtype=np.int64)

    def process_level(
        self,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_pos: np.ndarray | None = None,
    ) -> np.ndarray:
        assert self.dist is not None
        if self._weights is None:
            weight = 1
        else:
            assert edge_pos is not None
            weight = self._weights[edge_pos]
        return relax(self.dist, edge_dst, self.dist[edge_src] + weight)

    def result(self) -> dict[str, np.ndarray]:
        assert self.dist is not None
        return {"dist": self.dist}


class _IncrementalDistanceEngine(IncrementalEngine):
    """Shared BFS/SSSP engine; distances live in the INF domain."""

    #: whether edges are weighted (SSSP) or unit (BFS).
    weighted = False

    def __init__(
        self,
        graph: CSRGraph,
        source: int,
        *,
        scheduler_factory: Callable[[], Scheduler] = SageScheduler,
        fallback_fraction: float = 0.25,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(
            graph,
            scheduler_factory=scheduler_factory,
            fallback_fraction=fallback_fraction,
            metrics=metrics,
        )
        if not 0 <= int(source) < graph.num_nodes:
            raise InvalidParameterError(f"source {source} out of range")
        self.source = int(source)
        self._dist: np.ndarray = np.full(graph.num_nodes, INF, np.int64)
        self._rev = graph.reversed()
        self.initial_seconds = self._full(graph)

    # -- state -----------------------------------------------------------

    @property
    def distances(self) -> np.ndarray:
        """Current distances in the owning app's output convention."""
        if self.weighted:
            return self._dist.copy()
        return np.where(self._dist >= INF, np.int64(-1), self._dist)

    # -- solves ----------------------------------------------------------

    def _full_app(self) -> App:
        return SSSPApp() if self.weighted else BFSApp()

    def _edge_weights(self, graph: CSRGraph) -> np.ndarray | None:
        return synthetic_weights(graph) if self.weighted else None

    def _full(self, graph: CSRGraph) -> float:
        run = self._run(graph, self._full_app(), self.source)
        dist = np.asarray(run.result["dist"], dtype=np.int64).copy()
        if not self.weighted:
            dist[dist < 0] = INF
        self._dist = dist
        self.graph = graph
        return run.seconds

    def update(
        self, new_graph: CSRGraph, delta: GraphDelta
    ) -> IncrementalReport:
        """Repair the distances for one merge; bit-identical fixpoint."""
        self._check_delta(new_graph, delta)
        with self.metrics.span("incremental.update", app=self.kind):
            if self._should_fallback(new_graph, delta):
                self._rev = new_graph.reversed()
                seconds = self._full(new_graph)
                return self._record(IncrementalReport(
                    mode=MODE_FULL, sim_seconds=seconds,
                ))
            report = self._repair(new_graph, delta)
        return self._record(report)

    # -- the two-phase repair -------------------------------------------

    def _deletion_seeds(self, delta: GraphDelta) -> np.ndarray:
        """Heads of deleted edges that were tight in the old solution."""
        if not delta.num_deleted:
            return _EMPTY
        if self.weighted:
            weight = pair_weights(delta.deleted_src, delta.deleted_dst)
        else:
            weight = np.int64(1)
        head = self._dist[delta.deleted_src]
        tight = (head < INF) & (
            self._dist[delta.deleted_dst] == head + weight
        )
        return np.unique(delta.deleted_dst[tight])

    def _repair(
        self, new_graph: CSRGraph, delta: GraphDelta
    ) -> IncrementalReport:
        old_graph = self.graph
        seconds = 0.0
        iterations = 0

        # Phase 1: cone of possibly-increased vertices (old graph).
        seeds = self._deletion_seeds(delta)
        affected = _EMPTY
        if seeds.size:
            cone = _AffectedConeApp(
                self._dist, self._edge_weights(old_graph), seeds
            )
            run = self._run(old_graph, cone)
            affected = np.flatnonzero(
                np.asarray(run.result["affected"], dtype=bool)
            )
            seconds += run.seconds
            iterations += run.iterations

        dist = self._dist.copy()
        dist[affected] = INF

        # Reverse CSR maintained by patching (O(|E| + |delta|), the same
        # currency as the forward CSR merge the update already paid).
        new_rev = patch_csr(self._rev, delta.reversed())

        # Phase 2 seeds: intact in-neighbors of the cone + reachable
        # sources of inserted edges.
        parts = []
        if affected.size:
            _, into, _ = new_rev.expand_frontier(affected)
            parts.append(into[dist[into] < INF])
        if delta.num_inserted:
            ins = delta.inserted_src
            parts.append(ins[dist[ins] < INF])
        frontier = (
            np.unique(np.concatenate(parts)) if parts else _EMPTY
        )

        if frontier.size:
            repairer = _RelaxRepairApp(
                dist, self._edge_weights(new_graph), frontier
            )
            run = self._run(new_graph, repairer)
            dist = np.asarray(run.result["dist"], dtype=np.int64).copy()
            seconds += run.seconds
            iterations += run.iterations

        self._dist = dist
        self.graph = new_graph
        self._rev = new_rev
        mode = (
            MODE_INCREMENTAL if (affected.size or frontier.size)
            else MODE_NOOP
        )
        return IncrementalReport(
            mode=mode,
            sim_seconds=seconds,
            affected=int(affected.size),
            frontier=int(frontier.size),
            iterations=iterations,
        )


class IncrementalBFS(_IncrementalDistanceEngine):
    """Delta-aware BFS levels from one source (bit-identical repair)."""

    kind = "bfs"
    weighted = False


class IncrementalSSSP(_IncrementalDistanceEngine):
    """Delta-aware shortest paths with the synthetic pair-hash weights.

    Weight stability across epochs is what makes the repair sound: a
    pair's weight is a pure function of its endpoints
    (:func:`~repro.apps.sssp.pair_weights`), so deleted and inserted
    edges weigh the same in every graph version.  Explicit per-slot
    weight arrays are not supported incrementally (slots move between
    versions); use the full :class:`~repro.apps.sssp.SSSPApp` there.
    """

    kind = "sssp"
    weighted = True
