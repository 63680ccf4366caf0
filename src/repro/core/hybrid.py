"""Direction-optimizing BFS (push/pull hybrid).

An extension beyond the paper's push-based pipeline: Beamer-style
direction optimization, the technique behind Ligra's EDGEMAP and
Gunrock's advance.  Dense frontiers switch from *push* (expand the
frontier's out-edges) to *pull* (every unvisited node scans its
in-edges and adopts the level if any in-neighbor is a frontier member),
which touches each unvisited node once instead of once per incoming
frontier edge.

The traversal is a :class:`BFSApp` on :func:`~repro.core.pipeline.run_levels`;
only the price of a level depends on its direction.  Both directions
run through the same scheduler/cost machinery: a push level is the
kernel over the forward CSR the loop expanded, a pull level a kernel
over the transpose, so SAGE's tiles and stealing apply unchanged.  A
pull iteration may stop scanning a node's in-edges at the first
frontier hit; the cost model reflects that with an expected early-exit
factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.base import App
from repro.apps.bfs import UNVISITED, BFSApp
from repro.core.pipeline import MAX_ITERATIONS, Level, LevelPricer, RunResult, run_levels
from repro.core.scheduler import Scheduler
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.gpusim.cost import KernelBatch, KernelStats
from repro.gpusim.device import Device
from repro.gpusim.streams import TraceNode
from repro.obs.span import NullSpan, Span

#: push -> pull when frontier out-edges exceed |E| / ALPHA (Beamer's
#: heuristic; 14 in the original paper, smaller here because the scaled
#: graphs have shallower BFS trees).
DEFAULT_ALPHA = 14.0
#: pull -> push when the unvisited set shrinks below |V| / BETA.
DEFAULT_BETA = 24.0


@dataclass(frozen=True)
class HybridConfig:
    """The direction-switching thresholds, as one injectable value.

    Every call site routes through this dataclass — the auto-tuner
    (:mod:`repro.tune`) owns exactly one injection point, and
    ``tests/tune/test_hybrid_config.py`` pins that no stray
    ``alpha=``/``beta=`` literals bypass it inside the library.
    """

    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise InvalidParameterError("alpha and beta must be positive")


@dataclass(frozen=True)
class HybridStats:
    """Direction decisions of one run."""

    push_iterations: int
    pull_iterations: int


def direction_optimized_bfs(
    graph: CSRGraph,
    scheduler_factory,
    source: int,
    *,
    config: HybridConfig | None = None,
) -> tuple[RunResult, HybridStats]:
    """BFS with per-iteration push/pull direction selection.

    A :class:`BFSApp` runs on :func:`~repro.core.pipeline.run_levels`;
    a :class:`_DirectionPricer` prices each level as a push or a pull
    kernel.

    Args:
        graph: input graph (its transpose is built once per run).
        scheduler_factory: zero-arg callable producing a fresh
            :class:`~repro.core.scheduler.Scheduler`; separate instances
            drive the push (forward CSR) and pull (transpose) kernels.
        source: BFS root.
        config: Beamer switching thresholds (:class:`HybridConfig`).

    Returns:
        ``(RunResult, HybridStats)`` — the result's ``dist`` matches a
        plain BFS exactly; only the traversal cost differs.
    """
    pricer = _DirectionPricer(scheduler_factory, config or HybridConfig())
    result = run_levels(pricer, graph, BFSApp(), source, MAX_ITERATIONS)
    return result, HybridStats(pricer.pushes, pricer.pulls)


class _DirectionPricer(LevelPricer):
    """Prices each BFS level as a push kernel on the graph or, when the
    frontier is dense and many nodes are unvisited (Beamer's rule), a
    pull kernel on its transpose.

    The level's functional step is the app's push filter either way: a
    pull adopts exactly the unvisited nodes a push reaches.  The run's
    edges are the ones its kernels scan, and its kernels are scored with
    one ``Device.run_kernels`` call at convergence.
    """

    def __init__(self, scheduler_factory, config: HybridConfig) -> None:
        self.config = config
        self.push = scheduler_factory()
        self.pull = scheduler_factory()
        self.name = f"{self.push.name}+dirop"
        self.pushes = 0
        self.pulls = 0

    def start(self, graph: CSRGraph, app: BFSApp) -> None:
        self.reverse = graph.reversed()
        self.push.reset(graph)
        self.pull.reset(self.reverse)
        self.device = Device(self.push.spec)
        self.edges = 0
        # Level i's kernel, a batch of one, until the run is scored.
        self._batches: list[KernelBatch] = []

    def price(
        self, graph: CSRGraph, app: BFSApp, level: Level, trace: list[TraceNode]
    ) -> None:
        unvisited = np.flatnonzero(app.dist == UNVISITED)
        if (
            unvisited.size > 0
            and level.edge_dst.size > graph.num_edges / self.config.alpha
            and unvisited.size > graph.num_nodes / self.config.beta
        ):
            _, edges, stats = _pull_level(
                self.reverse, unvisited, app.dist, level.index, self.pull, app
            )
            batch = self.pull.stack([stats])
            self.pulls += 1
        else:
            edges = int(level.edge_dst.size)
            batch = self.push.level_stats([level], graph, app)
            self.pushes += 1
        self.edges += edges
        self._batches.append(batch)

    def post_level(
        self,
        graph: CSRGraph,
        app: BFSApp,
        frontier: np.ndarray,
        level: Level,
        trace: list[TraceNode],
    ) -> tuple[CSRGraph, np.ndarray]:
        if frontier.size == 0:
            device = self.device
            timing = device.run_kernels(KernelBatch.concat(self._batches))
            trace.extend(device.kernel_nodes(timing, range(len(self._batches))))
        return graph, frontier

    def finish(
        self, graph: CSRGraph, run_span: Span | NullSpan, result: RunResult
    ) -> None:
        result.app_name = "bfs-hybrid"
        result.edges_traversed = self.edges
        result.profiler = self.device.profiler


def _pull_level(
    reverse: CSRGraph,
    unvisited: np.ndarray,
    dist: np.ndarray,
    level: int,
    scheduler: Scheduler,
    app: App,
) -> tuple[np.ndarray, int, KernelStats]:
    """Pull: unvisited nodes scan in-edges for a frontier parent; returns
    the adopters, the scanned edges and the kernel's stats.

    Each scan stops at the first hit; the expected scanned prefix is
    modeled by scaling the kernel's edge volume by the measured hit
    positioning (cheap surrogate: half the in-edges of adopting nodes,
    all in-edges of non-adopting ones).
    """
    edge_src, edge_dst, _, degrees = reverse.expand_level(unvisited)
    # functional result: adopt if any in-neighbor sits at `level`
    parent_hit = np.flatnonzero(dist[edge_dst] == level)
    adopters_mask = np.zeros(dist.size, dtype=bool)
    adopters_mask[edge_src[parent_hit]] = True
    adopted = np.flatnonzero(adopters_mask[unvisited])
    adopters = unvisited[adopted]

    # cost: early exit halves the scanned volume for adopters
    scanned = int(degrees.sum())
    adopted_edges = int(degrees[adopted].sum())
    effective = scanned - adopted_edges // 2
    stats = scheduler.kernel_stats(
        unvisited, degrees, edge_dst, reverse, app
    )
    scale = effective / max(1, scanned)
    stats.active_edges = int(stats.active_edges * scale)
    stats.issued_lane_cycles = max(
        stats.active_edges, int(stats.issued_lane_cycles * scale)
    )
    stats.busiest_lane_cycles = stats.busiest_lane_cycles * scale
    stats.value_sector_touches = int(stats.value_sector_touches * scale)
    stats.value_sector_unique = min(
        stats.value_sector_unique, stats.value_sector_touches
    )
    return adopters, effective, stats
