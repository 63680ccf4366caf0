"""Direction-optimizing BFS (push/pull hybrid).

An extension beyond the paper's push-based pipeline: Beamer-style
direction optimization, the technique behind Ligra's EDGEMAP and
Gunrock's advance.  Dense frontiers switch from *push* (expand the
frontier's out-edges) to *pull* (every unvisited node scans its
in-edges and adopts the level if any in-neighbor is a frontier member),
which touches each unvisited node once instead of once per incoming
frontier edge.

Both directions run through the same scheduler/cost machinery: push
iterations expand the forward CSR, pull iterations expand the transpose,
so SAGE's tiles and stealing apply unchanged.  A pull iteration may stop
scanning a node's in-edges at the first frontier hit; the cost model
reflects that with an expected early-exit factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.bfs import UNVISITED
from repro.core.pipeline import MAX_ITERATIONS, RunResult
from repro.core.scheduler import Scheduler
from repro.errors import ConvergenceError, InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.gpusim.cost import KernelStats
from repro.gpusim.device import Device
from repro.gpusim.streams import TraceNode, trace_seconds

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

    Args:
        graph: input graph (its transpose is built once up front).
        scheduler_factory: zero-arg callable producing a fresh
            :class:`~repro.core.scheduler.Scheduler`; separate instances
            drive the push (forward CSR) and pull (transpose) kernels.
        source: BFS root.
        config: Beamer switching thresholds (:class:`HybridConfig`).

    Returns:
        ``(RunResult, HybridStats)`` — the result's ``dist`` matches a
        plain BFS exactly; only the traversal cost differs.
    """
    if not 0 <= source < graph.num_nodes:
        raise InvalidParameterError(f"source {source} out of range")
    if config is None:
        config = HybridConfig()
    alpha_threshold = config.alpha
    beta_threshold = config.beta
    reverse = graph.reversed()
    push_scheduler = scheduler_factory()
    pull_scheduler = scheduler_factory()
    push_scheduler.reset(graph)
    pull_scheduler.reset(reverse)
    device = Device(push_scheduler.spec)

    n = graph.num_nodes
    dist = np.full(n, UNVISITED, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    edges_traversed = 0
    pushes = 0
    pulls = 0
    out_degrees = graph.out_degrees()
    trace: list[TraceNode] = []

    class _CostProbe:
        """Minimal App stand-in for the schedulers' cost interface."""

        uses_atomics = False
        value_access_factor = 1.0
        edge_compute_factor = 1.0

    probe = _CostProbe()

    while frontier.size:
        if level >= MAX_ITERATIONS:
            raise ConvergenceError("BFS exceeded iteration bound")
        frontier_edges = int(out_degrees[frontier].sum())
        unvisited = np.flatnonzero(dist == UNVISITED)
        use_pull = (
            unvisited.size > 0
            and frontier_edges > graph.num_edges / alpha_threshold
            and unvisited.size > n / beta_threshold
        )
        if use_pull:
            next_frontier, cost_edges, stats = _pull_level(
                reverse, unvisited, dist, level, pull_scheduler, probe,
            )
            pulls += 1
        else:
            next_frontier, cost_edges, stats = _push_level(
                graph, frontier, dist, push_scheduler, probe,
            )
            pushes += 1
        trace.extend(device.kernel_nodes(device.run_kernel(stats), [level]))
        edges_traversed += cost_edges
        level += 1
        dist[next_frontier] = level
        frontier = next_frontier

    result = RunResult(
        app_name="bfs-hybrid",
        scheduler_name=f"{push_scheduler.name}+dirop",
        seconds=trace_seconds(trace),
        iterations=level,
        edges_traversed=edges_traversed,
        result={"dist": dist},
        profiler=device.profiler,
        node_trace=trace,
    )
    return result, HybridStats(push_iterations=pushes, pull_iterations=pulls)


def _push_level(
    graph: CSRGraph,
    frontier: np.ndarray,
    dist: np.ndarray,
    scheduler: Scheduler,
    probe,
) -> tuple[np.ndarray, int, KernelStats]:
    """Classic push expansion of one level, with its kernel's stats."""
    _, edge_dst, _, degrees = graph.expand_level(frontier)
    stats = scheduler.kernel_stats(frontier, degrees, edge_dst, graph, probe)
    fresh = np.flatnonzero(dist[edge_dst] == UNVISITED)
    return np.unique(edge_dst[fresh]), int(edge_dst.size), stats


def _pull_level(
    reverse: CSRGraph,
    unvisited: np.ndarray,
    dist: np.ndarray,
    level: int,
    scheduler: Scheduler,
    probe,
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
        unvisited, degrees, edge_dst, reverse, probe
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
