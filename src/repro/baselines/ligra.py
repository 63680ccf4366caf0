"""Ligra-style CPU baseline (Shun & Blelloch [42]).

Ligra is the paper's CPU reference: a NUMA shared-memory framework with
direction-optimizing frontier processing.  The runner executes the same
applications functionally and scores iterations with the
:class:`~repro.gpusim.spec.CPUSpec` model — per-edge instruction
throughput across all hardware threads, memory-bandwidth bound traffic,
and a per-iteration parallel-for synchronization cost.  Dense-mode
iterations (large frontiers) trade touched-edge volume for cheaper
sequential scans, as Ligra's EDGEMAP does.
"""

from __future__ import annotations

from repro.apps.base import App
from repro.core.pipeline import MAX_ITERATIONS, Level, LevelPricer, RunResult, run_levels
from repro.graph.csr import CSRGraph
from repro.gpusim.spec import CPUSpec
from repro.gpusim.streams import HOST, TraceNode

#: frontier-edge share of |E| above which dense mode wins.
DENSE_THRESHOLD = 0.05
#: dense-mode per-edge discount (sequential scan, no frontier queues).
DENSE_DISCOUNT = 0.6
#: bytes moved per processed edge (target id + one value access).
BYTES_PER_EDGE = 12.0


class LigraRunner(LevelPricer):
    """Runs applications under the CPU cost model."""

    name = "ligra"

    def __init__(self, spec: CPUSpec | None = None) -> None:
        self.spec = spec or CPUSpec()

    def run(self, graph: CSRGraph, app: App, source: int | None = None) -> RunResult:
        """Execute ``app`` on ``graph`` and report CPU-model timing."""
        return run_levels(self, graph, app, source, MAX_ITERATIONS)

    def price(
        self, graph: CSRGraph, app: App, level: Level, trace: list[TraceNode]
    ) -> None:
        seconds = self._iteration_seconds(level.edge_dst.size, graph.num_edges)
        trace.append(TraceNode(HOST, seconds, iteration=level.index))

    def _iteration_seconds(self, frontier_edges: int, total_edges: int) -> float:
        """One EDGEMAP's time under the CPU model."""
        spec = self.spec
        if total_edges and frontier_edges / total_edges > DENSE_THRESHOLD:
            work_edges = frontier_edges * DENSE_DISCOUNT
        else:
            work_edges = float(frontier_edges)
        compute_cycles = work_edges * spec.cycles_per_edge / spec.num_threads
        memory_cycles = work_edges * BYTES_PER_EDGE / spec.bytes_per_cycle
        cycles = max(compute_cycles, memory_cycles)
        return spec.cycles_to_seconds(cycles) + spec.sync_us * 1e-6
