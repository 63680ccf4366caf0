"""The expansion-filtering-contraction pipeline (paper Figure 2).

:class:`TraversalPipeline` drives one application over one graph with one
scheduler on one simulated device:

1. **expansion** — gather the out-edges of every frontier node,
2. **filtering** — the application's vectorized filter over the batch,
3. **contraction** — the filtered neighbors become the next frontier.

The scheduler scores each iteration as a kernel; self-adaptive schedulers
may additionally commit a node reordering between iterations, which the
pipeline applies to the graph, the application state, the frontier and
(transparently) the traversal's source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.apps.base import App
from repro.core.frontier import FrontierQueue
from repro.core.scheduler import Scheduler
from repro.errors import ConvergenceError
from repro.graph.csr import CSRGraph
from repro.gpusim.cost import KernelTiming
from repro.gpusim.device import Device
from repro.gpusim.profiler import Profiler
from repro.gpusim.streams import KERNEL, TraceNode, kernel_occupancy
from repro.obs import NULL_REGISTRY, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.sanitizer import Sanitizer


@dataclass
class RunResult:
    """Outcome of one application run.

    ``result`` arrays are expressed in the *original* node ids even when
    self-adaptive reordering relabeled the graph mid-run.
    """

    app_name: str
    scheduler_name: str
    seconds: float
    iterations: int
    edges_traversed: int
    result: dict[str, np.ndarray]
    profiler: Profiler
    reorder_commits: int = 0
    final_perm: np.ndarray | None = None
    extras: dict[str, float] = field(default_factory=dict)
    #: replayable device work (gpusim.streams.TraceNode), in issue order;
    #: dag_from_run recompiles it into an event DAG for pipelining.
    node_trace: list[TraceNode] = field(default_factory=list)

    @property
    def teps(self) -> float:
        """Traversed edges per second (the paper's headline metric)."""
        return self.edges_traversed / self.seconds if self.seconds > 0 else 0.0

    @property
    def gteps(self) -> float:
        """Billions of traversed edges per second (paper figures' unit)."""
        return self.teps / 1e9


class TraversalPipeline:
    """Runs apps over a graph with a given scheduler and device."""

    def __init__(
        self,
        graph: CSRGraph,
        scheduler: Scheduler,
        device: Device | None = None,
        *,
        max_iterations: int = 100_000,
        metrics: MetricsRegistry | None = None,
        sanitizer: "Sanitizer | None" = None,
    ) -> None:
        self.graph = graph
        self.scheduler = scheduler
        self.device = device or Device(scheduler.spec)
        self.max_iterations = max_iterations
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.sanitizer = sanitizer
        if sanitizer is not None:
            # Hook the device so every submitted kernel batch is audited
            # (timing is unaffected; the check never advances the clock).
            self.device.sanitizer = sanitizer

    def _timed_kernel(
        self, device: Device, stats, span_name: str, **attrs
    ) -> KernelTiming:
        """Run one kernel under a leaf span carrying its cost breakdown."""
        with self.metrics.span(span_name, **attrs) as sp:
            timing = device.run_kernel(stats)
            sp.set("cycles", timing.cycles)
            sp.set("compute_cycles", timing.compute_cycles)
            sp.set("memory_cycles", timing.memory_cycles)
            sp.set("overhead_cycles", timing.overhead_cycles)
            sp.set("launch_cycles", timing.launch_cycles)
            sp.set("dram_bytes", timing.dram_bytes)
        return timing

    def run(self, app: App, source: int | None = None) -> RunResult:
        """Execute ``app`` to convergence and return timing + results.

        The device clock is read differentially, so one pipeline/device
        pair can serve many runs while the profiler keeps accumulating.
        """
        graph = self.graph
        scheduler = self.scheduler
        device = self.device
        metrics = self.metrics
        sanitizer = self.sanitizer
        start_seconds = device.elapsed_seconds

        with metrics.span(
            "run", app=app.name, scheduler=scheduler.name,
        ) as run_span:
            app.setup(graph, source)
            scheduler.set_metrics(metrics)
            scheduler.set_sanitizer(sanitizer)
            scheduler.reset(graph)
            if sanitizer is not None:
                sanitizer.set_metrics(metrics)
                sanitizer.begin_run(graph, app)
            queue = FrontierQueue(app.initial_frontier())
            # total_perm maps original ids -> current ids across commits.
            total_perm: np.ndarray | None = None
            edges_traversed = 0
            iterations = 0
            commits = 0
            node_trace: list[TraceNode] = []

            while not queue.empty:
                if iterations >= self.max_iterations:
                    raise ConvergenceError(
                        f"{app.name} exceeded "
                        f"{self.max_iterations} iterations"
                    )
                frontier = queue.current
                with metrics.span(
                    "iteration", index=iterations,
                    frontier_size=int(frontier.size),
                ) as it_span:
                    edge_src, edge_dst, edge_pos = graph.expand_frontier(
                        frontier
                    )
                    degrees = (graph.offsets[frontier + 1]
                               - graph.offsets[frontier])
                    if sanitizer is not None:
                        sanitizer.check_level(
                            iterations, frontier, degrees, edge_dst,
                            edge_pos if app.needs_edge_positions else None,
                        )
                    stats = scheduler.kernel_stats(
                        frontier, degrees, edge_dst, graph, app
                    )
                    timing = self._timed_kernel(
                        device, stats, "kernel", kind="expand-filter",
                    )
                    node_trace.append(TraceNode(
                        KERNEL,
                        device.spec.cycles_to_seconds(timing.cycles),
                        occupancy=kernel_occupancy(timing),
                        iteration=iterations,
                    ))
                    it_span.set("active_edges", int(edge_dst.size))
                    it_span.set("kernel_cycles", timing.cycles)
                    edges_traversed += int(edge_dst.size)
                    next_frontier = app.process_level(
                        edge_src, edge_dst,
                        edge_pos if app.needs_edge_positions else None,
                    )
                    queue.publish_next(next_frontier)
                    queue.swap()
                    iterations += 1

                    commit = scheduler.post_level(graph)
                    if commit is not None:
                        if sanitizer is not None:
                            sanitizer.check_commit(
                                commit.perm, graph.num_nodes
                            )
                        update = self._timed_kernel(
                            device, commit.update_stats,
                            "kernel", kind="reorder-update",
                        )
                        node_trace.append(TraceNode(
                            KERNEL,
                            device.spec.cycles_to_seconds(update.cycles),
                            occupancy=kernel_occupancy(update),
                            iteration=iterations - 1,
                        ))
                        it_span.set("reorder_cycles", update.cycles)
                        graph = graph.permute(commit.perm)
                        app.graph = graph
                        app.remap_nodes(commit.perm)
                        queue.remap(commit.perm)
                        scheduler.notify_reordered(commit.perm)
                        if sanitizer is not None:
                            sanitizer.notify_reordered(commit.perm)
                        total_perm = (
                            commit.perm if total_perm is None
                            else commit.perm[total_perm]
                        )
                        commits += 1
                        metrics.count("pipeline.reorder_commits")

            run_span.set("iterations", iterations)
            run_span.set("edges_traversed", edges_traversed)
            run_span.set(
                "simulated_seconds", device.elapsed_seconds - start_seconds
            )
            metrics.count("pipeline.runs")
            metrics.count("pipeline.iterations", iterations)
            metrics.count("pipeline.edges_traversed", edges_traversed)
            metrics.fold_profiler(device.profiler)
            if sanitizer is not None:
                sanitizer.end_run()

        self.graph = graph
        results = app.result()
        if total_perm is not None:
            # Express outputs in original ids: original node i now lives
            # at index total_perm[i].  Node-indexed data may live in the
            # last axis of higher-rank arrays (e.g. multi-source level
            # matrices), so remap that axis whenever it spans the nodes.
            n = graph.num_nodes
            remapped = {}
            for key, val in results.items():
                arr = np.asarray(val)
                if arr.ndim >= 1 and arr.shape[-1] == n:
                    remapped[key] = arr[..., total_perm]
                else:
                    remapped[key] = arr
            results = remapped
        return RunResult(
            app_name=app.name,
            scheduler_name=scheduler.name,
            seconds=device.elapsed_seconds - start_seconds,
            iterations=iterations,
            edges_traversed=edges_traversed,
            result=results,
            profiler=device.profiler,
            reorder_commits=commits,
            final_perm=total_perm,
            node_trace=node_trace,
        )


def run_app(
    graph: CSRGraph,
    app: App,
    scheduler: Scheduler,
    source: int | None = None,
    *,
    device: Device | None = None,
    metrics: MetricsRegistry | None = None,
) -> RunResult:
    """One-shot convenience wrapper around :class:`TraversalPipeline`.

    To audit the run, use ``repro.api.run(..., checks=True)`` or pass a
    sanitizer to :class:`TraversalPipeline`.
    """
    pipeline = TraversalPipeline(graph, scheduler, device, metrics=metrics)
    return pipeline.run(app, source)
