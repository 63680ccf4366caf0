"""The expansion-filtering-contraction pipeline (paper Figure 2).

:func:`run_levels` is the one level loop every runner shares:

1. **expansion** — gather the out-edges of every frontier node,
2. **filtering** — the application's vectorized filter over the batch,
3. **contraction** — the filtered neighbors become the next frontier.

The paper's double-buffered frontier queue is the loop's ``frontier``
array: contraction returns a new array and the loop rebinds the name,
so the buffers swap without a copy.

Runners differ only in what a level costs, which they supply as a
:class:`LevelPricer`.  :class:`TraversalPipeline` prices a level as one
scheduler kernel on one simulated device; self-adaptive schedulers may
additionally commit a node reordering between levels, which it applies
to the graph, the application state, the frontier and (transparently)
the traversal's source.  Direction-optimized BFS
(:mod:`repro.core.hybrid`) prices a level as a push kernel or a pull
kernel on the transpose.  The out-of-core, multi-GPU, Ligra and
cache-trace runners price a level with link transfers, per-GPU kernels
and an exchange, the CPU model, or an LRU replay instead.  Every kernel
is scored by ``Device.run_kernels``: once per run at convergence
in-core and in the hybrid, once per level out of core, and once per
level and GPU across GPUs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.apps.base import App
from repro.errors import ConvergenceError
from repro.graph.csr import CSRGraph
from repro.gpusim.cost import KernelBatch
from repro.gpusim.device import Device
from repro.gpusim.profiler import Profiler
from repro.gpusim.streams import D2H, H2D, TraceNode, trace_seconds
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.obs.span import NullSpan, Span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.sanitizer import Sanitizer
    from repro.core.scheduler import Scheduler
    from repro.gpusim.cost import KernelBatchTiming


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
    #: replayable device work (gpusim.streams.TraceNode), in issue order:
    #: ``seconds`` is its trace_seconds; dag_from_run recompiles it for pipelining.
    node_trace: list[TraceNode] = field(default_factory=list)

    @property
    def teps(self) -> float:
        """Traversed edges per second (the paper's headline metric)."""
        return self.edges_traversed / self.seconds if self.seconds > 0 else 0.0

    @property
    def gteps(self) -> float:
        """Billions of traversed edges per second (paper figures' unit)."""
        return self.teps / 1e9


@dataclass(slots=True)
class Level:
    """One expanded level, as a :class:`LevelPricer` sees it."""

    index: int
    frontier: np.ndarray
    degrees: np.ndarray
    edge_dst: np.ndarray
    edge_pos: np.ndarray
    #: the level's ``iteration`` span, for the pricer's measurements.
    span: Span | NullSpan
    #: whether ``frontier`` is every node in id order
    #: (:meth:`CSRGraph.is_full_frontier`), decided once per level.
    full: bool


class LevelPricer:
    """What a runner supplies to :func:`run_levels`: the cost of a level.

    The loop owns everything else.  It calls :meth:`start` once after
    ``app.setup``; per level :meth:`order` before expansion, then
    :meth:`price`, then :meth:`post_level` with the contracted next
    frontier, then (if recorded) :meth:`record_level`; and :meth:`finish`
    once, inside the span from :meth:`run_span`.  Only :meth:`price` has no default.
    A pricer that scores each level's kernels as they run does so with
    :meth:`_timed_kernel`, on a batch its scheduler built (and audited).
    """

    #: reported as ``RunResult.scheduler_name``.
    name = "levels"
    metrics: MetricsRegistry = NULL_REGISTRY
    sanitizer: "Sanitizer | None" = None

    def run_span(self, app: App) -> Span | NullSpan:
        """The span that encloses one run."""
        return self.metrics.span("run", app=app.name, scheduler=self.name)

    def start(self, graph: CSRGraph, app: App) -> None:
        """Per-run setup."""

    def order(self, frontier: np.ndarray) -> np.ndarray:
        """The frontier in the order its edges are expanded."""
        return frontier

    def price(
        self, graph: CSRGraph, app: App, level: Level, trace: list[TraceNode]
    ) -> None:
        """Price one level: run its device work and append its replayable
        nodes to ``trace``."""
        raise NotImplementedError

    def post_level(
        self,
        graph: CSRGraph,
        app: App,
        frontier: np.ndarray,
        level: Level,
        trace: list[TraceNode],
    ) -> tuple[CSRGraph, np.ndarray]:
        """Between levels: ``frontier`` is the next level's (empty at
        convergence); returns the graph and frontier the next level runs
        on."""
        return graph, frontier

    def record_level(self, level: Level, nodes: list[TraceNode]) -> None:
        """Write a recorded level's times from the nodes it appended."""
        level.span.set("iteration_seconds", trace_seconds(nodes))
        copies = [n.seconds for n in nodes if n.kind in (H2D, D2H)]
        if copies:
            level.span.set("transfer_seconds", sum(copies))

    def finish(
        self, graph: CSRGraph, run_span: Span | NullSpan, result: RunResult
    ) -> None:
        """Complete ``result`` (device totals, extras) and report the run."""

    def _timed_kernel(
        self, device: Device, batch: KernelBatch, span_name: str, **attrs
    ) -> KernelBatchTiming:
        """Score a batch of one kernel under a leaf span carrying its
        cost breakdown."""
        with self.metrics.span(span_name, **attrs) as sp:
            timing = device.run_kernels(batch)
            for name, value in zip(KERNEL_SPAN_FIELDS, kernel_span_rows(timing)[0]):
                sp.set(name, value)
        return timing


#: Levels a run may take before it raises ConvergenceError.
MAX_ITERATIONS = 100_000

#: The :class:`~repro.gpusim.cost.KernelBatchTiming` fields of a ``kernel`` span.
KERNEL_SPAN_FIELDS = ("cycles", "compute_cycles", "memory_cycles",
                      "overhead_cycles", "launch_cycles", "dram_bytes")


def kernel_span_rows(timing: KernelBatchTiming) -> list[tuple[float, ...]]:
    """Each row's :data:`KERNEL_SPAN_FIELDS`, as floats."""
    rows = len(timing.cycles)  # launch_cycles is one float for every row
    return list(zip(*(np.broadcast_to(getattr(timing, name), rows).tolist()
                      for name in KERNEL_SPAN_FIELDS)))


def run_levels(
    pricer: LevelPricer,
    graph: CSRGraph,
    app: App,
    source: int | None,
    max_iterations: int,
) -> RunResult:
    """Run ``app`` on ``graph`` to convergence, levels priced by ``pricer``.

    The result's seconds, and the spans' ``iteration_seconds`` and
    ``transfer_seconds`` (:meth:`~LevelPricer.record_level`), are read off the nodes.

    Each level is one :meth:`CSRGraph.expand_level`.  Whether a level is
    full (:meth:`CSRGraph.is_full_frontier`) is decided once, here, and
    carried on its :class:`Level`.  A full frontier is expanded once:
    later full levels on the same graph object share its read-only
    ``edge_src``, ``edge_dst``, ``edge_pos`` and ``degrees``.  A partial
    level, or a reorder commit's new graph, drops them.
    """
    metrics = pricer.metrics
    sanitizer = pricer.sanitizer
    with pricer.run_span(app) as run_span:
        app.setup(graph, source)
        pricer.start(graph, app)
        if sanitizer is not None:
            sanitizer.set_metrics(metrics)
            sanitizer.begin_run(graph, app)
        frontier = np.asarray(app.initial_frontier(), dtype=np.int64)
        node_trace: list[TraceNode] = []
        edges_traversed = 0
        iterations = 0
        # The last full level's arrays, shared by the next full levels
        # while the graph object stays the same.
        whole: tuple[np.ndarray, ...] | None = None

        while frontier.size:
            if iterations >= max_iterations:
                raise ConvergenceError(
                    f"{app.name} exceeded {max_iterations} iterations"
                )
            with metrics.span(
                "iteration", index=iterations,
                frontier_size=int(frontier.size),
            ) as it_span:
                mark = len(node_trace)
                frontier = pricer.order(frontier)
                full = graph.is_full_frontier(frontier)
                if full:
                    if whole is None:
                        whole = _whole_graph_level(graph, frontier)
                    edge_src, edge_dst, edge_pos, degrees = whole
                else:
                    whole = None
                    edge_src, edge_dst, edge_pos, degrees = graph.expand_level(frontier)
                if sanitizer is not None:
                    sanitizer.check_level(
                        iterations, frontier, degrees, edge_dst, edge_pos
                    )
                level = Level(
                    iterations, frontier, degrees, edge_dst, edge_pos, it_span,
                    full,
                )
                pricer.price(graph, app, level, node_trace)
                edges_traversed += int(edge_dst.size)
                frontier = np.asarray(app.process_level(
                    edge_src, edge_dst,
                    edge_pos if app.needs_edge_positions else None,
                ), dtype=np.int64)
                iterations += 1
                next_graph, frontier = pricer.post_level(
                    graph, app, frontier, level, node_trace
                )
                if next_graph is not graph:
                    whole = None
                graph = next_graph
                if metrics.enabled:  # only spans read the per-level times
                    pricer.record_level(level, node_trace[mark:])

        result = RunResult(
            app_name=app.name,
            scheduler_name=pricer.name,
            seconds=trace_seconds(node_trace),
            iterations=iterations,
            edges_traversed=edges_traversed,
            result=app.result(),
            profiler=Profiler(),
            node_trace=node_trace,
        )
        run_span.set("simulated_seconds", result.seconds)
        pricer.finish(graph, run_span, result)
        if sanitizer is not None:
            sanitizer.end_run()
    return result


def _whole_graph_level(
    graph: CSRGraph, frontier: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A full frontier's ``(edge_src, edge_dst, edge_pos, degrees)``,
    read-only so that every later full level can share them."""
    arrays = graph.expand_level(frontier)
    for array in arrays:
        array.flags.writeable = False
    return arrays


class TraversalPipeline(LevelPricer):
    """Runs apps over a graph with a given scheduler on a device of
    the scheduler's spec.

    A level is one scheduler kernel on the device, followed by any
    reordering the scheduler commits.  Levels' stats are built in
    queues (see :meth:`price`); a run's kernels are scored once, at
    convergence (see :meth:`_score`).
    """

    def __init__(
        self,
        graph: CSRGraph,
        scheduler: Scheduler,
        *,
        max_iterations: int = MAX_ITERATIONS,
        metrics: MetricsRegistry | None = None,
        sanitizer: "Sanitizer | None" = None,
    ) -> None:
        self.graph = graph
        self.scheduler = scheduler
        self.device = Device(scheduler.spec)
        self.max_iterations = max_iterations
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        # one sanitizer audits the run and its kernels
        self.sanitizer = sanitizer
        # total_perm maps original ids -> current ids across commits.
        self._total_perm: np.ndarray | None = None
        self._commits = 0
        # Levels waiting to be priced together (see price).
        self._queued: list[Level] = []
        self._queued_edges = 0
        # The run's kernels, in trace order, until _score: a batch per
        # priced queue and per commit, and each row's (level index,
        # level span, active edges; None for a commit's update kernel).
        self._batches: list[KernelBatch] = []
        self._rows: list[tuple[int, Span | NullSpan, int | None]] = []

    @property
    def name(self) -> str:
        return self.scheduler.name

    def run(self, app: App, source: int | None = None) -> RunResult:
        """Execute ``app`` to convergence and return timing + results.

        One pipeline/device pair can serve many runs: each run's seconds
        are its own trace's, while the device profiler keeps accumulating.
        """
        return run_levels(self, self.graph, app, source, self.max_iterations)

    def start(self, graph: CSRGraph, app: App) -> None:
        self._total_perm = None
        self._commits = 0
        self.scheduler.set_metrics(self.metrics)
        self.scheduler.set_sanitizer(self.sanitizer)
        self.scheduler.reset(graph)
        self._queued = []
        self._queued_edges = 0
        self._batches = []
        self._rows = []

    def price(
        self, graph: CSRGraph, app: App, level: Level, trace: list[TraceNode]
    ) -> None:
        """Queue the level; price the queue once it holds the scheduler's
        ``queue_edge_limit`` (at most |E|) edges, so a full frontier
        fills a queue alone.  A level of |V| edges or more closes the
        queue before it; :meth:`post_level` prices the queue before a
        commit and at convergence."""
        edges = int(level.edge_dst.size)
        if edges >= graph.num_nodes:
            self._price_queued(graph, app)
        self._queued.append(level)
        self._queued_edges += edges
        if self._queued_edges >= self.scheduler.queue_edge_limit(graph):
            self._price_queued(graph, app)

    def record_level(self, level: Level, nodes: list[TraceNode]) -> None:
        """Nothing: :meth:`_score` records a level when it scores the run."""

    def _price_queued(self, graph: CSRGraph, app: App) -> None:
        """Build the queue's stats with one ``level_stats`` call, counted
        as one ``pipeline.pricing_passes``, and keep them for
        :meth:`_score`."""
        levels = self._queued
        if not levels:
            return
        self._queued = []
        self._queued_edges = 0
        self.metrics.count("pipeline.pricing_passes")
        self._batches.append(self.scheduler.level_stats(levels, graph, app))
        self._rows.extend(
            (level.index, level.span, int(level.edge_dst.size)) for level in levels
        )

    def _score(self, trace: list[TraceNode]) -> None:
        """Score the run's kernels with one ``Device.run_kernels`` call
        and append their trace nodes, each tagged with its level's index.
        If recorded, each kernel is a ``kernel`` child of its level's
        span, and the level's span gets its times."""
        batches, rows = self._batches, self._rows
        self._batches, self._rows = [], []
        device = self.device
        timing = device.run_kernels(KernelBatch.concat(batches))
        nodes = device.kernel_nodes(timing, [index for index, _, _ in rows])
        trace.extend(nodes)
        if not self.metrics.enabled:
            return
        for (_, span, active), node, values in zip(rows, nodes, kernel_span_rows(timing)):
            # attached, never entered: never timed, so its duration_s is 0
            kernel = self.metrics.span(
                "kernel", kind="expand-filter" if active is not None else "reorder-update"
            )
            span.children.append(kernel)
            for name, value in zip(KERNEL_SPAN_FIELDS, values):
                kernel.set(name, value)
            if active is not None:
                span.set("active_edges", active)
                span.set("kernel_cycles", values[0])
                span.set("iteration_seconds", node.seconds)
            else:
                span.set("reorder_cycles", values[0])
                # the level's kernel comes first, so this adds to its time
                span.add("iteration_seconds", node.seconds)

    def post_level(
        self,
        graph: CSRGraph,
        app: App,
        frontier: np.ndarray,
        level: Level,
        trace: list[TraceNode],
    ) -> tuple[CSRGraph, np.ndarray]:
        commit = self.scheduler.post_level(graph)
        if commit is not None or frontier.size == 0:
            # queued levels ran on this graph, before the commit
            self._price_queued(graph, app)
        if commit is not None:
            sanitizer = self.sanitizer
            if sanitizer is not None:
                sanitizer.check_commit(commit.perm, graph.num_nodes)
            # the update kernel runs after the level's
            self._batches.append(self.scheduler.stack([commit.update_stats]))
            self._rows.append((level.index, level.span, None))
            graph = graph.permute(commit.perm)
            app.graph = graph
            app.remap_nodes(commit.perm)
            frontier = commit.perm[frontier]
            self.scheduler.notify_reordered(commit.perm, graph)
            if sanitizer is not None:
                sanitizer.notify_reordered(commit.perm)
            self._total_perm = (
                commit.perm if self._total_perm is None
                else commit.perm[self._total_perm]
            )
            self._commits += 1
            self.metrics.count("pipeline.reorder_commits")
        if frontier.size == 0:
            self._score(trace)
        return graph, frontier

    def finish(
        self, graph: CSRGraph, run_span: Span | NullSpan, result: RunResult
    ) -> None:
        device = self.device
        metrics = self.metrics
        run_span.set("iterations", result.iterations)
        run_span.set("edges_traversed", result.edges_traversed)
        metrics.count("pipeline.runs")
        metrics.count("pipeline.iterations", result.iterations)
        metrics.count("pipeline.edges_traversed", result.edges_traversed)
        metrics.fold_profiler(device.profiler)
        result.profiler = device.profiler
        self.graph = graph
        total_perm = self._total_perm
        if total_perm is None:
            return
        # Express outputs in original ids: original node i now lives at
        # index total_perm[i].  Node-indexed data may live in the last
        # axis of higher-rank arrays (e.g. multi-source level matrices),
        # so remap that axis whenever it spans the nodes.
        n = graph.num_nodes
        remapped = {}
        for key, val in result.result.items():
            arr = np.asarray(val)
            if arr.ndim >= 1 and arr.shape[-1] == n:
                remapped[key] = arr[..., total_perm]
            else:
                remapped[key] = arr
        result.result = remapped
        result.reorder_commits = self._commits
        result.final_perm = total_perm


def run_app(
    graph: CSRGraph,
    app: App,
    scheduler: Scheduler,
    source: int | None = None,
    *,
    metrics: MetricsRegistry | None = None,
    sanitizer: "Sanitizer | None" = None,
) -> RunResult:
    """One-shot convenience wrapper around :class:`TraversalPipeline`;
    a ``sanitizer`` audits the run."""
    pipeline = TraversalPipeline(
        graph, scheduler, metrics=metrics, sanitizer=sanitizer
    )
    return pipeline.run(app, source)
