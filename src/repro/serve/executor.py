"""Batch execution: one batched kernel sequence answers many queries.

The executor is where micro-batching pays off.  A batch of BFS queries
is rewritten into MS-BFS runs (:class:`~repro.apps.msbfs.MultiSourceBFSApp`
packs up to 64 sources into one bit-parallel traversal); PageRank-family
queries that differ only in parameters are answered by a single run
shared across the batch; per-source apps without a batched formulation
(SSSP, personalized PR) run once per *unique* source, so duplicate
sources still coalesce.  Every run goes through
:func:`~repro.core.pipeline.run_app`, the path the oracle takes, so a
reordering scheduler commits the same relabels in both — the invariant
the differential harness in ``tests/serve/`` pins.

:func:`run_direct` is the sequential oracle the service is tested (and
benchmarked) against: one plain ``run_app`` per query.

:meth:`BatchExecutor.compile` also recompiles a batch's recorded device
timelines into one :class:`~repro.gpusim.streams.BatchDag` for the
pipelined replica devices (:mod:`repro.serve.pipelined`).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.apps import (
    BFSApp,
    BiasedRandomWalkApp,
    KHopSampleApp,
    MultiSourceBFSApp,
    Node2VecWalkApp,
    PageRankApp,
    PersonalizedPageRankApp,
    SSSPApp,
    SampledPPRApp,
)
from repro.apps.base import App
from repro.apps.msbfs import MAX_SOURCES
from repro.core.pipeline import RunResult, run_app
from repro.core.scheduler import Scheduler
from repro.errors import InvalidParameterError, SimulationError
from repro.graph.csr import CSRGraph
from repro.gpusim.streams import HOST, KERNEL, BatchDag, dag_from_run
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.serve.request import SAMPLING_APPS, QueryRequest

if TYPE_CHECKING:  # pragma: no cover - imported where used
    from repro.analysis.sanitizer import Sanitizer


def make_single_app(kind: str, params: dict[str, Any]) -> App:
    """The per-query app the direct oracle runs (no batching)."""
    if kind == "bfs":
        if params:
            raise InvalidParameterError(f"bfs takes no params, got {params}")
        return BFSApp()
    if kind == "sssp":
        if params:
            raise InvalidParameterError(f"sssp takes no params, got {params}")
        return SSSPApp()
    if kind == "pr":
        return PageRankApp(**params)
    if kind == "ppr":
        return PersonalizedPageRankApp(**params)
    if kind == "walk":
        return BiasedRandomWalkApp(**params)
    if kind == "node2vec":
        return Node2VecWalkApp(**params)
    if kind == "khop":
        return KHopSampleApp(**params)
    if kind == "sppr":
        return SampledPPRApp(**params)
    raise InvalidParameterError(f"unknown serve app {kind!r}")


def run_direct(
    graph: CSRGraph,
    request: QueryRequest,
    scheduler_factory: Callable[[], Scheduler],
    *,
    metrics: MetricsRegistry | None = None,
    sanitizer: Sanitizer | None = None,
) -> RunResult:
    """Answer one query with the direct single-query pipeline (oracle)."""
    app = make_single_app(request.app, request.param_dict())
    return run_app(
        graph, app, scheduler_factory(), request.source,
        metrics=metrics, sanitizer=sanitizer,
    )


@dataclass
class BatchExecution:
    """Outcome of executing one batch.

    ``results`` is aligned with the input request list; every entry is a
    fresh dict with copied arrays so responses never alias each other.
    ``sim_seconds`` is the total simulated device time of the batch (the
    worker executes its internal runs serially).  ``dag`` is the batch's
    stream DAG when :meth:`BatchExecutor.compile` produced it.

    The order of ``runs`` is part of the contract: compilation replays
    run ``i`` as lane ``i`` of the batch's stream DAG, so two executions
    of the same batch must list their runs in the same order (they do —
    every ``_execute_*`` path iterates sources in sorted order).
    """

    results: list[dict[str, np.ndarray]]
    sim_seconds: float
    runs: list[RunResult] = field(default_factory=list)
    dag: BatchDag | None = None

    @property
    def traced(self) -> bool:
        """Whether every internal run recorded a device node trace.

        A run without a ``node_trace`` would compile to an *empty* DAG
        lane — zero device time — silently deflating the pipelined
        timeline, so :meth:`BatchExecutor.compile` refuses untraced
        executions instead of guessing.
        """
        return all(run.node_trace for run in self.runs)


class BatchExecutor:
    """Executes batches of compatible queries on simulated devices."""

    def __init__(
        self,
        scheduler_factory: Callable[[], Scheduler],
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.scheduler_factory = scheduler_factory
        self.metrics = metrics if metrics is not None else NULL_REGISTRY

    # ------------------------------------------------------------------
    # Run plumbing (overridable: fault-injection tests subclass this)
    # ------------------------------------------------------------------

    def _run(
        self, graph: CSRGraph, app: App, source: int | None = None
    ) -> RunResult:
        """One traversal on a fresh pipeline (clean per-run profiler)."""
        run_registry = MetricsRegistry(enabled=self.metrics.enabled)
        result = run_app(
            graph, app, self.scheduler_factory(), source,
            metrics=run_registry,
        )
        # Per-run registries are summed into the executor's registry;
        # folding devices directly into a shared registry would snapshot-
        # overwrite the gpusim.* counters of earlier runs.
        self.metrics.merge(run_registry)
        return result

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------

    def execute(
        self, graph: CSRGraph, requests: list[QueryRequest]
    ) -> BatchExecution:
        """Answer every request in one compatible batch."""
        if not requests:
            return BatchExecution(results=[], sim_seconds=0.0)
        kind = requests[0].app
        params = requests[0].params
        for req in requests[1:]:
            if req.app != kind or req.params != params:
                raise InvalidParameterError(
                    "batch mixes incompatible queries "
                    f"({kind}/{params} vs {req.app}/{req.params})"
                )
        if kind == "bfs":
            return self._execute_bfs(graph, requests)
        if kind in ("sssp", "ppr"):
            return self._execute_per_source(graph, requests)
        if kind == "pr":
            return self._execute_shared(graph, requests)
        if kind in SAMPLING_APPS:
            return self._execute_sampling(graph, requests)
        raise InvalidParameterError(f"unknown serve app {kind!r}")

    def compile(
        self,
        graph: CSRGraph,
        requests: list[QueryRequest],
        prefetch_depth: int = 0,
    ) -> BatchExecution:
        """Execute one batch and compile its device timeline to a DAG.

        The results come from :meth:`execute` unchanged; the returned
        execution also carries the batch's ``dag``.  Each internal run
        becomes one lane (its own dependency chain), so runs of the same
        batch can themselves overlap when the device has streams to
        spare; ``prefetch_depth`` is passed to
        :func:`~repro.gpusim.streams.dag_from_run`.
        """
        with self.metrics.span(
            "pipeline.batch", queries=len(requests),
        ) as span:
            execution = self.execute(graph, requests)
            if not execution.traced:
                raise SimulationError(
                    "batch has a run without a node trace; its DAG "
                    "lane would carry zero device time"
                )
            dag = BatchDag()
            for lane, run in enumerate(execution.runs):
                dag_from_run(
                    run, dag=dag, lane=lane, prefetch_depth=prefetch_depth,
                )
            span.set("nodes", dag.num_nodes)
            span.set("lanes", dag.num_lanes)
            span.set("total_seconds", dag.total_seconds)
        self.metrics.count("pipeline.batches")
        kinds = Counter(node.kind for node in dag.nodes)
        self.metrics.count("stream.kernel_nodes", kinds[KERNEL])
        self.metrics.count(
            "stream.transfer_nodes",
            dag.num_nodes - kinds[KERNEL] - kinds[HOST],
        )
        self.metrics.count("stream.host_nodes", kinds[HOST])
        execution.dag = dag
        return execution

    def _execute_bfs(
        self, graph: CSRGraph, requests: list[QueryRequest]
    ) -> BatchExecution:
        """All BFS queries of a batch ride MS-BFS bit-parallel runs."""
        sources = np.array([req.source for req in requests], dtype=np.int64)
        unique = np.unique(sources)
        row_of: dict[int, tuple[int, int]] = {}
        runs: list[RunResult] = []
        seconds = 0.0
        for start in range(0, unique.size, MAX_SOURCES):
            chunk = unique[start:start + MAX_SOURCES]
            result = self._run(graph, MultiSourceBFSApp(chunk))
            for row, src in enumerate(chunk.tolist()):
                row_of[src] = (len(runs), row)
            runs.append(result)
            seconds += result.seconds
        results = []
        for req in requests:
            run_idx, row = row_of[int(req.source)]  # type: ignore[arg-type]
            levels = runs[run_idx].result["levels"]
            results.append({"dist": np.asarray(levels[row]).copy()})
        return BatchExecution(results=results, sim_seconds=seconds, runs=runs)

    def _execute_per_source(
        self, graph: CSRGraph, requests: list[QueryRequest]
    ) -> BatchExecution:
        """One run per unique source; duplicate sources share it."""
        params = requests[0].param_dict()
        by_source: dict[int, dict[str, np.ndarray]] = {}
        runs: list[RunResult] = []
        seconds = 0.0
        for source in sorted({int(req.source) for req in requests}):  # type: ignore[arg-type]
            app = make_single_app(requests[0].app, params)
            result = self._run(graph, app, source)
            by_source[source] = result.result
            runs.append(result)
            seconds += result.seconds
        results = [
            {k: np.asarray(v).copy()
             for k, v in by_source[int(req.source)].items()}  # type: ignore[arg-type]
            for req in requests
        ]
        return BatchExecution(results=results, sim_seconds=seconds, runs=runs)

    def _execute_shared(
        self, graph: CSRGraph, requests: list[QueryRequest]
    ) -> BatchExecution:
        """Source-independent apps: one run answers the whole batch."""
        app = make_single_app(requests[0].app, requests[0].param_dict())
        result = self._run(graph, app)
        results = [
            {k: np.asarray(v).copy() for k, v in result.result.items()}
            for _ in requests
        ]
        return BatchExecution(
            results=results, sim_seconds=result.seconds, runs=[result]
        )

    def _execute_sampling(
        self, graph: CSRGraph, requests: list[QueryRequest]
    ) -> BatchExecution:
        """Sampling queries of a batch share one combined-app run.

        The combined app carries ``sources=`` (the batch's sorted unique
        query sources) and advances every source's streams together, so
        each level's expansion kernel gathers the *union* frontier once.
        Counter-based RNG keys every draw by ``(seed, source, ...)``,
        never by batch composition, so slicing the combined result per
        source reproduces each single-query oracle run bit for bit.
        """
        kind = requests[0].app
        params = requests[0].param_dict()
        unique = sorted({int(req.source) for req in requests})  # type: ignore[arg-type]
        sources = np.array(unique, dtype=np.int64)
        group_of = {src: g for g, src in enumerate(unique)}
        app = make_single_app(kind, {**params, "sources": sources})
        result = self._run(graph, app)
        self.metrics.count("sampling.queries", len(requests))
        self.metrics.count("sampling.coalesced_batches")
        self.metrics.count("sampling.batched_sources", sources.size)
        combined = result.result
        results: list[dict[str, np.ndarray]] = []
        if kind in ("walk", "node2vec"):
            walks = combined["walks"]
            per_source = walks.shape[0] // sources.size
            self.metrics.count("sampling.walks", walks.shape[0])
            for req in requests:
                g = group_of[int(req.source)]  # type: ignore[arg-type]
                rows = walks[g * per_source:(g + 1) * per_source]
                results.append({"walks": rows.copy()})
        elif kind == "sppr":
            estimates = combined["sppr"]
            self.metrics.count(
                "sampling.walks", app.num_walks * sources.size  # type: ignore[attr-defined]
            )
            for req in requests:
                g = group_of[int(req.source)]  # type: ignore[arg-type]
                results.append({"sppr": estimates[g].copy()})
        elif kind == "khop":
            nodes = combined["nodes"]
            offsets = combined["offsets"]
            group_offsets = combined["group_offsets"]
            self.metrics.count("sampling.khop_nodes", int(nodes.size))
            for req in requests:
                g = group_of[int(req.source)]  # type: ignore[arg-type]
                lo, hi = int(group_offsets[g]), int(group_offsets[g + 1])
                results.append({
                    "nodes": nodes[lo:hi].copy(),
                    "offsets": offsets[g].copy(),
                })
        else:  # pragma: no cover - dispatch guarantees membership
            raise InvalidParameterError(f"unknown sampling app {kind!r}")
        return BatchExecution(
            results=results, sim_seconds=result.seconds, runs=[result]
        )
