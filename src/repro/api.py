"""The unified entry point: load a graph, run, serve, cluster, tune, bench.

Everything the CLI and the benchmarks do goes through these functions;
library users should start here instead of wiring
:class:`~repro.core.pipeline.TraversalPipeline` or the serving tier by
hand.

::

    import repro

    graph = repro.api.load_graph("twitter", scale=0.3)
    result = repro.api.run(graph, "bfs", checks=True)
    print(result.gteps, result.values["dist"])

    with repro.api.cluster({"g": graph}, num_replicas=2) as pool:
        response = pool.submit(request).result()

``run(..., checks=True)`` wires the kernel hazard sanitizer and returns
it on the result; ``serve``/``cluster`` wire graphs, scheduler, tuned
profile and metrics into a :class:`~repro.serve.cluster.ServingHandle`
over the serving event loop.  The maps
:data:`APPS` and :data:`SCHEDULERS` are the canonical name → factory
registries; the CLI imports them from here.

``tune`` runs the :mod:`repro.tune` cost-model search and persists the
winning configuration as a :class:`~repro.tune.profiles.TunedProfile`.
``serve`` and ``cluster`` *auto-load* committed profiles: with the
default ``profile="auto"`` they fingerprint the registered graphs,
look for a matching profile under ``profiles/`` (override with the
``REPRO_PROFILE_DIR`` env var), and use its tuned knobs for any
parameter the caller did not set explicitly.  Explicit arguments
always win; pass ``profile=None`` to opt out entirely.

Importing this module loads only the traversal stack.  ``serve``,
``cluster``, ``bench``, ``tune`` and ``update`` import the serving
and tuning modules they use when called (DESIGN.md "Import budget").
"""

from __future__ import annotations

import json
import pathlib
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.apps import (
    BCApp,
    BFSApp,
    BiasedRandomWalkApp,
    ConnectedComponentsApp,
    KHopSampleApp,
    LabelPropagationApp,
    Node2VecWalkApp,
    PageRankApp,
    SSSPApp,
    SampledPPRApp,
)
from repro.apps.base import App
from repro.baselines import (
    B40CScheduler,
    GunrockScheduler,
    ThreadPerNodeScheduler,
    TigrScheduler,
)
from repro.core import SageScheduler, TraversalPipeline
from repro.core.scheduler import Scheduler
from repro.errors import InvalidParameterError
from repro.graph import datasets, io
from repro.graph.csr import CSRGraph
from repro.gpusim.profiler import Profiler
from repro.obs import NULL_REGISTRY, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - imported where used
    from repro.analysis.sanitizer import Sanitizer
    from repro.graph.delta import GraphDelta
    from repro.graph.dynamic import DynamicGraph
    from repro.serve.admission import AdmissionConfig
    from repro.serve.cache import GraphStore
    from repro.serve.cluster import ClusterBenchReport, ServingHandle
    from repro.serve.pipelined import PipelineConfig
    from repro.tune import TunedProfile, TuningSpace, TuningWorkload

#: Application kinds runnable through :func:`run` (name → factory).
APPS: dict[str, Callable[[], App]] = {
    "bfs": BFSApp,
    "bc": BCApp,
    "pr": lambda: PageRankApp(max_iterations=20),
    "cc": ConnectedComponentsApp,
    "sssp": SSSPApp,
    "lp": LabelPropagationApp,
    "walk": BiasedRandomWalkApp,
    "node2vec": Node2VecWalkApp,
    "khop": KHopSampleApp,
    "sppr": SampledPPRApp,
}

#: App kinds that require a traversal source.
SOURCE_APPS = frozenset(
    {"bfs", "bc", "sssp", "walk", "node2vec", "khop", "sppr"}
)

#: Scheduler names accepted everywhere a scheduler is chosen by name.
SCHEDULERS: dict[str, Callable[[], Scheduler]] = {
    "sage": SageScheduler,
    "sage-sr": lambda: SageScheduler(sampling_reorder=True),
    "tpn": ThreadPerNodeScheduler,
    "b40c": B40CScheduler,
    "tigr": TigrScheduler,
    "gunrock": GunrockScheduler,
}


@dataclass(frozen=True)
class RunResult:
    """Outcome of one :func:`run` call.

    ``values`` holds the application's output arrays (original node
    ids); ``checks`` is the kernel hazard sanitizer when the run was
    audited (``checks=True``), else ``None``; ``raw`` is the underlying
    :class:`repro.core.pipeline.RunResult` for callers that need the
    pipeline-level view.
    """

    app: str
    scheduler: str
    seconds: float
    iterations: int
    edges_traversed: int
    gteps: float
    values: dict[str, np.ndarray]
    profiler: Profiler
    reorder_commits: int = 0
    checks: "Sanitizer | None" = None
    metrics: MetricsRegistry | None = None
    raw: Any = field(default=None, repr=False)

    @property
    def clean(self) -> bool:
        """Whether the audited run produced no sanitizer findings
        (vacuously true when ``checks`` was off)."""
        return self.checks is None or self.checks.clean


def _make_app(app: str | App) -> tuple[str, App]:
    if isinstance(app, App):
        return app.name, app
    if app not in APPS:
        raise InvalidParameterError(
            f"unknown app {app!r}; expected one of {sorted(APPS)}"
        )
    return app, APPS[app]()


def _make_scheduler(
    scheduler: str | Scheduler | Callable[[], Scheduler],
) -> Scheduler:
    if isinstance(scheduler, Scheduler):
        return scheduler
    if callable(scheduler):
        return scheduler()
    if scheduler not in SCHEDULERS:
        raise InvalidParameterError(
            f"unknown scheduler {scheduler!r}; "
            f"expected one of {sorted(SCHEDULERS)}"
        )
    return SCHEDULERS[scheduler]()


def _scheduler_factory(
    scheduler: str | Callable[[], Scheduler],
) -> Callable[[], Scheduler]:
    if callable(scheduler):
        return scheduler
    if scheduler not in SCHEDULERS:
        raise InvalidParameterError(
            f"unknown scheduler {scheduler!r}; "
            f"expected one of {sorted(SCHEDULERS)}"
        )
    return SCHEDULERS[scheduler]


def _resolve_profile(
    profile: "TunedProfile | str | None",
    graphs: Mapping[str, CSRGraph | DynamicGraph] | GraphStore,
) -> TunedProfile | None:
    """Resolve the ``profile=`` argument of :func:`serve`/:func:`cluster`.

    ``"auto"`` fingerprints every registered graph and returns the
    first committed profile that matches one of them (profiles are
    keyed on graph content, so an epoch bump or regenerated graph
    silently falls back to defaults).  A path loads that file
    unconditionally; an instance is used as-is; ``None`` disables.
    """
    from repro.graph.dynamic import DynamicGraph
    from repro.serve.cache import GraphStore, graph_fingerprint
    from repro.tune import ProfileStore, TunedProfile

    if profile is None:
        return None
    if isinstance(profile, TunedProfile):
        return profile
    if profile != "auto":
        return ProfileStore().load(profile)
    if isinstance(graphs, GraphStore):
        fingerprints = [graphs.fingerprint(h) for h in graphs.handles]
    else:
        fingerprints = []
        for graph in graphs.values():
            csr = graph.graph if isinstance(graph, DynamicGraph) else graph
            fingerprints.append(graph_fingerprint(csr))
    store = ProfileStore()
    for fingerprint in fingerprints:
        found = store.find(fingerprint)
        if found is not None:
            return found
    return None


def load_graph(
    name: str | None = None,
    *,
    scale: float = 0.5,
    path: str | None = None,
) -> CSRGraph:
    """Load a built-in synthetic dataset or a SNAP edge-list file."""
    if path is not None:
        return io.read_edge_list(path)
    if name is None:
        raise InvalidParameterError("pass a dataset name or path=...")
    return datasets.by_name(name, scale).graph


def run(
    graph: CSRGraph,
    app: str | App = "bfs",
    *,
    source: int | None = None,
    scheduler: str | Scheduler | Callable[[], Scheduler] = "sage",
    checks: bool = False,
    metrics: MetricsRegistry | None = None,
    max_iterations: int = 100_000,
) -> RunResult:
    """Run one application to convergence on the simulated device.

    ``checks=True`` audits every kernel with the hazard sanitizer
    (:mod:`repro.analysis`) and returns it as ``result.checks``.
    ``source`` defaults to the highest-out-degree node for apps that
    need one.
    """
    app_name, app_obj = _make_app(app)
    if source is None and app_name in SOURCE_APPS:
        source = int(np.argmax(graph.out_degrees()))
    sanitizer: "Sanitizer | None" = None
    if checks:
        from repro.analysis import Sanitizer

        sanitizer = Sanitizer()
    registry = metrics if metrics is not None else NULL_REGISTRY
    registry.count("api.runs")
    pipeline = TraversalPipeline(
        graph,
        _make_scheduler(scheduler),
        max_iterations=max_iterations,
        metrics=metrics,
        sanitizer=sanitizer,
    )
    raw = pipeline.run(app_obj, source)
    return RunResult(
        app=raw.app_name,
        scheduler=raw.scheduler_name,
        seconds=raw.seconds,
        iterations=raw.iterations,
        edges_traversed=raw.edges_traversed,
        gteps=raw.gteps,
        values=raw.result,
        profiler=raw.profiler,
        reorder_commits=raw.reorder_commits,
        checks=sanitizer,
        metrics=metrics,
        raw=raw,
    )


def serve(
    graphs: Mapping[str, CSRGraph] | CSRGraph,
    *,
    scheduler: str | Callable[[], Scheduler] = "sage",
    batch_window: float | None = None,
    max_batch_size: int | None = None,
    queue_capacity: int = 256,
    max_retries: int = 1,
    profile: TunedProfile | str | None = "auto",
    metrics: MetricsRegistry | None = None,
) -> ServingHandle:
    """Start a single micro-batching query broker (a context manager).

    The broker is the :data:`~repro.serve.cluster.SINGLE_BROKER`
    configuration of :func:`cluster`: one simulated device, no result
    cache, and ``queue_capacity`` as its pinned limit on outstanding
    queries (a submit beyond it is shed).  A bare :class:`CSRGraph` is
    registered under the handle ``"default"``.

    With the default ``profile="auto"`` a committed tuned profile
    matching one of the graphs (by content fingerprint) supplies the
    batching knobs and scheduler tile floor for any parameter left
    unset; explicit arguments always win (see :func:`tune`).
    """
    from repro.serve.admission import AdmissionConfig
    from repro.serve.cluster import SINGLE_BROKER, ServingHandle

    if isinstance(graphs, CSRGraph):
        graphs = {"default": graphs}
    if queue_capacity < 1:
        raise InvalidParameterError("queue_capacity must be >= 1")
    registry = metrics if metrics is not None else NULL_REGISTRY
    registry.count("api.serve_sessions")
    tuned = _resolve_profile(profile, graphs)
    factory = _scheduler_factory(scheduler)
    if tuned is not None:
        registry.count("api.profiles_applied")
        if batch_window is None:
            batch_window = tuned.point.batch_window
        if max_batch_size is None:
            max_batch_size = tuned.point.max_batch_size
        if scheduler == "sage":
            factory = tuned.point.scheduler_factory()
    return ServingHandle(
        graphs,
        factory,
        **{
            **SINGLE_BROKER,
            "admission": AdmissionConfig(
                max_concurrency=queue_capacity, min_concurrency=queue_capacity
            ),
        },
        batch_window=batch_window if batch_window is not None else 0.01,
        max_batch_size=max_batch_size if max_batch_size is not None else 64,
        max_retries=max_retries,
        metrics=metrics,
    )


def cluster(
    graphs: Mapping[str, CSRGraph | DynamicGraph] | CSRGraph | GraphStore,
    *,
    scheduler: str | Callable[[], Scheduler] = "sage",
    num_replicas: int = 2,
    routing: str | None = None,
    batch_window: float | None = None,
    max_batch_size: int | None = None,
    max_retries: int = 1,
    cache_capacity: int = 1024,
    admission: AdmissionConfig | None = None,
    profile: TunedProfile | str | None = "auto",
    metrics: MetricsRegistry | None = None,
) -> ServingHandle:
    """Start a sharded replica service (a context manager).

    Adds routing (:data:`~repro.serve.cluster.ROUTING_POLICIES`),
    adaptive admission control and the epoch-versioned result cache on
    top of :func:`serve`'s single broker; the admission limit bounds the
    outstanding queries.  Register a
    :class:`~repro.graph.dynamic.DynamicGraph` to stream edge updates;
    merges reach every replica's next batch and invalidate the cache.

    With the default ``profile="auto"`` a committed tuned profile
    matching one of the graphs (by content fingerprint) supplies the
    batching, routing, admission and tile-floor knobs for any parameter
    left unset; explicit arguments always win (see :func:`tune`).
    """
    from repro.serve.cluster import ServingHandle

    if isinstance(graphs, CSRGraph):
        graphs = {"default": graphs}
    registry = metrics if metrics is not None else NULL_REGISTRY
    registry.count("api.cluster_sessions")
    tuned = _resolve_profile(profile, graphs)
    factory = _scheduler_factory(scheduler)
    if tuned is not None:
        registry.count("api.profiles_applied")
        if routing is None:
            routing = tuned.point.routing
        if batch_window is None:
            batch_window = tuned.point.batch_window
        if max_batch_size is None:
            max_batch_size = tuned.point.max_batch_size
        if admission is None:
            admission = tuned.point.admission_config()
        if scheduler == "sage":
            factory = tuned.point.scheduler_factory()
    return ServingHandle(
        graphs,
        factory,
        num_replicas=num_replicas,
        routing=routing if routing is not None else "least_outstanding",
        batch_window=batch_window if batch_window is not None else 0.01,
        max_batch_size=max_batch_size if max_batch_size is not None else 64,
        max_retries=max_retries,
        cache_capacity=cache_capacity,
        admission=admission,
        metrics=metrics,
    )


def tune(
    workload: str | TuningWorkload = "rmat_small",
    *,
    budget: int = 32,
    seed: int = 0,
    space: TuningSpace | None = None,
    out: str | None = None,
    trace: str | None = None,
    metrics: MetricsRegistry | None = None,
) -> TunedProfile:
    """Search the tuning space for one workload (see :mod:`repro.tune`).

    Runs the seeded UCB/MCTS search against the deterministic cost
    model and returns the winning configuration as a
    :class:`~repro.tune.profiles.TunedProfile` — never worse than the
    defaults, which compete on equal terms.  ``out`` saves the profile
    (canonical JSON, byte-stable for equal inputs) into that directory;
    ``trace`` writes the full rollout-by-rollout search trace to a JSON
    file for offline inspection or CI artifacts.
    """
    from repro.tune import ProfileStore, tune_workload

    registry = metrics if metrics is not None else NULL_REGISTRY
    registry.count("api.tune_runs")
    profile, result = tune_workload(
        workload, budget=budget, seed=seed, space=space, metrics=metrics
    )
    if out is not None:
        ProfileStore(out).save(profile)
    if trace is not None:
        payload = {
            "workload": profile.workload,
            "seed": seed,
            "budget": budget,
            "evaluations": result.evaluations,
            "speedup": result.speedup,
            "rollouts": list(result.trace),
        }
        path = pathlib.Path(trace)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
    return profile


def bench(
    graph: CSRGraph,
    *,
    num_queries: int = 64,
    rate_qps: float = 200.0,
    mix: Mapping[str, float] | None = None,
    batch_window: float = 0.05,
    max_batch_size: int = 64,
    scheduler: str | Callable[[], Scheduler] = "sage",
    replicas: int = 0,
    routing: str = "affinity",
    cache_capacity: int = 1024,
    admission: AdmissionConfig | None = None,
    pipeline: PipelineConfig | None = None,
    seed: int = 0,
    metrics: MetricsRegistry | None = None,
) -> ClusterBenchReport:
    """Deterministic open-loop serving benchmark over one graph.

    ``replicas=0`` (default) benchmarks the single micro-batching
    broker (the :data:`~repro.serve.cluster.SINGLE_BROKER` replay)
    against the sequential one-query-at-a-time oracle; ``replicas >= 1``
    benchmarks the cluster tier on the same seeded trace, baselined
    against the single broker.  Either way the report's
    ``baseline_seconds``/``speedup_vs_baseline`` carry the comparison.
    Pass a :class:`~repro.serve.pipelined.PipelineConfig` to run replica
    devices through the stream/event pipeline (responses stay
    bit-identical; only device time changes).  Everything runs in
    virtual time, so equal arguments always produce equal reports.
    """
    from repro.serve.cluster import SINGLE_BROKER, simulate_cluster_open_loop
    from repro.serve.loadgen import (
        generate_queries,
        open_loop_arrivals,
        sequential_baseline,
    )

    registry = metrics if metrics is not None else NULL_REGISTRY
    registry.count("api.bench_runs")
    factory = _scheduler_factory(scheduler)
    requests = generate_queries(
        "bench", graph.num_nodes, num_queries, mix=mix, seed=seed
    )
    arrivals = open_loop_arrivals(num_queries, rate_qps, seed=seed)
    trace = ({"bench": graph}, requests, arrivals, factory)
    window: dict[str, Any] = dict(
        batch_window=batch_window, max_batch_size=max_batch_size
    )
    if replicas < 1:
        baseline = sequential_baseline(graph, requests, factory)
        config: dict[str, Any] = SINGLE_BROKER
    else:
        _, single = simulate_cluster_open_loop(
            *trace, **window, **SINGLE_BROKER
        )
        baseline = single.sim_seconds_total
        config = dict(
            num_replicas=replicas,
            routing=routing,
            cache_capacity=cache_capacity,
            admission=admission,
            pipeline=pipeline,
        )
    _, report = simulate_cluster_open_loop(
        *trace, **window, **config,
        baseline_seconds=baseline, metrics=metrics,
    )
    return report


def update(
    target: GraphStore | ServingHandle | DynamicGraph,
    handle: str = "default",
    *,
    insert: tuple[Any, Any] | None = None,
    delete: tuple[Any, Any] | None = None,
    metrics: MetricsRegistry | None = None,
) -> GraphDelta:
    """Apply one batched edge update and return the merge's delta.

    ``target`` is a :class:`~repro.serve.cache.GraphStore`, a running
    :func:`serve`/:func:`cluster` service (updates its store once every
    batch closed before now has run, so later batches see the merge and
    the cache invalidates selectively), or a bare
    :class:`~repro.graph.dynamic.DynamicGraph`.  ``insert`` and
    ``delete`` are ``(src, dst)`` array pairs applied as a single merge
    — deletes win over same-batch inserts of the same pair.  The
    returned :class:`~repro.graph.delta.GraphDelta` records exactly
    what changed; feed it to the :mod:`repro.apps.incremental` engines
    to repair standing results instead of recomputing.
    """
    from repro.graph.dynamic import DynamicGraph

    registry = metrics if metrics is not None else NULL_REGISTRY
    if insert is None and delete is None:
        raise InvalidParameterError(
            "pass insert=(src, dst) and/or delete=(src, dst)"
        )
    empty = np.empty(0, dtype=np.int64)
    ins_src, ins_dst = insert if insert is not None else (empty, empty)
    registry.count("api.updates")
    if isinstance(target, DynamicGraph):
        ins_src = np.asarray(ins_src)
        if ins_src.size:
            target.insert_edges(ins_src, np.asarray(ins_dst))
        if delete is not None:
            target.delete_edges(
                np.asarray(delete[0]), np.asarray(delete[1])
            )
        before = target.epoch
        target.flush()
        delta = target.last_delta
        if delta is None or target.epoch == before:
            raise InvalidParameterError(
                "update applied no changes (empty insert and delete)"
            )
        return delta
    from repro.serve.cluster import ServingHandle

    if isinstance(target, ServingHandle):
        target.advance()
        store = target.store
    else:
        store = target
    before = store.epoch(handle)
    store.apply_edges(
        handle,
        ins_src,
        ins_dst,
        delete_src=delete[0] if delete is not None else None,
        delete_dst=delete[1] if delete is not None else None,
    )
    delta = store.last_delta(handle)
    if delta is None or store.epoch(handle) == before:
        raise InvalidParameterError(
            "update applied no changes (empty insert and delete)"
        )
    return delta


__all__ = [
    "APPS",
    "RunResult",
    "SCHEDULERS",
    "SOURCE_APPS",
    "bench",
    "cluster",
    "load_graph",
    "run",
    "serve",
    "tune",
    "update",
]
