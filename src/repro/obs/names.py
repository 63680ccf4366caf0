"""Canonical registry of every metric and span name the library emits.

Every ``metrics.count`` / ``set_counter`` / ``set_gauge`` / ``span`` call
site in ``src/repro`` must use a name that resolves here; the SAGE002
lint rule (:mod:`repro.analysis.lint`) enforces it at lint time and
``tests/test_obs_names.py`` cross-checks the registry against the actual
emit sites and the documentation, so a typo'd ``sage.*`` counter fails CI
instead of silently starting a second, never-read time series.

Two kinds of entries:

* **static names** — the exact literals below (:data:`COUNTERS`,
  :data:`GAUGES`, :data:`SPANS`), grouped per emitting subsystem so
  drift reports point at the owner.
* **dynamic families** — names constructed at runtime: the ``gpusim.*``
  mirror of the simulator profiler (:data:`GPUSIM_COUNTERS` and
  :data:`GPUSIM_GAUGES`, exactly one name per field of
  :data:`~repro.obs.registry.PROFILER_COUNTER_FIELDS` and
  :data:`~repro.obs.registry.PROFILER_GAUGE_FIELDS`) and the ``gpu<N>.``
  namespaces that :meth:`~repro.obs.registry.MetricsRegistry.merge`
  prepends for per-device registries in multi-GPU runs.
"""

from __future__ import annotations

import re

from repro.obs.registry import PROFILER_COUNTER_FIELDS, PROFILER_GAUGE_FIELDS

#: ``sage.*`` counters emitted by the SAGE scheduler (``repro.core.engine``).
#: This is the single canonical list; the engine's emit sites and the
#: trajectory-benchmark carry-list are asserted against it.
SAGE_COUNTERS: frozenset[str] = frozenset(
    {
        "sage.tiles",
        "sage.tiles_expanded",
        "sage.tiles_stolen_resident",
        "sage.elections",
        "sage.node_tables_built",
    }
)

#: Counters emitted by the traversal pipeline (``repro.core.pipeline``).
PIPELINE_COUNTERS: frozenset[str] = frozenset(
    {
        "pipeline.runs",
        "pipeline.iterations",
        "pipeline.edges_traversed",
        "pipeline.reorder_commits",
        "pipeline.pricing_passes",
    }
)

#: Counters of pipelined execution (``BatchExecutor.compile`` and
#: ``ReplicaPipeline``): per-batch DAG compilation and in-flight window
#: bookkeeping.
PIPELINE_EXEC_COUNTERS: frozenset[str] = frozenset(
    {
        "pipeline.batches",
        "pipeline.queued_batches",
    }
)

#: Counters emitted by the stream/event scheduler layer
#: (``BatchExecutor.compile`` building ``repro.gpusim.streams`` DAGs):
#: node population of every compiled batch DAG.
STREAM_COUNTERS: frozenset[str] = frozenset(
    {
        "stream.kernel_nodes",
        "stream.transfer_nodes",
        "stream.host_nodes",
    }
)

#: Counters emitted by sampling-based reordering (``repro.core.reorder``).
REORDER_COUNTERS: frozenset[str] = frozenset(
    {
        "reorder.rounds",
        "reorder.moved_nodes",
        "reorder.sampled_pairs",
        "reorder.sampled_tiles",
    }
)

#: Counters emitted by the out-of-core runners (``repro.outofcore``).
OOC_COUNTERS: frozenset[str] = frozenset(
    {
        "ooc.bytes_transferred",
        "ooc.requests",
        "ooc.transfer_seconds",
    }
)

#: Counters emitted by the multi-GPU runner (``repro.multigpu``).
MULTIGPU_COUNTERS: frozenset[str] = frozenset(
    {
        "multigpu.messages",
        "multigpu.comm_seconds",
        "multigpu.iterations",
    }
)

#: Counters emitted by the kernel hazard sanitizer
#: (``repro.analysis.sanitizer``): one per finding code plus bookkeeping.
SANITIZER_COUNTERS: frozenset[str] = frozenset(
    {
        "sanitizer.findings",
        "sanitizer.levels_checked",
        "sanitizer.edges_checked",
        "sanitizer.kernels_checked",
        "sanitizer.write_write_hazard",
        "sanitizer.oob_vertex_index",
        "sanitizer.oob_edge_index",
        "sanitizer.dtype_overflow",
        "sanitizer.frontier_duplicates",
        "sanitizer.nonmonotone_level",
        "sanitizer.invalid_permutation",
        "sanitizer.work_unit_gap",
        "sanitizer.kernel_stats_inconsistent",
    }
)

#: Counters emitted by the batched query service (``repro.serve``).
SERVE_COUNTERS: frozenset[str] = frozenset(
    {
        "serve.requests",
        "serve.accepted",
        "serve.shed",
        "serve.batches",
        "serve.batched_queries",
        "serve.responses",
        "serve.timeouts",
        "serve.errors",
        "serve.retries",
    }
)

#: Counters emitted by the cluster tier (``repro.serve.cluster`` plus
#: its admission/cache collaborators in ``repro.serve``).
CLUSTER_COUNTERS: frozenset[str] = frozenset(
    {
        "cluster.requests",
        "cluster.admitted",
        "cluster.throttled",
        "cluster.shed",
        "cluster.routed",
        "cluster.cache_hits",
        "cluster.cache_misses",
        "cluster.cache_evictions",
        "cluster.cache_invalidations",
        "cluster.graph_updates",
    }
)

#: Counters emitted by the sampling workload family as batches of
#: walk/node2vec/khop/sppr queries coalesce into combined-app runs
#: (``repro.serve.executor``).
SAMPLING_COUNTERS: frozenset[str] = frozenset(
    {
        "sampling.queries",
        "sampling.coalesced_batches",
        "sampling.batched_sources",
        "sampling.walks",
        "sampling.khop_nodes",
    }
)

#: Counters emitted as structured graph deltas flow from
#: ``DynamicGraph.flush`` through the ``GraphStore`` fan-out to the
#: selective result cache (``repro.serve.cache``).
DELTA_COUNTERS: frozenset[str] = frozenset(
    {
        "delta.flushes",
        "delta.edges_inserted",
        "delta.edges_deleted",
        "delta.cache_entries_kept",
        "delta.cache_entries_purged",
    }
)

#: Counters emitted by the delta-aware incremental engines
#: (``repro.apps.incremental``).
INCREMENTAL_COUNTERS: frozenset[str] = frozenset(
    {
        "incremental.updates",
        "incremental.repairs",
        "incremental.full_recomputes",
        "incremental.noops",
        "incremental.affected_vertices",
        "incremental.residual_pushes",
    }
)

#: Counters emitted by the unified facade (``repro.api``).
API_COUNTERS: frozenset[str] = frozenset(
    {
        "api.runs",
        "api.serve_sessions",
        "api.cluster_sessions",
        "api.bench_runs",
        "api.tune_runs",
        "api.profiles_applied",
        "api.updates",
    }
)

#: Counters emitted by the self-tuning subsystem (``repro.tune``).
TUNE_COUNTERS: frozenset[str] = frozenset(
    {
        "tune.searches",
        "tune.rollouts",
        "tune.evaluations",
        "tune.eval_cache_hits",
        "tune.profiles_saved",
        "tune.profiles_loaded",
        "tune.profiles_skipped",
        "tune.profile_matches",
    }
)

#: All statically-known counter names.
COUNTERS: frozenset[str] = (
    SAGE_COUNTERS
    | PIPELINE_COUNTERS
    | PIPELINE_EXEC_COUNTERS
    | STREAM_COUNTERS
    | REORDER_COUNTERS
    | OOC_COUNTERS
    | MULTIGPU_COUNTERS
    | SANITIZER_COUNTERS
    | SERVE_COUNTERS
    | CLUSTER_COUNTERS
    | SAMPLING_COUNTERS
    | DELTA_COUNTERS
    | INCREMENTAL_COUNTERS
    | API_COUNTERS
    | TUNE_COUNTERS
)

#: Gauges emitted by single-run entry points (CLI / benchmarks).
RUN_GAUGES: frozenset[str] = frozenset(
    {
        "run.simulated_seconds",
        "run.gteps",
    }
)

#: Gauges emitted by the cluster tier (``repro.serve.cluster``).
CLUSTER_GAUGES: frozenset[str] = frozenset(
    {
        "cluster.cache_hit_ratio",
        "cluster.throttle_level",
        "cluster.concurrency_limit",
        "cluster.replica_occupancy_mean",
        "cluster.latency_p50",
        "cluster.latency_p95",
        "cluster.latency_p99",
        "cluster.throughput_qps",
        "cluster.speedup_vs_baseline",
    }
)

#: Gauges emitted by the self-tuning subsystem (``repro.tune``).
TUNE_GAUGES: frozenset[str] = frozenset(
    {
        "tune.best_speedup",
    }
)

#: Gauges mirroring a pipelined cluster run's stream-device outcome
#: (``repro.serve.cluster.publish_cluster_gauges``).
PIPELINE_GAUGES: frozenset[str] = frozenset(
    {
        "pipeline.busy_seconds",
        "pipeline.overlap_saved_seconds",
        "pipeline.inflight_peak",
        "pipeline.speedup_vs_serial",
    }
)

#: All statically-known gauge names.
GAUGES: frozenset[str] = (
    RUN_GAUGES | CLUSTER_GAUGES | TUNE_GAUGES | PIPELINE_GAUGES
)

#: All statically-known span names.
SPANS: frozenset[str] = frozenset(
    {
        "run",
        "iteration",
        "kernel",
        "ooc.run",
        "multigpu.run",
        "cluster.run",
        "tune.search",
        "pipeline.batch",
        "incremental.update",
    }
)

#: ``fold_profiler``'s counters: ``gpusim.<field>`` per profiler field.
GPUSIM_COUNTERS: frozenset[str] = frozenset(
    f"gpusim.{field}" for field in PROFILER_COUNTER_FIELDS
)

#: ``fold_profiler``'s derived gauges.
GPUSIM_GAUGES: frozenset[str] = frozenset(
    f"gpusim.{field}" for field in PROFILER_GAUGE_FIELDS
)

_MERGE_NAMESPACE = re.compile(r"^gpu\d+\.")


def _strip_merge_namespace(name: str) -> str:
    """Drop one ``gpu<N>.`` namespace prepended by registry merges."""
    return _MERGE_NAMESPACE.sub("", name, count=1)


def is_counter(name: str) -> bool:
    """Whether ``name`` is a registered counter (static or dynamic)."""
    name = _strip_merge_namespace(name)
    return name in COUNTERS or name in GPUSIM_COUNTERS


def is_gauge(name: str) -> bool:
    """Whether ``name`` is a registered gauge (static or dynamic)."""
    name = _strip_merge_namespace(name)
    return name in GAUGES or name in GPUSIM_GAUGES


def is_span(name: str) -> bool:
    """Whether ``name`` is a registered span name."""
    return name in SPANS


def is_metric(name: str) -> bool:
    """Whether ``name`` is a registered counter or gauge."""
    return is_counter(name) or is_gauge(name)


def registered_names() -> dict[str, frozenset[str]]:
    """The full static registry, keyed by kind (for reports and tests)."""
    return {"counters": COUNTERS, "gauges": GAUGES, "spans": SPANS}
