"""Batched traversal query service.

The serving layer of the reproduction: typed query requests,
micro-batching that coalesces compatible queries into MS-BFS-style
batched kernels, seeded load generators, and the cluster tier — sharded
replicas behind pluggable routing, adaptive admission control and a
graph-epoch-versioned result cache.  One event loop serves every query.
:func:`simulate_cluster_open_loop` replays a whole trace in virtual time
(every benchmark; the single broker is its :data:`SINGLE_BROKER`
configuration), and :class:`ServingHandle` plays the same loop for
callers on a clock (:func:`repro.api.serve` / :func:`repro.api.cluster`).
This package starts no thread.  See the README "Serving"/"Scaling out"
sections for the API tour and DESIGN.md for why micro-batching
preserves the cost model's comparisons.
"""

from repro.serve.admission import (
    AdaptiveConcurrencyLimiter,
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
    TokenBucket,
)
from repro.serve.batching import batch_key
from repro.serve.cache import (
    GraphStore,
    ResultCache,
    graph_fingerprint,
    result_cache_key,
)
from repro.serve.cluster import (
    EVENT_COMPLETION,
    EVENT_FLUSH,
    EVENT_UPDATE,
    MAX_RETRIES,
    ROUTING_POLICIES,
    SINGLE_BROKER,
    ClusterBenchReport,
    Clock,
    ManualClock,
    PendingQuery,
    Router,
    ServingHandle,
    WallClock,
    event_order,
    publish_cluster_gauges,
    simulate_cluster_open_loop,
)
from repro.serve.executor import (
    BatchExecution,
    BatchExecutor,
    make_single_app,
    run_direct,
)
from repro.serve.pipelined import PipelineConfig, ReplicaPipeline
from repro.serve.loadgen import (
    DEFAULT_MIX,
    DEFAULT_PARAMS,
    SAMPLING_MIX,
    generate_queries,
    open_loop_arrivals,
    sequential_baseline,
    skew_sources,
)
from repro.serve.request import (
    SAMPLING_APPS,
    SERVE_APPS,
    SOURCE_APPS,
    QueryRequest,
    QueryResponse,
    QueryStatus,
    normalize_params,
    raise_for_status,
)

__all__ = [
    "AdaptiveConcurrencyLimiter",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "BatchExecution",
    "BatchExecutor",
    "Clock",
    "ClusterBenchReport",
    "DEFAULT_MIX",
    "DEFAULT_PARAMS",
    "EVENT_COMPLETION",
    "EVENT_FLUSH",
    "EVENT_UPDATE",
    "GraphStore",
    "MAX_RETRIES",
    "ManualClock",
    "PendingQuery",
    "PipelineConfig",
    "QueryRequest",
    "QueryResponse",
    "QueryStatus",
    "ROUTING_POLICIES",
    "ReplicaPipeline",
    "ResultCache",
    "Router",
    "SAMPLING_APPS",
    "SAMPLING_MIX",
    "SERVE_APPS",
    "SINGLE_BROKER",
    "SOURCE_APPS",
    "ServingHandle",
    "TokenBucket",
    "WallClock",
    "batch_key",
    "event_order",
    "generate_queries",
    "graph_fingerprint",
    "make_single_app",
    "normalize_params",
    "open_loop_arrivals",
    "publish_cluster_gauges",
    "raise_for_status",
    "result_cache_key",
    "run_direct",
    "sequential_baseline",
    "simulate_cluster_open_loop",
    "skew_sources",
]
