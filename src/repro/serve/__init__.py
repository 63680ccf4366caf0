"""Asynchronous batched traversal query service.

The serving layer of the reproduction: typed query requests,
micro-batching that coalesces compatible queries into MS-BFS-style
batched kernels, a bounded-queue broker with a worker pool over the
simulated multi-GPU runtime, seeded load generators, and the cluster
tier — sharded replicas behind pluggable routing, adaptive admission
control and a graph-epoch-versioned result cache.  One virtual-time
replay (:func:`simulate_cluster_open_loop`) serves every open-loop
benchmark; the single broker is its :data:`SINGLE_BROKER` configuration.
The replay and the threaded broker share one batching policy
(:mod:`repro.serve.batching`); only the clock that drives it differs.
See the README "Serving"/"Scaling out" sections for the API tour and
DESIGN.md for why micro-batching preserves the cost model's
comparisons.
"""

from repro.serve.admission import (
    AdaptiveConcurrencyLimiter,
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
    TokenBucket,
)
from repro.serve.batching import batch_key
from repro.serve.broker import (
    BrokerStats,
    PendingQuery,
    QueryBroker,
    raise_for_status,
)
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
    ROUTING_POLICIES,
    SINGLE_BROKER,
    ClusterBenchReport,
    ClusterPool,
    Router,
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
    ServeBenchReport,
    generate_queries,
    open_loop_arrivals,
    publish_report_gauges,
    run_closed_loop,
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
)

__all__ = [
    "AdaptiveConcurrencyLimiter",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "BatchExecution",
    "BatchExecutor",
    "BrokerStats",
    "ClusterBenchReport",
    "ClusterPool",
    "DEFAULT_MIX",
    "DEFAULT_PARAMS",
    "EVENT_COMPLETION",
    "EVENT_FLUSH",
    "EVENT_UPDATE",
    "GraphStore",
    "PendingQuery",
    "PipelineConfig",
    "QueryBroker",
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
    "ServeBenchReport",
    "TokenBucket",
    "batch_key",
    "event_order",
    "generate_queries",
    "graph_fingerprint",
    "make_single_app",
    "normalize_params",
    "open_loop_arrivals",
    "publish_cluster_gauges",
    "publish_report_gauges",
    "raise_for_status",
    "result_cache_key",
    "run_closed_loop",
    "run_direct",
    "sequential_baseline",
    "simulate_cluster_open_loop",
    "skew_sources",
]
