"""Load generation for the serving benchmarks.

The seeded generators here (:func:`generate_queries`,
:func:`skew_sources`, :func:`open_loop_arrivals`) feed every serving
tier, all of which run the deterministic virtual-time replay
(:func:`~repro.serve.cluster.simulate_cluster_open_loop`; the single
broker is its :data:`~repro.serve.cluster.SINGLE_BROKER`
configuration).

Open-loop speedups are measured against the **sequential baseline**
(:func:`sequential_baseline`): the sum of one-query-at-a-time
:func:`~repro.serve.executor.run_direct` oracle runs over the identical
query list.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.scheduler import Scheduler
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.serve.executor import run_direct
from repro.serve.request import SOURCE_APPS, QueryRequest, QueryResponse

if TYPE_CHECKING:  # pragma: no cover - imported where used
    from repro.analysis.sanitizer import Sanitizer

#: Default per-app parameter presets used by the query generator.
DEFAULT_PARAMS: dict[str, dict[str, Any]] = {
    "bfs": {},
    "sssp": {},
    "pr": {"max_iterations": 10},
    "ppr": {"max_iterations": 10},
    "walk": {"num_walks": 4, "walk_length": 8, "seed": 7},
    "node2vec": {
        "num_walks": 4, "walk_length": 8, "seed": 7, "p": 2.0, "q": 0.5,
    },
    "khop": {"fanouts": (4, 3), "seed": 7},
    "sppr": {"num_walks": 256, "max_steps": 32, "damping": 0.85, "seed": 7},
}

#: Default app mix of the serving benchmark (BFS-heavy, as a traversal
#: service would be; PR rides along to exercise shared-run batching).
DEFAULT_MIX: dict[str, float] = {"bfs": 0.8, "pr": 0.1, "sssp": 0.1}

#: Sampling-service mix (GNN/embedding traffic): mostly walks, some
#: second-order node2vec, GNN k-hop mini-batches, and Monte Carlo PPR.
SAMPLING_MIX: dict[str, float] = {
    "walk": 0.5, "node2vec": 0.2, "khop": 0.2, "sppr": 0.1,
}


def generate_queries(
    graph_name: str,
    num_nodes: int,
    num_queries: int,
    *,
    mix: Mapping[str, float] | None = None,
    deadline_seconds: float | None = None,
    seed: int = 0,
) -> list[QueryRequest]:
    """A seeded random query mix over one graph handle, each kind with
    its :data:`DEFAULT_PARAMS`."""
    if num_queries < 1:
        raise InvalidParameterError("num_queries must be >= 1")
    mix = dict(mix if mix is not None else DEFAULT_MIX)
    kinds = sorted(mix)
    weights = np.array([mix[k] for k in kinds], dtype=np.float64)
    if weights.min() < 0 or weights.sum() <= 0:
        raise InvalidParameterError(f"invalid app mix {mix}")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(kinds), size=num_queries, p=weights / weights.sum())
    sources = rng.integers(0, num_nodes, size=num_queries)
    requests = []
    for kind_idx, source in zip(chosen.tolist(), sources.tolist()):
        kind = kinds[kind_idx]
        requests.append(
            QueryRequest(
                app=kind,
                graph=graph_name,
                source=int(source) if kind in SOURCE_APPS else None,
                params=tuple(sorted(DEFAULT_PARAMS.get(kind, {}).items())),
                deadline_seconds=deadline_seconds,
            )
        )
    return requests


def skew_sources(
    requests: list[QueryRequest],
    *,
    hot_set_size: int,
    hot_fraction: float,
    num_nodes: int,
    seed: int = 0,
) -> list[QueryRequest]:
    """Remap query sources onto a hot set (serving traffic is skewed).

    With probability ``hot_fraction`` a source-bearing query is redrawn
    from a fixed ``hot_set_size``-node hot set; otherwise it keeps its
    original (uniform) source.  This is the workload shape that makes a
    result cache earn its keep — repeated hot keys across the whole run,
    not just within one batching window.
    """
    if hot_set_size < 1:
        raise InvalidParameterError("hot_set_size must be >= 1")
    if not 0.0 <= hot_fraction <= 1.0:
        raise InvalidParameterError("hot_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    hot_set = rng.choice(num_nodes, size=min(hot_set_size, num_nodes),
                         replace=False)
    skewed: list[QueryRequest] = []
    for request in requests:
        if request.source is None:
            skewed.append(request)
            continue
        source = request.source
        if rng.random() < hot_fraction:
            source = int(rng.choice(hot_set))
        skewed.append(
            QueryRequest(
                app=request.app,
                graph=request.graph,
                source=source,
                params=request.params,
                deadline_seconds=request.deadline_seconds,
            )
        )
    return skewed


def open_loop_arrivals(
    num_queries: int, rate_qps: float, *, seed: int = 0
) -> np.ndarray:
    """Seeded Poisson arrival times (seconds), anchored at t=0."""
    if not rate_qps > 0:  # also rejects NaN
        raise InvalidParameterError("rate_qps must be > 0")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(scale=1.0 / rate_qps, size=num_queries)
    arrivals = np.cumsum(gaps)
    return arrivals - arrivals[0]


def sequential_baseline(
    graph: CSRGraph,
    requests: list[QueryRequest],
    scheduler_factory: Callable[[], Scheduler],
    *,
    sanitizer: Sanitizer | None = None,
) -> float:
    """Total simulated seconds of one-query-at-a-time oracle service.

    A ``sanitizer`` audits every oracle run; its findings and counters
    accumulate over the whole query list.
    """
    return sum(
        run_direct(
            graph, request, scheduler_factory, sanitizer=sanitizer
        ).seconds
        for request in requests
    )


def summarize_responses(
    responses: list[QueryResponse],
) -> tuple[dict[str, int], float, float, float]:
    """Status counts and latency p50/p95/p99 of one run's responses."""
    counts: dict[str, int] = {}
    for response in responses:
        counts[response.status.value] = counts.get(
            response.status.value, 0
        ) + 1
    if not responses:
        return counts, 0.0, 0.0, 0.0
    p50, p95, p99 = np.percentile(
        [r.latency_seconds for r in responses], [50, 95, 99]
    )
    return counts, float(p50), float(p95), float(p99)
