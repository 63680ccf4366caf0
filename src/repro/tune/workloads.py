"""Named tuning workloads: the (graph, traffic) pairs the tuner optimizes.

A :class:`TuningWorkload` bundles everything the evaluator needs to
replay a deterministic serving trace: a seeded graph, a seeded query
mix with Poisson arrivals, and a handful of BFS roots for the hybrid
direction-optimization leg of the cost.  The two built-in workloads
cover the bench's two graph *categories* — a scale-free R-MAT (skewed
degrees, shallow BFS) and a road/mesh-like 2-D grid (uniform low
degree, deep BFS) — scaled so a small-budget CI search finishes in
seconds while still separating good configurations from bad ones.

Workloads are identified by name inside tuned-profile files, so a
profile records *which* traffic it was tuned for and the CI `tune` job
can regenerate it from the name alone.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_2d, rmat
from repro.serve.loadgen import generate_queries, open_loop_arrivals
from repro.serve.request import QueryRequest


@dataclass(frozen=True)
class TuningWorkload:
    """One reproducible (graph, traffic) pair.

    ``graph_factory`` must be deterministic: the evaluator and the
    profile-verification CI job both rebuild the graph from it and rely
    on identical fingerprints.
    """

    name: str
    category: str
    graph_factory: Callable[[], CSRGraph]
    num_queries: int = 48
    rate_qps: float = 400.0
    seed: int = 0
    hybrid_sources: tuple[int, ...] = (0, 1, 2)
    mix: dict[str, float] = field(
        default_factory=lambda: {"bfs": 0.7, "pr": 0.1, "sssp": 0.2}
    )

    def build_graph(self) -> CSRGraph:
        return self.graph_factory()

    def build_queries(self, graph: CSRGraph) -> list[QueryRequest]:
        return generate_queries(
            self.name,
            graph.num_nodes,
            self.num_queries,
            mix=self.mix,
            seed=self.seed,
        )

    def build_arrivals(self) -> np.ndarray:
        return open_loop_arrivals(
            self.num_queries, self.rate_qps, seed=self.seed
        )


def _rmat_small() -> CSRGraph:
    # Scale-free category stand-in: 1024 nodes, ~8k edges, heavy-tailed.
    return rmat(10, edge_factor=8, seed=1234)


def _road_small() -> CSRGraph:
    # Road/mesh category stand-in: 1600 nodes, uniform degree <= 4.
    return grid_2d(40, 40)


#: The workloads the committed profiles and the bench tier tune over.
BENCH_WORKLOADS: tuple[TuningWorkload, ...] = (
    TuningWorkload(
        name="rmat_small",
        category="rmat",
        graph_factory=_rmat_small,
        hybrid_sources=(0, 7, 42),
    ),
    TuningWorkload(
        name="road_small",
        category="road",
        graph_factory=_road_small,
        hybrid_sources=(0, 820, 1599),
    ),
)


def get_workload(name: str) -> TuningWorkload:
    for workload in BENCH_WORKLOADS:
        if workload.name == name:
            return workload
    known = [w.name for w in BENCH_WORKLOADS]
    raise InvalidParameterError(
        f"unknown tuning workload {name!r}; expected one of {known}"
    )
