"""Single-Source Shortest Paths (frontier Bellman-Ford).

The "Shortest Path: iteratively update neighbors' distances" primitive
from the paper's pipeline list (Section 4).  Edge weights are supplied by
the caller as an array aligned with ``graph.targets``; when omitted,
deterministic pseudo-random integer weights in ``[1, 8]`` are derived
from the edge endpoints (CSR stores no weights, and the evaluation only
needs a weighted workload, not specific weights).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import App, relax
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph, graph_memo

INF = np.iinfo(np.int64).max // 4

#: Synthetic edge weights lie in ``[1, MAX_WEIGHT]``.
MAX_WEIGHT = 8


def pair_weights(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Deterministic positive weight of each ``(src, dst)`` pair.

    A pure hash of the endpoint ids, so the same pair always weighs the
    same — across graph epochs, duplicate edge copies, and independent
    callers.  Incremental SSSP repair relies on this stability: the
    weight of a deleted or inserted edge can be recomputed from its
    endpoints alone.  Weights are in ``[1, MAX_WEIGHT]``.
    """
    mix = (
        np.asarray(src, dtype=np.int64) * np.int64(2654435761)
        ^ (np.asarray(dst, dtype=np.int64) + np.int64(0x9E3779B9))
    )
    return 1 + (np.abs(mix) % MAX_WEIGHT)


def synthetic_weights(graph: CSRGraph) -> np.ndarray:
    """Deterministic positive weights, one per CSR edge slot.

    :func:`pair_weights` of every edge, in ``[1, MAX_WEIGHT]``.  Built
    once per graph object and shared, so the array is read-only.
    Reordering relabels nodes and so changes the weights: SSSP runs
    either pass explicit weights or skip reordering.
    """

    def build() -> np.ndarray:
        coo = graph.to_coo()
        weights = pair_weights(coo.src, coo.dst)
        weights.flags.writeable = False
        return weights

    return graph_memo(graph, "synthetic_weights", build)[0]


class SSSPApp(App):
    """Frontier-based Bellman-Ford from one source."""

    name = "sssp"
    uses_atomics = True
    value_access_factor = 1.0
    edge_compute_factor = 1.5
    needs_edge_positions = True

    def __init__(self, weights: np.ndarray | None = None) -> None:
        super().__init__()
        self._weights_arg = weights
        self.weights: np.ndarray | None = None
        self.dist: np.ndarray | None = None
        self._source: int | None = None

    def setup(self, graph: CSRGraph, source: int | None = None) -> None:
        if source is None:
            raise InvalidParameterError("SSSP requires a source node")
        if not 0 <= source < graph.num_nodes:
            raise InvalidParameterError(f"source {source} out of range")
        self.graph = graph
        self._source = int(source)
        if self._weights_arg is not None:
            weights = np.asarray(self._weights_arg, dtype=np.int64)
            if weights.size != graph.num_edges:
                raise InvalidParameterError(
                    f"weights length {weights.size} != num_edges "
                    f"{graph.num_edges}"
                )
            if weights.size and weights.min() < 0:
                raise InvalidParameterError("weights must be non-negative")
            self.weights = weights
        else:
            self.weights = synthetic_weights(graph)
        self.dist = np.full(graph.num_nodes, INF, dtype=np.int64)
        self.dist[source] = 0

    def initial_frontier(self) -> np.ndarray:
        return np.array([self._source], dtype=np.int64)

    def process_level(
        self,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_pos: np.ndarray | None = None,
    ) -> np.ndarray:
        assert self.dist is not None and self.weights is not None
        if edge_pos is None:
            raise InvalidParameterError("SSSP needs edge positions for weights")
        return relax(self.dist, edge_dst, self.dist[edge_src] + self.weights[edge_pos])

    def result(self) -> dict[str, np.ndarray]:
        assert self.dist is not None
        return {"dist": self.dist}
