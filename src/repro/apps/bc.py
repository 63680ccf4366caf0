"""Betweenness Centrality (Brandes), single source.

The paper implements BC as two traversal phases over the same pipeline
(Algorithm 1): a forward BFS that counts shortest paths (``sigma``,
accumulated with atomics) and a backward sweep over the BFS DAG that
accumulates dependencies (``delta``).  Both phases run through
:meth:`process_level`; the app switches phase when the forward frontier
drains.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import App, contract
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph

UNVISITED = -1


class BCApp(App):
    """Single-source betweenness (dependency) computation.

    ``result()["delta"]`` holds the Brandes dependency of the source on
    every node; summing it over all sources — excluding each run's own
    source, per Brandes — gives unnormalized betweenness centrality.
    """

    name = "bc"
    uses_atomics = True
    # forward reads dist + accumulates sigma; backward reads sigma/delta.
    value_access_factor = 2.0
    edge_compute_factor = 2.0

    def __init__(self) -> None:
        super().__init__()
        self.dist: np.ndarray | None = None
        self.sigma: np.ndarray | None = None
        self.delta: np.ndarray | None = None
        self._source: int | None = None
        self._level = 0
        self._phase = "forward"
        self._levels: list[np.ndarray] = []
        self._back_index = 0

    def setup(self, graph: CSRGraph, source: int | None = None) -> None:
        if source is None:
            raise InvalidParameterError("BC requires a source node")
        if not 0 <= source < graph.num_nodes:
            raise InvalidParameterError(f"source {source} out of range")
        self.graph = graph
        self._source = int(source)
        self._level = 0
        self._phase = "forward"
        self._back_index = 0
        n = graph.num_nodes
        self.dist = np.full(n, UNVISITED, dtype=np.int64)
        self.sigma = np.zeros(n, dtype=np.float64)
        self.delta = np.zeros(n, dtype=np.float64)
        self.dist[source] = 0
        self.sigma[source] = 1.0
        self._levels = [np.array([source], dtype=np.int64)]

    def initial_frontier(self) -> np.ndarray:
        return self._levels[0]

    def process_level(
        self,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_pos: np.ndarray | None = None,
    ) -> np.ndarray:
        if self._phase == "forward":
            return self._forward(edge_src, edge_dst)
        return self._backward(edge_src, edge_dst)

    def _forward(self, edge_src: np.ndarray, edge_dst: np.ndarray) -> np.ndarray:
        assert self.dist is not None and self.sigma is not None
        # Discovery (the atomicCAS of Algorithm 1): neighbors still
        # unvisited get dist = level + 1 and enter the next frontier.
        undiscovered = np.flatnonzero(self.dist[edge_dst] == UNVISITED)
        next_frontier = contract(edge_dst[undiscovered])
        self._level += 1
        self.dist[next_frontier] = self._level
        # Path counting (the atomicAdd): every DAG edge into the next
        # level contributes sigma[parent].
        dag_edge = np.flatnonzero(self.dist[edge_dst] == self._level)
        np.add.at(self.sigma, edge_dst[dag_edge], self.sigma[edge_src[dag_edge]])
        if next_frontier.size:
            self._levels.append(next_frontier)
            return next_frontier
        return self._start_backward()

    def _start_backward(self) -> np.ndarray:
        self._phase = "backward"
        # Deepest level has no children to accumulate from; start one up.
        self._back_index = len(self._levels) - 2
        if self._back_index < 0:
            return np.empty(0, dtype=np.int64)
        return self._levels[self._back_index]

    def _backward(self, edge_src: np.ndarray, edge_dst: np.ndarray) -> np.ndarray:
        assert self.dist is not None and self.sigma is not None
        assert self.delta is not None
        dag_edge = np.flatnonzero(self.dist[edge_dst] == self.dist[edge_src] + 1)
        src = edge_src[dag_edge]
        dst = edge_dst[dag_edge]
        increments = self.sigma[src] / self.sigma[dst] * (1.0 + self.delta[dst])
        np.add.at(self.delta, src, increments)
        self._back_index -= 1
        if self._back_index < 0:
            return np.empty(0, dtype=np.int64)
        return self._levels[self._back_index]

    def result(self) -> dict[str, np.ndarray]:
        assert self.dist is not None and self.sigma is not None
        assert self.delta is not None
        return {"dist": self.dist, "sigma": self.sigma, "delta": self.delta}

    def remap_nodes(self, perm: np.ndarray) -> None:
        super().remap_nodes(perm)
        if self._source is not None:
            self._source = int(perm[self._source])
        self._levels = [perm[level] for level in self._levels]
