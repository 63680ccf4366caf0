"""Breadth-First Search.

Algorithm 1 (paper): a neighbor passes the filter iff its ``dist`` is
still unset; it then receives ``dist[frontier] + 1`` and joins the next
frontier.  BFS tolerates dirty writes (every concurrent writer stores the
same level), so it needs no atomics — the reason its performance profile
differs from BC/PR in Figure 7.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import App, contract
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph

UNVISITED = -1


class BFSApp(App):
    """Level-synchronous BFS from a single source."""

    name = "bfs"
    uses_atomics = False
    value_access_factor = 1.0
    # Level-synchronous BFS settles a node the first time it is reached;
    # a revisit means a non-monotone level assignment (sanitizer check).
    monotone_levels = True

    def __init__(self) -> None:
        super().__init__()
        self.dist: np.ndarray | None = None
        self._source: int | None = None
        self._level = 0

    def setup(self, graph: CSRGraph, source: int | None = None) -> None:
        if source is None:
            raise InvalidParameterError("BFS requires a source node")
        if not 0 <= source < graph.num_nodes:
            raise InvalidParameterError(f"source {source} out of range")
        self.graph = graph
        self._source = int(source)
        self._level = 0
        self.dist = np.full(graph.num_nodes, UNVISITED, dtype=np.int64)
        self.dist[source] = 0

    def initial_frontier(self) -> np.ndarray:
        return np.array([self._source], dtype=np.int64)

    def process_level(
        self,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_pos: np.ndarray | None = None,
    ) -> np.ndarray:
        assert self.dist is not None
        undiscovered = (self.dist[edge_dst] == UNVISITED).nonzero()[0]
        next_frontier = contract(edge_dst[undiscovered], self.dist.size)
        self._level += 1
        self.dist[next_frontier] = self._level
        return next_frontier

    def result(self) -> dict[str, np.ndarray]:
        assert self.dist is not None
        return {"dist": self.dist}

    def remap_nodes(self, perm: np.ndarray) -> None:
        super().remap_nodes(perm)
        if self._source is not None:
            self._source = int(perm[self._source])
