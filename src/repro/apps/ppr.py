"""Personalized PageRank (random walk with restart at a source).

The authors' earlier system computes personalized PageRank on dynamic
graphs (paper reference [14], Guo et al., VLDB'17); the primitive drops
straight into this pipeline: identical to global PageRank except the
teleport (and dangling) mass returns to the *source* instead of being
spread uniformly, so scores measure proximity to the source node.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import App
from repro.apps.pagerank import rank_scatter
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph


class PersonalizedPageRankApp(App):
    """Power iteration of random walk with restart."""

    name = "ppr"
    uses_atomics = True
    value_access_factor = 1.5
    edge_compute_factor = 1.5

    def __init__(
        self,
        damping: float = 0.85,
        max_iterations: int = 50,
        tolerance: float = 1e-10,
    ) -> None:
        super().__init__()
        if not 0.0 < damping < 1.0:
            raise InvalidParameterError("damping must be in (0, 1)")
        self.damping = damping
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.scores: np.ndarray | None = None
        self._next: np.ndarray | None = None
        self._out_degrees: np.ndarray | None = None
        self._dangling: np.ndarray | None = None
        self._source: int | None = None
        self._iteration = 0
        self._all_nodes: np.ndarray | None = None

    def setup(self, graph: CSRGraph, source: int | None = None) -> None:
        if source is None:
            raise InvalidParameterError("PPR requires a source node")
        if not 0 <= source < graph.num_nodes:
            raise InvalidParameterError(f"source {source} out of range")
        self.graph = graph
        self._source = int(source)
        n = graph.num_nodes
        self.scores = np.zeros(n, dtype=np.float64)
        self.scores[source] = 1.0
        self._next = np.zeros(n, dtype=np.float64)
        self._out_degrees = graph.out_degrees().astype(np.float64)
        self._dangling = np.flatnonzero(self._out_degrees == 0)
        self._iteration = 0
        self._all_nodes = np.arange(n, dtype=np.int64)

    def initial_frontier(self) -> np.ndarray:
        assert self._all_nodes is not None
        return self._all_nodes

    def process_level(
        self,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_pos: np.ndarray | None = None,
    ) -> np.ndarray:
        assert self.scores is not None and self._next is not None
        assert self._out_degrees is not None and self._source is not None
        assert self._all_nodes is not None and self._dangling is not None
        rank_scatter(
            self._next, self.scores, self._out_degrees, self.damping,
            edge_src, edge_dst,
        )
        # restart: the teleport share and all dangling mass return home
        dangling = self.scores[self._dangling].sum()
        self._next[self._source] += (
            (1.0 - self.damping) + self.damping * dangling
        )
        delta = float(np.abs(self._next - self.scores).sum())
        self.scores, self._next = self._next, self.scores
        self._iteration += 1
        if delta < self.tolerance or self._iteration >= self.max_iterations:
            return np.empty(0, dtype=np.int64)
        return self._all_nodes

    def result(self) -> dict[str, np.ndarray]:
        assert self.scores is not None
        return {"ppr": self.scores}

    def remap_nodes(self, perm: np.ndarray) -> None:
        super().remap_nodes(perm)
        if self._source is not None:
            self._source = int(perm[self._source])
        if self._out_degrees is not None:
            # ascending new ids, the order a boolean mask sums in
            self._dangling = np.flatnonzero(self._out_degrees == 0)
