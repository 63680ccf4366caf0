"""Pull-based (gather) PageRank: the atomic-free design alternative.

Section 7.2 observes that PR's atomic aggregation makes locality a
double-edged sword.  The classic way around it is the *pull* formulation
(Gunrock, CuSha and most CPU frameworks offer it): run over the
transpose graph so each node **gathers** its in-neighbors' contributions
— one writer per node, no atomics — at the price of reading the
transpose structure.

The app runs on ``graph.reversed()`` and is self-contained: the original
out-degrees equal the transpose's in-degrees, so no side-channel state
is needed.  Results match the push PR exactly, making the pair a clean
ablation of atomics cost (see the ``ablation_push_pull`` experiment in
:mod:`repro.bench.experiments`).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import App
from repro.apps.pagerank import rank_scatter
from repro.graph.csr import CSRGraph

#: Damping factor of the ranked random walk.
DAMPING = 0.85


class PageRankPullApp(App):
    """Gather-based PageRank over the transpose graph."""

    name = "pr-pull"
    uses_atomics = False  # single writer per node
    value_access_factor = 1.5
    edge_compute_factor = 1.5

    def __init__(
        self,
        max_iterations: int = 30,
        tolerance: float = 1e-8,
    ) -> None:
        super().__init__()
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.pr: np.ndarray | None = None
        self._out_degrees: np.ndarray | None = None
        self._dangling: np.ndarray | None = None
        self._iteration = 0
        self._all_nodes: np.ndarray | None = None

    def setup(self, graph: CSRGraph, source: int | None = None) -> None:
        """``graph`` must be the transpose of the graph being ranked."""
        self.graph = graph
        n = graph.num_nodes
        self.pr = np.full(n, 1.0 / n, dtype=np.float64)
        # out-degree in the original == in-degree in the transpose
        self._out_degrees = np.bincount(
            graph.targets, minlength=n
        ).astype(np.float64)
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
        assert self.pr is not None and self._out_degrees is not None
        assert self.graph is not None and self._all_nodes is not None
        assert self._dangling is not None
        n = self.graph.num_nodes
        # transpose edge (v -> u) == original edge (u -> v): node v
        # gathers contribution pr[u] / outdeg[u].
        contributions = np.empty(n, dtype=np.float64)
        rank_scatter(
            contributions, self.pr, self._out_degrees, DAMPING,
            edge_dst, edge_src,
        )
        dangling_mass = self.pr[self._dangling].sum()
        contributions += (
            (1.0 - DAMPING) / n + DAMPING * dangling_mass / n
        )
        delta = float(np.abs(contributions - self.pr).sum())
        self.pr = contributions
        self._iteration += 1
        if delta < self.tolerance or self._iteration >= self.max_iterations:
            return np.empty(0, dtype=np.int64)
        return self._all_nodes

    def remap_nodes(self, perm: np.ndarray) -> None:
        super().remap_nodes(perm)
        if self._out_degrees is not None:
            # ascending new ids, the order a boolean mask sums in
            self._dangling = np.flatnonzero(self._out_degrees == 0)

    def result(self) -> dict[str, np.ndarray]:
        assert self.pr is not None
        return {"pagerank": self.pr}
