"""PageRank.

The paper's PR filter (Algorithm 1) atomically adds
``0.85 * pr_in[frontier] / outdegree(frontier)`` to every neighbor.  PR is
a *global* traversal: the frontier of every iteration is the entire node
set (Section 7.2), which makes its workload regular compared to BFS/BC.

Dangling nodes (out-degree 0) redistribute their mass uniformly, matching
the convention of ``networkx.pagerank`` so results validate exactly.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import App
from repro.graph.csr import CSRGraph


def rank_scatter(
    pr_out: np.ndarray,
    pr_in: np.ndarray,
    out_degrees: np.ndarray,
    damping: float,
    edge_src: np.ndarray,
    edge_dst: np.ndarray,
) -> None:
    """The PR filter: set ``pr_out[v]`` to the sum of
    ``damping * pr_in[u] / outdegree(u)`` over the level's edges ``u -> v``.

    Each node's share is computed once and gathered per edge.  Dangling
    nodes' shares divide by zero but own no edges, so none is gathered.
    ``np.add.at`` adds each bin's edges in edge order, starting from the
    zero written in place, so the sums are bit-identical to
    :func:`rank_scatter_reference`.  Personalized PageRank scatters with
    it as is, and pull PageRank with the transpose's edge arrays swapped.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        share = damping * pr_in / out_degrees
    pr_out[:] = 0.0
    np.add.at(pr_out, edge_dst, share[edge_src])


def rank_scatter_reference(
    pr_out: np.ndarray,
    pr_in: np.ndarray,
    out_degrees: np.ndarray,
    damping: float,
    edge_src: np.ndarray,
    edge_dst: np.ndarray,
) -> None:
    """:func:`rank_scatter` dividing once per edge instead of once per
    node, kept as the equivalence-test reference."""
    pr_out[:] = 0.0
    contributions = damping * pr_in[edge_src] / out_degrees[edge_src]
    np.add.at(pr_out, edge_dst, contributions)


class PageRankApp(App):
    """Power-iteration PageRank over the traversal pipeline."""

    name = "pr"
    uses_atomics = True
    value_access_factor = 1.5
    edge_compute_factor = 1.5

    def __init__(
        self,
        damping: float = 0.85,
        max_iterations: int = 30,
        tolerance: float = 1e-8,
    ) -> None:
        super().__init__()
        self.damping = damping
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.pr_in: np.ndarray | None = None
        self.pr_out: np.ndarray | None = None
        self._out_degrees: np.ndarray | None = None
        self._iteration = 0
        self._all_nodes: np.ndarray | None = None
        self._dangling: np.ndarray | None = None

    def setup(self, graph: CSRGraph, source: int | None = None) -> None:
        self.graph = graph
        n = graph.num_nodes
        self.pr_in = np.full(n, 1.0 / n, dtype=np.float64)
        self.pr_out = np.zeros(n, dtype=np.float64)
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
        assert self.pr_in is not None and self.pr_out is not None
        assert self._out_degrees is not None and self._all_nodes is not None
        assert self._dangling is not None and self.graph is not None
        n = self.graph.num_nodes
        rank_scatter(
            self.pr_out, self.pr_in, self._out_degrees, self.damping,
            edge_src, edge_dst,
        )
        dangling_mass = self.pr_in[self._dangling].sum()
        self.pr_out += (
            (1.0 - self.damping) / n + self.damping * dangling_mass / n
        )
        delta = float(np.abs(self.pr_out - self.pr_in).sum())
        self.pr_in, self.pr_out = self.pr_out, self.pr_in
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
        assert self.pr_in is not None
        return {"pagerank": self.pr_in}
