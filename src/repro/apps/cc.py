"""Connected Components via minimum-label propagation.

One of the extra primitives the paper lists for its pipeline (Section 4):
components merge by propagating the smallest reachable label along edges
until a fixpoint.  On a symmetric (undirected) graph this converges to
the weakly-connected components; on a directed graph it computes the
minimum label reachable *from* each node's ancestors, so callers wanting
WCC should pass a symmetrized graph.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import App, relax
from repro.graph.csr import CSRGraph


class ConnectedComponentsApp(App):
    """Min-label propagation connected components."""

    name = "cc"
    uses_atomics = True
    value_access_factor = 1.0
    edge_compute_factor = 1.2

    def __init__(self) -> None:
        super().__init__()
        self.component: np.ndarray | None = None

    def setup(self, graph: CSRGraph, source: int | None = None) -> None:
        self.graph = graph
        self.component = np.arange(graph.num_nodes, dtype=np.int64)

    def initial_frontier(self) -> np.ndarray:
        assert self.graph is not None
        return np.arange(self.graph.num_nodes, dtype=np.int64)

    def process_level(
        self,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_pos: np.ndarray | None = None,
    ) -> np.ndarray:
        assert self.component is not None
        return relax(self.component, edge_dst, self.component[edge_src])

    def result(self) -> dict[str, np.ndarray]:
        assert self.component is not None
        return {"component": self.component}
