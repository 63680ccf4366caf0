"""Label Propagation (community detection primitive).

The paper lists "Label Propagation: identify the label majority among all
neighbors of a frontier" among its pipeline-supported primitives
(Section 4).  Semi-synchronous variant: each iteration, every node with
in-edges adopts the most frequent label among its in-neighbors (smallest
label wins ties, making the algorithm deterministic); iteration stops at
a fixpoint or a round budget.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import App
from repro.graph.csr import CSRGraph

#: Label-update rounds before LPA stops short of a fixpoint.
MAX_ITERATIONS = 20


class LabelPropagationApp(App):
    """Deterministic semi-synchronous LPA."""

    name = "lp"
    uses_atomics = True
    value_access_factor = 1.5
    edge_compute_factor = 2.0

    def __init__(self) -> None:
        super().__init__()
        self.labels: np.ndarray | None = None
        self._iteration = 0
        self._all_nodes: np.ndarray | None = None

    def setup(self, graph: CSRGraph, source: int | None = None) -> None:
        self.graph = graph
        self.labels = np.arange(graph.num_nodes, dtype=np.int64)
        self._iteration = 0
        self._all_nodes = np.arange(graph.num_nodes, dtype=np.int64)

    def initial_frontier(self) -> np.ndarray:
        assert self._all_nodes is not None
        return self._all_nodes

    def process_level(
        self,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_pos: np.ndarray | None = None,
    ) -> np.ndarray:
        assert self.labels is not None and self._all_nodes is not None
        new_labels = self._majority_labels(edge_src, edge_dst)
        changed = bool(np.any(new_labels != self.labels))
        self.labels = new_labels
        self._iteration += 1
        if not changed or self._iteration >= MAX_ITERATIONS:
            return np.empty(0, dtype=np.int64)
        return self._all_nodes

    def _majority_labels(
        self, edge_src: np.ndarray, edge_dst: np.ndarray
    ) -> np.ndarray:
        """Majority label of in-neighbors per dst, vectorized.

        Sort edges by (dst, neighbor label); count run lengths; for each
        dst keep the run with the highest count, breaking ties toward the
        smaller label (runs for one dst arrive label-ascending, and a
        strict ``>`` keeps the first maximum).
        """
        assert self.labels is not None and self.graph is not None
        labels = self.labels
        new_labels = labels.copy()
        if edge_dst.size == 0:
            return new_labels
        src_labels = labels[edge_src]
        order = np.lexsort((src_labels, edge_dst))
        d = edge_dst[order]
        lab = src_labels[order]
        run_start = np.ones(d.size, dtype=bool)
        run_start[1:] = (d[1:] != d[:-1]) | (lab[1:] != lab[:-1])
        run_idx = np.flatnonzero(run_start)
        run_len = np.diff(np.append(run_idx, d.size))
        run_dst = d[run_idx]
        run_lab = lab[run_idx]
        best_count = np.zeros(self.graph.num_nodes, dtype=np.int64)
        # First pass: maximum run length per dst.
        np.maximum.at(best_count, run_dst, run_len)
        # Second pass: smallest label achieving the maximum.
        is_best = run_len == best_count[run_dst]
        winner = np.full(self.graph.num_nodes, np.iinfo(np.int64).max)
        np.minimum.at(winner, run_dst[is_best], run_lab[is_best])
        has_in = best_count > 0
        new_labels[has_in] = winner[has_in]
        return new_labels

    def result(self) -> dict[str, np.ndarray]:
        assert self.labels is not None
        return {"labels": self.labels}
