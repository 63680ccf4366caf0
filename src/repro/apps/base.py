"""Application contract for the expansion-filtering-contraction pipeline.

The paper's framework (Section 4, Algorithm 1) asks developers to
implement only the ``filter(frontier, neighbor)`` step; expansion and
contraction are generic.  Here the same contract appears in vectorized
form: an :class:`App` receives the full edge batch of the current
iteration (``edge_src[i] -> edge_dst[i]``) and returns the next frontier.

Apps are *semantically* independent of the scheduler: every scheduling
strategy traverses the same edges, so results are identical across
SAGE and all baselines (asserted by the integration tests).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.graph.csr import CSRGraph


class App(ABC):
    """One node-centric graph application.

    Lifecycle: construct -> :meth:`setup` -> repeatedly
    :meth:`process_level` with the expanded edges of the frontier it last
    returned, until it returns an empty frontier.
    """

    #: short name used in reports ("bfs", "bc", "pr", ...)
    name: str = "app"
    #: whether the filter relies on atomic aggregation (Section 7.2:
    #: BC and PR do, BFS tolerates dirty writes).
    uses_atomics: bool = False
    #: scattered value-array accesses per traversed edge (cost model).
    value_access_factor: float = 1.0
    #: relative per-edge instruction cost of the filter (cost model).
    edge_compute_factor: float = 1.0
    #: whether process_level needs CSR edge positions (e.g. edge weights).
    needs_edge_positions: bool = False
    #: whether frontiers are deduplicated (the :func:`contract` default);
    #: the sanitizer flags duplicate ids when claimed.
    frontier_unique: bool = True
    #: whether a settled node may never re-enter a later frontier (BFS's
    #: level monotonicity); checked by the sanitizer when True.
    monotone_levels: bool = False

    def __init__(self) -> None:
        self.graph: CSRGraph | None = None

    @abstractmethod
    def setup(self, graph: CSRGraph, source: int | None = None) -> None:
        """Allocate state for ``graph`` (and ``source`` if used)."""

    @abstractmethod
    def initial_frontier(self) -> np.ndarray:
        """Frontier of the first iteration."""

    @abstractmethod
    def process_level(
        self,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_pos: np.ndarray | None = None,
    ) -> np.ndarray:
        """Apply the filter to one expanded edge batch.

        The batch is input only.  A full level's arrays (every node in
        id order, as in each PageRank iteration) are read-only and
        shared by every full level of the run, so writing into them
        raises ``ValueError``.

        Args:
            edge_src: frontier node of each edge.
            edge_dst: neighbor of each edge.
            edge_pos: positions of the edges in ``graph.targets`` (only
                when ``needs_edge_positions``).

        Returns:
            The contracted next frontier (unique node ids); empty when
            the application has converged.
        """

    @abstractmethod
    def result(self) -> dict[str, np.ndarray]:
        """Converged outputs, e.g. ``{"dist": ...}``."""

    # ------------------------------------------------------------------
    # Hooks used by SAGE's self-adaptive machinery
    # ------------------------------------------------------------------

    def remap_nodes(self, perm: np.ndarray) -> None:
        """Relabel all node-indexed state after a reordering commit.

        ``perm`` maps old ids to new ids.  The default permutes every
        1-D array of length ``num_nodes`` found in ``self.__dict__``
        (value at old index lands at the new index) and remaps stored
        frontier arrays — subclasses with richer state override this.
        """
        if self.graph is None:
            return
        n = self.graph.num_nodes
        for key, val in list(self.__dict__.items()):
            if isinstance(val, np.ndarray) and val.ndim == 1 and val.size == n:
                remapped = np.empty_like(val)
                remapped[perm] = val
                setattr(self, key, remapped)


#: Share of |V| above which :func:`contract` dedupes with a node mask
#: instead of a sort.  Measured at |V| = 32768: the two break even near
#: |V| / 8 candidates, and at |V| candidates the mask is ~6x faster.
DENSE_CONTRACT_SHARE = 1 / 8


def contract(candidates: np.ndarray, num_nodes: int | None = None) -> np.ndarray:
    """Contraction step: dedupe and sort a candidate frontier.

    Same result as ``np.unique`` (sorted, input dtype), but a sort plus an
    adjacent-difference mask, which beats numpy's hash-based unique on
    frontier-sized integer arrays.  Given ``num_nodes``, a batch of more
    than ``DENSE_CONTRACT_SHARE * num_nodes`` candidates is deduped by
    marking a boolean node mask and reading it back with
    ``nonzero``, which needs no sort.
    """
    if candidates.size == 0:
        return candidates.astype(np.int64)
    if num_nodes is not None and candidates.size > DENSE_CONTRACT_SHARE * num_nodes:
        mask = np.zeros(num_nodes, dtype=bool)
        mask[candidates] = True
        return mask.nonzero()[0].astype(candidates.dtype, copy=False)
    ordered = candidates.copy()
    ordered.sort()
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], keep[1:])
    return ordered[keep]


def relax(values: np.ndarray, edge_dst: np.ndarray, candidate: np.ndarray) -> np.ndarray:
    """Min-relaxation filter: lower ``values[edge_dst]`` to ``candidate``
    where that is smaller, and return the improved targets, contracted.

    Only an edge whose candidate beats its target's value can change
    it, so only those edges are scattered; they are selected by index
    once, and each array is one gather of those indices.
    """
    improving = (candidate < values[edge_dst]).nonzero()[0]
    targets = edge_dst[improving]
    np.minimum.at(values, targets, candidate[improving])
    return contract(targets, values.size)
