"""Compressed Sparse Row (CSR) graph representation.

CSR is the "ubiquitous" input representation SAGE starts from (paper
Section 1): an ``offsets`` array (the paper's ``u_offset``) of length
``num_nodes + 1`` and a ``targets`` array (the paper's ``v``) holding the
concatenated, per-node-sorted adjacency lists.

No preprocessing beyond CSR construction is required by SAGE; every
scheduler and application in this library consumes :class:`CSRGraph`
directly.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.coo import COOGraph, EDGE_DTYPE, edge_key_dtype

T = TypeVar("T")

#: Serializes per-graph memo builds (see :func:`graph_memo`).
_MEMO_LOCK = threading.Lock()


@dataclass(frozen=True)
class CSRGraph:
    """A directed graph in CSR form.

    Attributes:
        num_nodes: node count; ids are ``0 .. num_nodes - 1``.
        offsets: int64 array of length ``num_nodes + 1``; the adjacency of
            node ``u`` is ``targets[offsets[u]:offsets[u + 1]]``.
        targets: int64 array of length ``num_edges``; each per-node slice
            is sorted ascending (construction guarantees this).
    """

    num_nodes: int
    offsets: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        offsets = np.ascontiguousarray(self.offsets, dtype=EDGE_DTYPE)
        targets = np.ascontiguousarray(self.targets, dtype=EDGE_DTYPE)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "targets", targets)
        if offsets.ndim != 1 or offsets.size != self.num_nodes + 1:
            raise GraphFormatError(
                f"offsets must have length num_nodes + 1 = {self.num_nodes + 1}, "
                f"got {offsets.size}"
            )
        if offsets.size and offsets[0] != 0:
            raise GraphFormatError("offsets[0] must be 0")
        if np.any(np.diff(offsets) < 0):
            raise GraphFormatError("offsets must be non-decreasing")
        if offsets.size and offsets[-1] != targets.size:
            raise GraphFormatError(
                f"offsets[-1] ({offsets[-1]}) must equal len(targets) "
                f"({targets.size})"
            )
        if targets.size:
            lo, hi = targets.min(), targets.max()
            if lo < 0 or hi >= self.num_nodes:
                raise GraphFormatError(
                    f"target out of range [0, {self.num_nodes}): [{lo}, {hi}]"
                )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_coo(cls, coo: COOGraph) -> "CSRGraph":
        """Build a CSR graph from a COO edge list (sorted internally)."""
        g = coo.sorted()
        counts = np.bincount(g.src, minlength=g.num_nodes)
        offsets = np.zeros(g.num_nodes + 1, dtype=EDGE_DTYPE)
        np.cumsum(counts, out=offsets[1:])
        return cls(g.num_nodes, offsets, g.dst)

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        src: np.ndarray,
        dst: np.ndarray,
        *,
        dedup: bool = False,
        drop_self_loops: bool = False,
        symmetric: bool = False,
    ) -> "CSRGraph":
        """Build a CSR graph from parallel edge arrays.

        Args:
            num_nodes: node count.
            src: edge sources.
            dst: edge targets.
            dedup: remove duplicate edges.
            drop_self_loops: remove ``u -> u`` edges.
            symmetric: add the reverse of every edge (implies dedup).
        """
        coo = COOGraph(num_nodes, np.asarray(src), np.asarray(dst))
        if drop_self_loops:
            coo = coo.without_self_loops()
        if symmetric:
            coo = coo.symmetrized()
        elif dedup:
            coo = coo.deduplicated()
        return cls.from_coo(coo)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return int(self.targets.size)

    def out_degrees(self) -> np.ndarray:
        """Out-degree array (``|OutDeg(u)|`` for all ``u``)."""
        return np.diff(self.offsets)

    def out_degree(self, node: int) -> int:
        """Out-degree of one node."""
        return int(self.offsets[node + 1] - self.offsets[node])

    def neighbors(self, node: int) -> np.ndarray:
        """Adjacency slice of ``node`` (a view, sorted ascending)."""
        return self.targets[self.offsets[node]:self.offsets[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``u -> v`` exists (binary search)."""
        adj = self.neighbors(u)
        i = np.searchsorted(adj, v)
        return bool(i < adj.size and adj[i] == v)

    def to_coo(self) -> COOGraph:
        """Expand back to a (sorted) COO edge list."""
        src = np.repeat(np.arange(self.num_nodes, dtype=EDGE_DTYPE),
                        self.out_degrees())
        return COOGraph(self.num_nodes, src, self.targets.copy())

    def is_full_frontier(self, frontier: np.ndarray) -> bool:
        """Whether ``frontier`` is every node in id order (``arange(n)``).

        Such a level (each iteration of a global app such as PageRank)
        expands to the CSR itself.  A full-size permutation is not full:
        its expansion visits the adjacency slices in another order.
        """
        n = self.num_nodes
        if frontier.size != n:
            return False
        if n and (frontier[0] != 0 or frontier[-1] != n - 1):
            return False
        return bool(np.array_equal(frontier, np.arange(n)))

    def expand_frontier(
        self, frontier: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expand ``frontier`` with CSR positions: the first three arrays
        of :meth:`expand_level`, ``(edge_src, edge_dst, edge_pos)``."""
        return self.expand_level(frontier)[:3]

    def expand_level(
        self, frontier: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Expand ``frontier`` with CSR positions and degrees.

        Returns ``(edge_src, edge_dst, edge_pos, degrees)``: for every
        node ``u`` in ``frontier`` (in order) its neighbors appear
        contiguously, so ``edge_src`` is ``frontier`` repeated by degree,
        ``edge_dst`` the concatenated adjacency slices, ``edge_pos`` each
        edge's index in ``targets`` (used e.g. to look up edge weights)
        and ``degrees`` each frontier node's out-degree, which the gather
        computes anyway.  This is the hot path of every traversal
        iteration.

        A full frontier (:meth:`is_full_frontier`) gathers nothing: its
        ``edge_dst`` is a read-only view of ``targets``, its ``edge_pos``
        is ``arange(num_edges)`` and its degrees are :meth:`out_degrees`.
        Any other frontier gets fresh arrays from one vectorized
        multi-range gather.
        """
        frontier = np.asarray(frontier, dtype=EDGE_DTYPE)
        if self.is_full_frontier(frontier):
            degrees = self.out_degrees()
            edge_dst = self.targets.view()
            edge_dst.flags.writeable = False
            return (
                np.repeat(frontier, degrees),
                edge_dst,
                np.arange(self.num_edges, dtype=EDGE_DTYPE),
                degrees,
            )
        stops = self.offsets[1:][frontier]
        counts = stops - self.offsets[frontier]
        ends = counts.cumsum()
        total = int(ends[-1]) if ends.size else 0
        if total == 0:
            empty = np.empty(0, dtype=EDGE_DTYPE)
            return empty, empty.copy(), empty.copy(), counts
        # Edge i of the level belongs to the frontier node whose run
        # covers it; its CSR position is i shifted by that node's
        # ``start - (edges before it in the level)``, which is its
        # ``stop - (edges up to and including it)``.
        stops -= ends
        edge_pos = stops.repeat(counts)
        edge_pos += np.arange(total, dtype=EDGE_DTYPE)
        return frontier.repeat(counts), self.targets[edge_pos], edge_pos, counts

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------

    def permute(self, perm: np.ndarray) -> "CSRGraph":
        """Relabel nodes by a bijection ``perm`` (``new_id = perm[old_id]``).

        This is the operation Sampling-based Reordering commits after each
        round (paper Section 6) and what the reordering baselines apply
        once up front.  The result equals
        ``CSRGraph.from_edges(n, perm[src], perm[dst])`` over this graph's
        edges, derived without that round trip, as the paper's segmented
        sort plus gather: the new offsets come from the permuted degrees,
        one gather reads the old targets in new row order through
        ``perm``, and one sort of ``row * n + dst`` keys (of dtype
        :func:`~repro.graph.coo.edge_key_dtype`) re-sorts every row.

        Raises:
            GraphFormatError: ``perm`` is not an integer array of length
                ``num_nodes`` holding every id in ``[0, num_nodes)`` once,
                or ``num_nodes`` exceeds
                :data:`~repro.graph.coo.MAX_PAIR_KEY_NODES`.
        """
        n = self.num_nodes
        dtype = edge_key_dtype(n)
        perm = np.asarray(perm)
        if perm.ndim != 1 or perm.size != n:
            raise GraphFormatError(
                f"permutation length {perm.size} != num_nodes {n}"
            )
        if perm.dtype.kind not in "iu":
            if perm.size:
                raise GraphFormatError(
                    f"perm must hold integer node ids, got dtype {perm.dtype}"
                )
            perm = perm.astype(EDGE_DTYPE)  # ``[]`` is a float64 array
        if perm.size and (perm.min() < 0 or perm.max() >= n):
            raise GraphFormatError(
                f"perm id out of range [0, {n}): "
                f"saw [{perm.min()}, {perm.max()}]"
            )
        inverse = np.full(n, -1, dtype=EDGE_DTYPE)
        inverse[perm] = np.arange(n, dtype=EDGE_DTYPE)
        if n and inverse.min() < 0:  # a repeated id leaves another unset
            raise GraphFormatError("perm is not a bijection on node ids")
        degrees = self.out_degrees()[inverse]
        offsets = np.zeros(n + 1, dtype=EDGE_DTYPE)
        np.cumsum(degrees, out=offsets[1:])
        # New row r reads old row inverse[r]: edge i of the new CSR sits
        # at old position i + (old stop - new stop) of its row.
        shift = self.offsets[1:][inverse] - offsets[1:]
        old_pos = shift.repeat(degrees)
        old_pos += np.arange(self.num_edges, dtype=EDGE_DTYPE)
        key = perm.astype(dtype, copy=False)[self.targets[old_pos]]
        # Rows are already in order, so sorting ``row * n + dst`` sorts
        # each row's targets; subtracting the row term decodes them.
        rows = np.arange(n, dtype=dtype).repeat(degrees)
        rows *= dtype.type(n)
        key += rows
        key.sort()
        key -= rows
        return CSRGraph(n, offsets, key)

    def with_edges_added(self, src: np.ndarray, dst: np.ndarray) -> "CSRGraph":
        """Return a new CSR with extra edges inserted (dynamic updates).

        The paper argues SAGE applies directly to dynamic graphs because
        only the CSR needs rebuilding (Section 7.2); this is that rebuild.
        Duplicates are kept unless already deduplicated by the caller.
        """
        coo = self.to_coo()
        all_src = np.concatenate([coo.src, np.asarray(src, dtype=EDGE_DTYPE)])
        all_dst = np.concatenate([coo.dst, np.asarray(dst, dtype=EDGE_DTYPE)])
        return CSRGraph.from_edges(self.num_nodes, all_src, all_dst)

    def reversed(self) -> "CSRGraph":
        """The transpose graph in CSR form."""
        return CSRGraph.from_coo(self.to_coo().reversed())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(|V|={self.num_nodes}, |E|={self.num_edges})"


def graph_memo(
    graph: CSRGraph, key: Hashable, build: Callable[[], T]
) -> tuple[T, bool]:
    """``build()``, computed at most once per (graph object, ``key``).

    The value is cached on the graph.  Graphs are immutable — ``permute``
    and dynamic flushes return new objects — so the cache never goes
    stale.  Serving replicas share graphs across threads, so builds run
    under a lock and each value is built (and reported built) once.
    Returns the value and whether this call built it.
    """
    memo = graph.__dict__.get("_memo")
    if memo is not None and key in memo:
        return memo[key], False
    with _MEMO_LOCK:
        memo = graph.__dict__.setdefault("_memo", {})
        if key in memo:
            return memo[key], False
        value = memo[key] = build()
        return value, True


def expand_frontier_reference(
    graph: CSRGraph, frontier: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:meth:`CSRGraph.expand_frontier` as three per-edge ``repeat``s and
    a gather for every frontier (the pre-full-level formulation), kept as
    the equivalence-test reference."""
    frontier = np.asarray(frontier, dtype=EDGE_DTYPE)
    starts = graph.offsets[frontier]
    counts = graph.offsets[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=EDGE_DTYPE)
        return empty, empty.copy(), empty.copy()
    edge_src = np.repeat(frontier, counts)
    run_starts = np.repeat(starts, counts)
    within = np.arange(total, dtype=EDGE_DTYPE)
    run_offsets = np.repeat(np.cumsum(counts) - counts, counts)
    edge_pos = run_starts + (within - run_offsets)
    return edge_src, graph.targets[edge_pos], edge_pos
