"""Structured edge deltas between consecutive graph epochs.

The paper argues SAGE applies directly to dynamic graphs because only
the CSR must be maintained (Sections 1, 7.2) — but *consumers* of a
dynamic graph can do much better than re-reading the whole new CSR if
they are told exactly what changed.  :class:`GraphDelta` is that
contract: a frozen value describing one merge (``old_epoch`` →
``new_epoch``) as the edge instances actually inserted and actually
removed, plus the derived affected-vertex sets that incremental
algorithms seed their repair from.

Two invariants make deltas composable and replayable:

* **applied, not requested** — ``deleted_*`` holds the edge copies that
  existed and were removed (a no-op delete of a missing pair does not
  appear); ``inserted_*`` holds the insertions that survived same-batch
  delete cancellation.  Replaying the delta against a bit-identical
  copy of the old CSR therefore reproduces the new CSR exactly
  (:func:`patch_csr`), which is what incremental reverse-CSR
  maintenance relies on.
* **immutability** — all arrays are read-only ``int64``; a delta can be
  fanned out to many listeners without copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.coo import EDGE_DTYPE
from repro.graph.csr import CSRGraph


def _frozen_edges(arr: object) -> np.ndarray:
    out = np.array(arr, dtype=EDGE_DTYPE, copy=True)
    if out.ndim != 1:
        raise GraphFormatError("delta edge arrays must be 1-D")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GraphDelta:
    """One graph merge as a value: what changed between two epochs.

    Attributes:
        num_nodes: node count of both endpoint graphs (updates never
            change the vertex set).
        old_epoch: the producing graph's merge counter before the flush.
        new_epoch: the merge counter after the flush (``old_epoch + 1``).
        inserted_src / inserted_dst: edge instances added by the merge,
            lexicographically sorted, *after* same-batch delete
            cancellation.
        deleted_src / deleted_dst: edge instances that existed in the
            old graph and were removed (all copies of each deleted
            pair), in old-CSR order.
    """

    num_nodes: int
    old_epoch: int
    new_epoch: int
    inserted_src: np.ndarray
    inserted_dst: np.ndarray
    deleted_src: np.ndarray
    deleted_dst: np.ndarray

    def __post_init__(self) -> None:
        for name in (
            "inserted_src", "inserted_dst", "deleted_src", "deleted_dst"
        ):
            object.__setattr__(self, name, _frozen_edges(getattr(self, name)))
        if self.inserted_src.size != self.inserted_dst.size:
            raise GraphFormatError("inserted src/dst length mismatch")
        if self.deleted_src.size != self.deleted_dst.size:
            raise GraphFormatError("deleted src/dst length mismatch")

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def num_inserted(self) -> int:
        return int(self.inserted_src.size)

    @property
    def num_deleted(self) -> int:
        return int(self.deleted_src.size)

    @property
    def size(self) -> int:
        """Total changed edge instances (inserted + deleted)."""
        return self.num_inserted + self.num_deleted

    @property
    def is_empty(self) -> bool:
        """Whether the merge changed nothing (e.g. only no-op deletes)."""
        return self.size == 0

    # ------------------------------------------------------------------
    # Derived vertex sets
    # ------------------------------------------------------------------

    @property
    def touched_sources(self) -> np.ndarray:
        """Unique source endpoints of every changed edge (sorted).

        These are exactly the vertices whose out-adjacency (and
        out-degree) differ between the epochs — the seed set for
        selective cache survival and PageRank residual adjustment.
        """
        return np.unique(
            np.concatenate([self.inserted_src, self.deleted_src])
        )

    def reversed(self) -> "GraphDelta":
        """The same delta on the transpose graph (src/dst swapped).

        Applying ``patch_csr(graph.reversed(), delta.reversed())``
        yields ``new_graph.reversed()`` — incremental engines use this
        to maintain a reverse CSR without re-transposing per epoch.
        """
        return GraphDelta(
            num_nodes=self.num_nodes,
            old_epoch=self.old_epoch,
            new_epoch=self.new_epoch,
            inserted_src=self.inserted_dst,
            inserted_dst=self.inserted_src,
            deleted_src=self.deleted_dst,
            deleted_dst=self.deleted_src,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphDelta(epoch {self.old_epoch}->{self.new_epoch}, "
            f"+{self.num_inserted} -{self.num_deleted})"
        )


def _merge_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two sorted int arrays (duplicates kept)."""
    out = np.empty(a.size + b.size, dtype=a.dtype)
    positions = np.searchsorted(a, b, side="right") + np.arange(b.size)
    mask = np.zeros(out.size, dtype=bool)
    mask[positions] = True
    out[mask] = b
    out[~mask] = a
    return out


def apply_edge_updates(
    graph: CSRGraph,
    add_src: np.ndarray,
    add_dst: np.ndarray,
    del_src: np.ndarray,
    del_dst: np.ndarray,
) -> tuple[CSRGraph, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One sorted-merge update pass over a CSR.

    Deletions remove *all copies* of each ``(src, dst)`` pair and win
    over insertions of the same pair within the batch; surviving
    insertions are batch-sorted and merged into the (already sorted)
    edge list in one pass — O(|E| + |batch| log |batch|), never a
    from-scratch re-sort.

    Returns ``(new_graph, applied_add_src, applied_add_dst,
    removed_src, removed_dst)``: the applied arrays are exactly what a
    :class:`GraphDelta` records, so :func:`patch_csr` and
    :meth:`~repro.graph.dynamic.DynamicGraph.flush` share this one
    implementation and stay bit-identical.
    """
    coo = graph.to_coo()
    src, dst = coo.src, coo.dst
    n = graph.num_nodes
    empty = np.empty(0, dtype=EDGE_DTYPE)
    removed_src, removed_dst = empty, empty.copy()

    del_keys = None
    if del_src.size:
        keys = src * n + dst
        del_keys = np.unique(del_src * n + del_dst)
        keep = ~np.isin(keys, del_keys)
        removed_src, removed_dst = src[~keep], dst[~keep]
        src, dst = src[keep], dst[keep]

    if add_src.size and del_keys is not None:
        # same-batch deletes also cancel pending inserts
        keep_add = ~np.isin(add_src * n + add_dst, del_keys)
        add_src, add_dst = add_src[keep_add], add_dst[keep_add]
    if add_src.size:
        order = np.lexsort((add_dst, add_src))
        add_src, add_dst = add_src[order], add_dst[order]
        merged_keys = _merge_sorted(src * n + dst, add_src * n + add_dst)
        src = merged_keys // n
        dst = merged_keys % n
    else:
        add_src, add_dst = empty, empty.copy()

    counts = np.bincount(src, minlength=n)
    offsets = np.zeros(n + 1, dtype=EDGE_DTYPE)
    np.cumsum(counts, out=offsets[1:])
    new_graph = CSRGraph(n, offsets, dst)
    return new_graph, add_src, add_dst, removed_src, removed_dst


def patch_csr(graph: CSRGraph, delta: GraphDelta) -> CSRGraph:
    """Apply ``delta`` to a bit-identical copy of its old graph.

    Because a delta records *applied* changes (its deleted pairs exist
    in the old graph; its inserted pairs survived cancellation), the
    patched result equals the producing merge's output exactly — this
    is how cluster replicas update their local CSR without shipping a
    full snapshot.
    """
    if delta.num_nodes != graph.num_nodes:
        raise GraphFormatError(
            f"delta is for {delta.num_nodes} nodes, graph has "
            f"{graph.num_nodes}"
        )
    if delta.is_empty:
        return graph
    patched, _, _, _, _ = apply_edge_updates(
        graph,
        delta.inserted_src, delta.inserted_dst,
        delta.deleted_src, delta.deleted_dst,
    )
    return patched
