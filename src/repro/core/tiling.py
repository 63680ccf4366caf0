"""Tiled Partitioning (paper Section 5.1, Algorithm 2).

A frontier node's adjacency work is consumed by cooperative-group tiles
whose sizes shrink from the block size down to ``MIN_TILE_SIZE`` by
binary partition.  A node with ``n`` neighbors is consumed as:

* ``n // B`` tiles of size ``B`` (the whole block, elected leader),
* then one tile of size ``s`` for every set bit of ``n mod B`` at
  ``s = B/2, B/4, ..., MIN_TILE_SIZE``,
* plus a *fragment* of ``n mod MIN_TILE_SIZE`` edges handled by
  fine-grained scan-based gathering (paper line 32, after [30]).

This module computes that decomposition for a whole frontier at once,
fully vectorized, in frontier coordinates (tiles refer to positions in
the concatenated expanded edge array).  A node's tiles never cross its
own adjacency slice, so every per-kernel tiling quantity is a sum of
per-node values: :class:`NodeAccounting` decomposes a whole graph once
and the SAGE engine prices each kernel by gathering its frontier's
columns, or, for a kernel over every node, by reading the table's
column totals.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph, graph_memo
from repro.gpusim.memory import coalesced_sectors, segmented_distinct_sectors

#: Default smallest cooperative tile (the paper's MIN_TILE_SIZE).
DEFAULT_MIN_TILE = 8


def tile_size_levels(block_size: int, min_tile: int) -> list[int]:
    """Descending powers of two from ``block_size`` to ``min_tile``."""
    if block_size < min_tile:
        raise InvalidParameterError("block_size must be >= min_tile")
    for value, label in ((block_size, "block_size"), (min_tile, "min_tile")):
        if value < 1 or value & (value - 1):
            raise InvalidParameterError(f"{label} must be a power of two")
    sizes = []
    s = block_size
    while s >= min_tile:
        sizes.append(s)
        s //= 2
    return sizes


@dataclass(frozen=True)
class TileDecomposition:
    """Tiles + fragments covering every expanded edge exactly once.

    All `*_frontier_idx` arrays index into the frontier that produced the
    decomposition; `*_local_offset` is the position within that node's
    adjacency list where the tile/fragment begins.
    """

    tile_frontier_idx: np.ndarray
    tile_sizes: np.ndarray
    tile_local_offsets: np.ndarray
    fragment_frontier_idx: np.ndarray
    fragment_sizes: np.ndarray
    fragment_local_offsets: np.ndarray
    elections: int
    levels: int
    block_size: int
    min_tile: int

    def segment_starts(self, cum_degrees: np.ndarray) -> np.ndarray:
        """Sorted start offsets of every tile and fragment.

        Args:
            cum_degrees: exclusive prefix sum of the frontier's degrees
                (``cum_degrees[i]`` = where node ``i``'s adjacency begins
                in the expanded edge array).

        Returns:
            Sorted int64 array of segment starts that partitions the
            expanded edge array into tile/fragment segments — the access
            batches whose distinct-sector counts the memory model needs.
        """
        tile_starts = cum_degrees[self.tile_frontier_idx] + self.tile_local_offsets
        frag_starts = (
            cum_degrees[self.fragment_frontier_idx] + self.fragment_local_offsets
        )
        starts = np.concatenate([tile_starts, frag_starts])
        starts.sort(kind="stable")
        return starts


def decompose_frontier(
    degrees: np.ndarray,
    block_size: int,
    min_tile: int = DEFAULT_MIN_TILE,
) -> TileDecomposition:
    """Run Tiled Partitioning over a frontier's degree array.

    Args:
        degrees: out-degree of each frontier node, in frontier order.
        block_size: threads per block (largest tile).
        min_tile: the paper's MIN_TILE_SIZE.

    Returns:
        The full :class:`TileDecomposition`.

    Election accounting follows Algorithm 2: one election per
    (node, tile-size level) at which the node has work — at the block
    level a node with ``k`` block-tiles still elects once and the tile
    then loops ``k`` rounds.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if degrees.size and degrees.min() < 0:
        raise InvalidParameterError("degrees must be non-negative")
    sizes = tile_size_levels(block_size, min_tile)

    idx_chunks: list[np.ndarray] = []
    size_chunks: list[np.ndarray] = []
    offset_chunks: list[np.ndarray] = []
    elections = 0

    # The per-node quantities at every level (tile count, consumed
    # offset) are pure functions of the degree, so the level arithmetic
    # runs over the distinct-degree histogram and is gathered back per
    # node only for the expansion that produces output.
    all_idx = np.arange(degrees.size, dtype=np.int64)
    if degrees.size:
        hist = np.bincount(degrees)
        uniq = np.flatnonzero(hist)
        hist_u = hist[uniq]
        lookup = np.zeros(hist.size, dtype=np.int64)
        lookup[uniq] = np.arange(uniq.size, dtype=np.int64)
        inv = lookup[degrees]
    else:
        uniq = np.empty(0, dtype=np.int64)
        hist_u = np.empty(0, dtype=np.int64)
        inv = np.empty(0, dtype=np.int64)
    rem_u = uniq.copy()
    cons_u = np.zeros_like(uniq)
    for s in sizes:
        cnt_u = rem_u // s
        active_u = cnt_u > 0
        elections += int(hist_u[active_u].sum())
        if cnt_u[active_u].size and int((cnt_u * hist_u)[active_u].sum()):
            # node i contributes cnt[degree_i] tiles at offsets
            # consumed[degree_i], consumed[degree_i] + s, ...
            counts = cnt_u[inv]
            active = counts > 0
            reps = counts[active]
            nodes = np.repeat(all_idx[active], reps)
            base = np.repeat(cons_u[inv][active], reps)
            cum = np.repeat(np.cumsum(reps) - reps, reps)
            within = (np.arange(nodes.size, dtype=np.int64) - cum) * s
            idx_chunks.append(nodes)
            size_chunks.append(np.full(nodes.size, s, dtype=np.int64))
            offset_chunks.append(base + within)
        cons_u += cnt_u * s
        rem_u -= cnt_u * s

    frag_active = rem_u[inv] > 0 if degrees.size else np.zeros(0, dtype=bool)
    frag_idx = all_idx[frag_active]
    frag_sizes = rem_u[inv][frag_active]
    frag_offsets = cons_u[inv][frag_active]

    if idx_chunks:
        tile_idx = np.concatenate(idx_chunks)
        tile_sizes = np.concatenate(size_chunks)
        tile_offsets = np.concatenate(offset_chunks)
    else:
        tile_idx = np.empty(0, dtype=np.int64)
        tile_sizes = np.empty(0, dtype=np.int64)
        tile_offsets = np.empty(0, dtype=np.int64)

    return TileDecomposition(
        tile_frontier_idx=tile_idx,
        tile_sizes=tile_sizes,
        tile_local_offsets=tile_offsets,
        fragment_frontier_idx=frag_idx,
        fragment_sizes=frag_sizes,
        fragment_local_offsets=frag_offsets,
        elections=elections,
        levels=len(sizes),
        block_size=block_size,
        min_tile=min_tile,
    )


def decompose_frontier_reference(
    degrees: np.ndarray,
    block_size: int,
    min_tile: int = DEFAULT_MIN_TILE,
) -> TileDecomposition:
    """Pre-optimization per-node formulation of :func:`decompose_frontier`,
    kept as the equivalence-test reference."""
    degrees = np.asarray(degrees, dtype=np.int64)
    if degrees.size and degrees.min() < 0:
        raise InvalidParameterError("degrees must be non-negative")
    sizes = tile_size_levels(block_size, min_tile)

    idx_chunks: list[np.ndarray] = []
    size_chunks: list[np.ndarray] = []
    offset_chunks: list[np.ndarray] = []
    elections = 0

    remaining = degrees.copy()
    consumed = np.zeros_like(degrees)
    all_idx = np.arange(degrees.size, dtype=np.int64)
    for s in sizes:
        counts = remaining // s
        active = counts > 0
        elections += int(active.sum())
        n_active = int(counts[active].sum())
        if n_active:
            reps = counts[active]
            nodes = np.repeat(all_idx[active], reps)
            base = np.repeat(consumed[active], reps)
            cum = np.repeat(np.cumsum(reps) - reps, reps)
            within = (np.arange(nodes.size, dtype=np.int64) - cum) * s
            idx_chunks.append(nodes)
            size_chunks.append(np.full(nodes.size, s, dtype=np.int64))
            offset_chunks.append(base + within)
        consumed += counts * s
        remaining -= counts * s

    frag_active = remaining > 0

    if idx_chunks:
        tile_idx = np.concatenate(idx_chunks)
        tile_sizes = np.concatenate(size_chunks)
        tile_offsets = np.concatenate(offset_chunks)
    else:
        tile_idx = np.empty(0, dtype=np.int64)
        tile_sizes = np.empty(0, dtype=np.int64)
        tile_offsets = np.empty(0, dtype=np.int64)

    return TileDecomposition(
        tile_frontier_idx=tile_idx,
        tile_sizes=tile_sizes,
        tile_local_offsets=tile_offsets,
        fragment_frontier_idx=all_idx[frag_active],
        fragment_sizes=remaining[frag_active],
        fragment_local_offsets=consumed[frag_active],
        elections=elections,
        levels=len(sizes),
        block_size=block_size,
        min_tile=min_tile,
    )


def decompose_degree(degree: int, block_size: int) -> list[tuple[int, int]]:
    """Decompose one degree into ``(offset, tile_size)`` pairs + fragment.

    Reference implementation used by tests; the fragment (if any) is the
    final pair with size < :data:`DEFAULT_MIN_TILE`.
    """
    out: list[tuple[int, int]] = []
    offset = 0
    remaining = int(degree)
    for s in tile_size_levels(block_size, DEFAULT_MIN_TILE):
        while remaining >= s:
            out.append((offset, s))
            offset += s
            remaining -= s
    if remaining:
        out.append((offset, remaining))
    return out


#: Row order of :attr:`NodeAccounting.per_node`.
UNITS, TILES, FRAGMENTS, ELECTIONS, COVERED, CSR_SECTORS, VALUE_TOUCHES = range(7)


@dataclass(frozen=True)
class NodeAccounting:
    """Per-node Tiled Partitioning and gather accounting of one graph.

    Column ``u`` of :attr:`per_node` holds node ``u``'s work units,
    tiles, fragments, elections, covered edges, CSR gather sectors and
    unscaled value-sector touches (rows ``UNITS`` .. ``VALUE_TOUCHES``).
    Each is a pure function of ``u``'s adjacency slice, so a kernel's
    totals are the sums of its frontier's columns.  Node ``u``'s segments
    are ``segment_local[segment_ptr[u]:segment_ptr[u + 1]]``, local
    offsets in ascending order.
    """

    per_node: np.ndarray
    segment_ptr: np.ndarray
    segment_local: np.ndarray

    @classmethod
    def build(
        cls,
        graph: CSRGraph,
        block_size: int,
        min_tile: int,
        sector_width: int,
        aligned: bool,
    ) -> "NodeAccounting":
        """One whole-graph decomposition and distinct-sector pass."""
        n = graph.num_nodes
        decomp = decompose_frontier(graph.out_degrees(), block_size, min_tile)
        owner = np.concatenate(
            [decomp.tile_frontier_idx, decomp.fragment_frontier_idx]
        )
        sizes = np.concatenate([decomp.tile_sizes, decomp.fragment_sizes])
        local = np.concatenate(
            [decomp.tile_local_offsets, decomp.fragment_local_offsets]
        )
        # Node-major segment order: each node's segments are contiguous
        # and ascending, exactly as a frontier's segment starts sort.
        starts = graph.offsets[owner] + local
        order = np.argsort(starts, kind="stable")
        owner, sizes, local, starts = (
            owner[order], sizes[order], local[order], starts[order]
        )
        units = np.bincount(owner, minlength=n)
        segment_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(units, out=segment_ptr[1:])

        tiles = np.bincount(decomp.tile_frontier_idx, minlength=n)
        block_tiles = np.bincount(
            decomp.tile_frontier_idx[decomp.tile_sizes == block_size],
            minlength=n,
        )
        per_node = np.stack(
            [
                units,
                tiles,
                np.bincount(decomp.fragment_frontier_idx, minlength=n),
                # one election per level with work; a node's k block
                # tiles share one (the tile loops k rounds)
                tiles - block_tiles + (block_tiles > 0),
                _node_sums(sizes, segment_ptr),
                _node_sums(
                    coalesced_sectors(sizes, sector_width, aligned=aligned),
                    segment_ptr,
                ),
                _node_sums(
                    segmented_distinct_sectors(
                        graph.targets, starts, sector_width, presorted=True
                    ),
                    segment_ptr,
                ),
            ]
        ).astype(np.int64, copy=False)
        return cls(per_node, segment_ptr, local)

    def relabelled(
        self, perm: np.ndarray, graph: CSRGraph, sector_width: int
    ) -> "NodeAccounting":
        """This table for ``graph``, the relabelling of its graph by
        ``perm`` (``new_id = perm[old_id]``, as in
        :meth:`~repro.graph.csr.CSRGraph.permute`).

        Rows ``UNITS`` .. ``CSR_SECTORS`` and a node's segment offsets
        depend only on its degree, so they move with the node: column
        ``perm[u]`` is old column ``u``.  ``VALUE_TOUCHES`` reads the
        new targets and is recounted by the distinct-sector pass
        :meth:`build` makes.  Equal to :meth:`build` on ``graph``,
        without re-tiling it.
        """
        inverse = np.empty(perm.size, dtype=np.int64)
        inverse[perm] = np.arange(perm.size, dtype=np.int64)
        per_node = np.empty_like(self.per_node)
        np.take(self.per_node[:VALUE_TOUCHES], inverse, axis=1,
                out=per_node[:VALUE_TOUCHES])
        units = per_node[UNITS]
        segment_ptr = np.zeros_like(self.segment_ptr)
        np.cumsum(units, out=segment_ptr[1:])
        # New node v's segments are old node inverse[v]'s, gathered in
        # new order: segment i moves by (old end - new end) of its node.
        shift = self.segment_ptr[1:][inverse] - segment_ptr[1:]
        old_index = shift.repeat(units)
        old_index += np.arange(self.segment_local.size, dtype=np.int64)
        segment_local = self.segment_local[old_index]
        starts = graph.offsets[:-1].repeat(units)
        starts += segment_local
        per_node[VALUE_TOUCHES] = _node_sums(
            segmented_distinct_sectors(
                graph.targets, starts, sector_width, presorted=True
            ),
            segment_ptr,
        )
        return NodeAccounting(per_node, segment_ptr, segment_local)

    def level_totals(
        self, frontiers: Sequence[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A queue's totals from one gather and one segmented sum:
        O(|frontier|) per kernel.

        Returns the concatenated frontiers, their ``UNITS`` row and a
        ``(7, len(frontiers))`` int64 array whose column ``k`` sums rows
        ``UNITS`` .. ``VALUE_TOUCHES`` over frontier ``k``.
        """
        sizes = [frontier.size for frontier in frontiers]
        starts = [0, *itertools.accumulate(sizes[:-1])]
        nodes = frontiers[0] if len(frontiers) == 1 else np.concatenate(frontiers)
        cols = np.take(self.per_node, nodes, axis=1)
        if all(sizes):
            sums = np.add.reduceat(cols, starts, axis=1)
        else:  # an empty frontier's sums are zero, not reduceat's
            sums = np.zeros((cols.shape[0], len(sizes)), dtype=np.int64)
            if nodes.size:
                nonempty = np.flatnonzero(sizes)
                sums[:, nonempty] = np.add.reduceat(
                    cols, np.take(starts, nonempty), axis=1
                )
        return nodes, cols[UNITS], sums

    @functools.cached_property
    def totals(self) -> np.ndarray:
        """The ``(7, 1)`` totals of a kernel over every node in id order
        (:meth:`~repro.graph.csr.CSRGraph.is_full_frontier`), read-only:
        each row's sum, made once per table."""
        totals = self.per_node.sum(axis=1, keepdims=True)
        totals.flags.writeable = False
        return totals

    def segment_starts(
        self, frontier: np.ndarray, degrees: np.ndarray, units: np.ndarray
    ) -> np.ndarray:
        """Sorted tile and fragment starts of a kernel in its expanded
        edge array (the sampling reorderer's tile boundaries); ``units``
        is the frontier's ``UNITS`` row."""
        total = int(units.sum())
        first = np.cumsum(units) - units
        idx = np.repeat(self.segment_ptr[frontier] - first, units)
        idx += np.arange(total, dtype=np.int64)
        cum_deg = np.cumsum(degrees, dtype=np.int64) - degrees
        return self.segment_local[idx] + np.repeat(cum_deg, units)


def _node_sums(per_segment: np.ndarray, segment_ptr: np.ndarray) -> np.ndarray:
    """Each node's sum of its segments' values (node-major order)."""
    csum = np.zeros(per_segment.size + 1, dtype=np.int64)
    np.cumsum(per_segment, out=csum[1:])
    return csum[segment_ptr[1:]] - csum[segment_ptr[:-1]]


def node_accounting(
    graph: CSRGraph,
    block_size: int,
    min_tile: int,
    sector_width: int,
    aligned: bool,
    *,
    relabel: tuple[NodeAccounting, np.ndarray] | None = None,
) -> tuple[NodeAccounting, bool]:
    """The graph's :class:`NodeAccounting` for one tiling configuration.

    Built at most once per (graph object, configuration) by
    :func:`~repro.graph.csr.graph_memo`, by :meth:`NodeAccounting.build`.
    ``relabel`` is ``(table, perm)`` when ``graph`` is the relabelling by
    ``perm`` of the graph ``table`` was made for, with this
    configuration (a reorder commit, paper Section 6): the table is then
    made by :meth:`NodeAccounting.relabelled`, without re-tiling.  Either
    way the call that makes it reports it built.  Returns the table and
    whether this call built it.
    """
    key = (block_size, min_tile, sector_width, aligned)
    if relabel is None:
        build = functools.partial(NodeAccounting.build, graph, *key)
    else:
        table, perm = relabel
        build = functools.partial(table.relabelled, perm, graph, sector_width)
    return graph_memo(graph, ("node_accounting", *key), build)


def frontier_work_reference(
    degrees: np.ndarray,
    edge_dst: np.ndarray,
    block_size: int,
    min_tile: int,
    sector_width: int,
    aligned: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-frontier formulation of :meth:`NodeAccounting.level_totals`
    and :meth:`NodeAccounting.segment_starts`: re-tile the frontier and
    count sectors over its expanded batch.  Returns the kernel's
    ``(7, 1)`` totals (rows ``UNITS`` .. ``VALUE_TOUCHES``), each
    frontier entry's work units and the sorted segment starts.  Kept as
    the equivalence-test reference."""
    decomp = decompose_frontier(degrees, block_size, min_tile)
    cum_deg = np.cumsum(degrees) - degrees
    seg_starts = decomp.segment_starts(cum_deg)
    seg_sizes = np.diff(np.append(seg_starts, int(degrees.sum())))
    units = (
        np.bincount(decomp.tile_frontier_idx, minlength=degrees.size)
        + np.bincount(decomp.fragment_frontier_idx, minlength=degrees.size)
    )
    totals = np.array([
        int(units.sum()),
        int(decomp.tile_sizes.size),
        int(decomp.fragment_frontier_idx.size),
        decomp.elections,
        int(decomp.tile_sizes.sum()) + int(decomp.fragment_sizes.sum()),
        int(coalesced_sectors(seg_sizes, sector_width, aligned=aligned).sum()),
        int(
            segmented_distinct_sectors(
                edge_dst, seg_starts, sector_width, presorted=True
            ).sum()
        ),
    ], dtype=np.int64)
    return totals[:, None], units, seg_starts
