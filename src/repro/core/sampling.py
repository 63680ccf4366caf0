"""Tile Access Sampling (paper Section 6, Algorithm 4).

During the filtering step each cooperative tile holds the neighbor ids it
is about to access in shared memory; counting how many intra-tile
neighbors share a memory sector is a cheap, in-kernel measurement of
locality.  This module implements that measurement vectorized: an
observation batch is the concatenated neighbor array of one iteration
plus the tile segment boundaries, and the sampler accumulates

* per-node *locality* counts (Stage 1's measure): for node ``u`` in a
  tile, the number of other tile members in ``u``'s sector, and
* a bounded sample of *co-access pairs* ``(u, co_member)`` feeding the
  Stage 2 binary search and the Stage 3 validation.

Pair collection bounds work per tile (at most ``co_samples`` co-members
per element, from a ``tile_sample_rate`` fraction of tiles) — the
"sampling" that keeps the paper's technique lightweight.  An observation
only keeps its sampled tiles; a round builds all their pairs at once, as
one ``u * n + co`` key (:func:`tile_pair_key`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.coo import MAX_PAIR_KEY_NODES, pair_key_dtype


def tile_pair_key(
    members: np.ndarray, lengths: np.ndarray, co_samples: int, num_nodes: int
) -> np.ndarray:
    """Every sampled pair of a round as one unsorted ``u * n + co`` key.

    ``members`` is the concatenation of the sampled tiles and ``lengths``
    their sizes (each >= 1).  Each member pairs with the next
    ``pairs = min(co_samples, len - 1)`` members of its tile, cyclically,
    so never with its own slot.  Every tile is laid out once, followed by
    a copy of its first ``pairs`` members; in that layout the k-th
    co-member of every member is the slot k places to its right, so each
    rotation is one slice add and a mask drops the copies' slots and the
    rotations past a member's ``pairs``.
    """
    dtype = pair_key_dtype(num_nodes)
    pairs = np.minimum(co_samples, lengths - 1)
    parts = np.stack([lengths, pairs], axis=1).ravel()  # tile, copy, tile, copy, ...
    size = int(parts.sum())
    part_at = np.cumsum(parts) - parts
    tile_at = np.repeat(np.cumsum(lengths) - lengths, 2)
    slots = members.astype(dtype, copy=False)[
        np.arange(size) + np.repeat(tile_at - part_at, parts)
    ]
    # pairs per slot: a member's count, 0 on the copies
    limit = np.repeat(np.stack([pairs, np.zeros_like(pairs)], axis=1).ravel(), parts)
    owner = slots * dtype.type(num_nodes)
    key = np.empty((co_samples, size), dtype=dtype)
    # A pair never reaches past its tile's copy, so the last k slots of
    # rotation k are all masked and stay unset.
    for k in range(1, min(co_samples, size - 1) + 1):
        np.add(owner[: size - k], slots[k:], out=key[k - 1, : size - k])
    return key[np.arange(1, co_samples + 1)[:, None] <= limit]


def tile_pairs_reference(
    members: np.ndarray, lengths: np.ndarray, co_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-optimization pair builder, kept as the reference for
    :func:`tile_pair_key`: ``(u, co)`` int64 arrays, built by one
    ``arange``/``repeat``/``cumsum`` pass per rotation."""
    members = np.asarray(members, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    n_pairs_per_elem = np.minimum(co_samples, lengths - 1)
    total_pairs = int((n_pairs_per_elem * lengths).sum())
    pair_u = np.empty(total_pairs, dtype=np.int64)
    pair_co = np.empty(total_pairs, dtype=np.int64)
    filled = 0
    for k in range(1, co_samples + 1):
        has_k = lengths - 1 >= k
        if not has_k.any():
            break
        s = starts[has_k]
        ln = lengths[has_k]
        total = int(ln.sum())
        within = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(ln) - ln, ln)
        base = np.repeat(s, ln)
        pair_u[filled : filled + total] = members[base + within]
        pair_co[filled : filled + total] = members[base + (within + k) % np.repeat(ln, ln)]
        filled += total
    return pair_u[:filled], pair_co[:filled]


class TileAccessSampler:
    """Accumulates locality statistics from sampled tile accesses."""

    def __init__(
        self,
        num_nodes: int,
        sector_width: int,
        *,
        co_samples: int = 4,
        tile_sample_rate: float = 0.5,
        seed: int = 0,
    ) -> None:
        if num_nodes < 1 or sector_width < 1:
            raise InvalidParameterError("num_nodes and sector_width must be >= 1")
        if num_nodes > MAX_PAIR_KEY_NODES:
            raise InvalidParameterError(
                f"num_nodes must be <= {MAX_PAIR_KEY_NODES}: the "
                "u * num_nodes + co pair key would overflow int64"
            )
        if co_samples < 1 or not 0 < tile_sample_rate <= 1:
            raise InvalidParameterError(
                "co_samples >= 1 and 0 < tile_sample_rate <= 1 required"
            )
        self.num_nodes = num_nodes
        self.sector_width = sector_width
        self.co_samples = co_samples
        self.tile_sample_rate = tile_sample_rate
        self._rng = np.random.default_rng(seed)
        self.observed_edges = 0
        self.sampled_tiles = 0
        self._members: list[np.ndarray] = []
        self._lengths: list[np.ndarray] = []

    def observe(self, edge_dst: np.ndarray, segment_starts: np.ndarray) -> None:
        """Record one iteration's tile accesses.

        Draws one sample decision per tile and keeps the sampled tiles'
        members; their pairs are built by :meth:`pair_key`.

        Args:
            edge_dst: concatenated neighbor ids of the iteration.
            segment_starts: sorted tile segment starts partitioning
                ``edge_dst`` (from
                :meth:`~repro.core.tiling.TileDecomposition.segment_starts`).
        """
        edge_dst = np.asarray(edge_dst, dtype=np.int64)
        self.observed_edges += int(edge_dst.size)
        if edge_dst.size == 0 or segment_starts.size == 0:
            return
        starts = np.asarray(segment_starts, dtype=np.int64)
        lengths = np.diff(starts, append=edge_dst.size)
        keep = (lengths > 1) & (self._rng.random(starts.size) < self.tile_sample_rate)
        kept = int(np.count_nonzero(keep))
        if not kept:
            return
        self.sampled_tiles += kept
        self._members.append(edge_dst[np.flatnonzero(np.repeat(keep, lengths))])
        self._lengths.append(lengths[keep])

    def pair_key(self) -> np.ndarray:
        """The round's (member, co-member) pairs as one unsorted
        ``u * n + co`` key of dtype :func:`pair_key_dtype`."""
        if not self._members:
            return np.empty(0, dtype=pair_key_dtype(self.num_nodes))
        return tile_pair_key(
            np.concatenate(self._members),
            np.concatenate(self._lengths),
            self.co_samples,
            self.num_nodes,
        )

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All collected (member, co-member) pairs, decoded from the key."""
        return np.divmod(self.pair_key().astype(np.int64), self.num_nodes)

    def locality_counts(self) -> np.ndarray:
        """Stage-1 locality per node: sampled same-sector co-accesses."""
        u, co = self.pairs()
        if not u.size:
            return np.zeros(self.num_nodes, dtype=np.int64)
        same = (u // self.sector_width) == (co // self.sector_width)
        return np.bincount(u[same], minlength=self.num_nodes)

    def reset(self) -> None:
        """Clear all accumulated samples (start of a new round)."""
        self.observed_edges = 0
        self.sampled_tiles = 0
        self._members.clear()
        self._lengths.clear()


def exact_locality_counts(
    edge_dst: np.ndarray,
    segment_starts: np.ndarray,
    num_nodes: int,
    sector_width: int,
) -> np.ndarray:
    """Exact (non-sampled) Algorithm-4 locality counts, for tests.

    For every tile and every member ``u``, adds the number of other tile
    members in ``u``'s sector.
    """
    edge_dst = np.asarray(edge_dst, dtype=np.int64)
    locality = np.zeros(num_nodes, dtype=np.int64)
    if edge_dst.size == 0:
        return locality
    starts = np.asarray(segment_starts, dtype=np.int64)
    lengths = np.diff(np.append(starts, edge_dst.size))
    seg_of = np.repeat(np.arange(starts.size, dtype=np.int64), lengths)
    sectors = edge_dst // sector_width
    order = np.lexsort((sectors, seg_of))
    s_sorted = sectors[order]
    g_sorted = seg_of[order]
    run_start = np.ones(edge_dst.size, dtype=bool)
    run_start[1:] = (s_sorted[1:] != s_sorted[:-1]) | (g_sorted[1:] != g_sorted[:-1])
    run_ids = np.cumsum(run_start) - 1
    run_sizes = np.bincount(run_ids)
    per_elem = run_sizes[run_ids] - 1
    np.add.at(locality, edge_dst[order], per_elem)
    return locality
