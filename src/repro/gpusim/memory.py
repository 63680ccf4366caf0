"""Sector-granular memory access model.

GPUs move data in fixed-size sectors (32 B; four per 128 B cache line,
paper Section 2.1).  A cooperative tile reading ``m`` scattered node
values therefore costs ``count(distinct(floor(id / sector_width)))``
transactions — the exact quantity the Sampling-based Reordering objective
minimizes (paper Section 6).

This module provides vectorized distinct-sector counting over segmented
access batches plus an LRU cache used both exactly (tests, profiling) and
as a sampled estimator inside the cost model.

Hot-path discipline (see DESIGN.md "Hot-path complexity budgets"): every
function here runs once per simulated kernel, so each is bounded by
O(E) or O(E log E) vectorized work with no per-element Python loops.
Reference implementations (``*_reference`` / :class:`ReferenceLRUCache`)
retain the straightforward formulations; the equivalence property tests
in ``tests/test_hotpath_equivalence.py`` pin the optimized paths to them
bit-for-bit.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.errors import InvalidParameterError


def dtype_address_capacity(dtype: np.dtype) -> int | None:
    """Largest value an integer dtype can hold, or None for non-integers.

    The sanitizer's dtype-narrowing check: index arrays take part in
    address arithmetic (``id * value_bytes``, sector ids), so a batch
    carried in a dtype whose capacity is below the largest byte address
    silently wraps.  Floating/object dtypes return None (no fixed
    integer capacity to check against).
    """
    dtype = np.dtype(dtype)
    if dtype.kind not in ("i", "u"):
        return None
    return int(np.iinfo(dtype).max)


def sector_ids(addresses: np.ndarray, sector_width: int) -> np.ndarray:
    """Map element indices to sector ids."""
    if sector_width < 1:
        raise InvalidParameterError("sector_width must be >= 1")
    return np.asarray(addresses, dtype=np.int64) // sector_width


def distinct_count(values: np.ndarray) -> int:
    """Number of distinct values in a non-negative int array.

    Equivalent to ``np.unique(values).size`` but bincount-based — O(n +
    max) instead of hash/sort based — which is several times faster for
    the dense id ranges graph kernels produce (node ids < |V|).  Falls
    back to a sort and an adjacent-difference count when the value range
    is too sparse for a dense count array to pay off.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        return 0
    max_value = int(values.max())
    if max_value <= 16 * values.size + 1024:
        return int(np.count_nonzero(np.bincount(values, minlength=max_value + 1)))
    ordered = np.sort(values)
    return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))


def level_distinct_counts(keys: np.ndarray, levels: int, span: int) -> np.ndarray:
    """Distinct values of each level in a batch of ``level * span + value``
    keys (``0 <= value < span``): :func:`distinct_count` of every level
    at once, by one dense count or one sort of the whole batch."""
    if levels * span <= 16 * keys.size + 1024:
        counts = np.bincount(keys, minlength=levels * span)
        return (counts.reshape(levels, span) != 0).sum(axis=1)
    ordered = np.sort(keys)
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return np.bincount(ordered[first] // span, minlength=levels)


def distinct_sectors(addresses: np.ndarray, sector_width: int) -> int:
    """Number of distinct sectors touched by one access batch."""
    if len(addresses) == 0:
        return 0
    return distinct_count(sector_ids(addresses, sector_width))


def _segment_bounds(
    addresses: np.ndarray, segment_starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validated (bounds, lengths) of a segmented batch."""
    starts = np.asarray(segment_starts, dtype=np.int64)
    bounds = np.append(starts, addresses.size)
    lengths = np.diff(bounds)
    if np.any(lengths < 0) or (starts.size and starts[0] != 0):
        raise InvalidParameterError("segment_starts must be sorted from 0")
    return bounds, lengths


def segmented_distinct_sectors(
    addresses: np.ndarray,
    segment_starts: np.ndarray,
    sector_width: int,
    *,
    presorted: bool = False,
) -> np.ndarray:
    """Distinct sector count per segment of a concatenated access array.

    Args:
        addresses: concatenated element indices of all segments.
        segment_starts: start offset of each segment; segment ``i`` is
            ``addresses[segment_starts[i]:segment_starts[i + 1]]`` with an
            implicit final boundary at ``len(addresses)``.
        sector_width: elements per sector.
        presorted: set when every segment is individually sorted (true for
            tiles cut from CSR adjacency slices) to skip the per-segment
            sort.

    Returns:
        int64 array with one distinct-sector count per segment.

    Distinct count per sorted segment is one plus the number of internal
    sector jumps; per-segment totals come from binary-searching the
    segment bounds against the sorted jump positions (no scatter-add, no
    full-length prefix sum).  The unsorted path sorts one composite
    ``segment * span + sector`` key — a single flat int64 sort instead of
    a two-key lexsort.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    starts = np.asarray(segment_starts, dtype=np.int64)
    n_seg = starts.size
    if n_seg == 0:
        return np.zeros(0, dtype=np.int64)
    bounds, lengths = _segment_bounds(addresses, starts)
    if addresses.size == 0:
        return np.zeros(n_seg, dtype=np.int64)
    secs = sector_ids(addresses, sector_width)
    if not presorted:
        lo = int(secs.min())
        span = int(secs.max()) - lo + 1
        if span * n_seg < 2**62:
            seg_of = np.repeat(np.arange(n_seg, dtype=np.int64), lengths)
            key = seg_of * span + (secs - lo)
            key.sort()
            secs = key  # keys of different segments never collide
        else:  # pragma: no cover - astronomically sparse ranges
            seg_of = np.repeat(np.arange(n_seg, dtype=np.int64), lengths)
            order = np.lexsort((secs, seg_of))
            secs = secs[order]
    jumps = np.empty(addresses.size, dtype=bool)
    jumps[0] = True
    np.not_equal(secs[1:], secs[:-1], out=jumps[1:])
    # First element of each non-empty segment opens a new sector; empty
    # segments (start == end, possibly == len) have nothing to mark.
    jumps[starts[starts < addresses.size]] = True
    jump_pos = np.flatnonzero(jumps)
    edges = np.searchsorted(jump_pos, bounds)
    return edges[1:] - edges[:-1]


def segmented_distinct_sectors_reference(
    addresses: np.ndarray,
    segment_starts: np.ndarray,
    sector_width: int,
    *,
    presorted: bool = False,
) -> np.ndarray:
    """Pre-optimization formulation (lexsort + scatter-add), kept as the
    equivalence-test reference for :func:`segmented_distinct_sectors`."""
    addresses = np.asarray(addresses, dtype=np.int64)
    starts = np.asarray(segment_starts, dtype=np.int64)
    n_seg = starts.size
    if n_seg == 0:
        return np.zeros(0, dtype=np.int64)
    _, lengths = _segment_bounds(addresses, starts)
    secs = sector_ids(addresses, sector_width)
    if not presorted and addresses.size:
        seg_of = np.repeat(np.arange(n_seg, dtype=np.int64), lengths)
        order = np.lexsort((secs, seg_of))
        secs = secs[order]
    counts = np.zeros(n_seg, dtype=np.int64)
    if addresses.size == 0:
        return counts
    jumps = np.zeros(addresses.size, dtype=bool)
    jumps[1:] = np.diff(secs) != 0
    jumps[starts[starts < addresses.size]] = True
    np.add.at(counts, np.repeat(np.arange(n_seg), lengths), jumps.astype(np.int64))
    return counts


def coalesced_sectors(
    batch_sizes: np.ndarray,
    sector_width: int,
    *,
    aligned: bool,
) -> np.ndarray:
    """Sectors consumed by contiguous (coalesced) reads per batch.

    CSR adjacency reads by a tile are contiguous: a tile of ``s`` lanes
    reads ``s`` consecutive array elements.  Aligned tiles (SAGE's tile
    alignment, Section 5.3) touch ``ceil(s / w)`` sectors; unaligned reads
    straddle one extra sector whenever ``s`` is not a multiple of ``w``'s
    phase, modeled as a +1 for any batch not a multiple of the width.
    """
    sizes = np.asarray(batch_sizes, dtype=np.int64)
    base = -(-sizes // sector_width)  # ceil division
    if aligned:
        return base
    straddle = (sizes % sector_width != 0) | (sizes >= sector_width)
    return base + straddle.astype(np.int64)


def _permutation_prefix_counts(
    perm: np.ndarray, t_ranks: np.ndarray, p_limits: np.ndarray
) -> np.ndarray:
    """For each query ``i``: ``#{r < t_ranks[i] : perm[r] < p_limits[i]}``.

    2D dominance counting over a permutation-like array by binary range
    decomposition (the mergesort/wavelet-tree idea, fully vectorized).
    ``perm`` is padded to a power-of-two length with a sentinel that no
    query limit exceeds; at level ``l`` the working array is sorted
    within aligned blocks of width ``2**l``, and every query whose
    threshold has bit ``l`` set resolves one aligned block of its
    ``[0, t)`` prefix with a single global ``searchsorted`` — block
    offsets of ``size + 1`` make the blockwise-sorted array globally
    strictly increasing, so one call answers all queries of the level.
    Pairwise-merging blocks between levels costs ``O(n log n)`` per
    level: ``O(n log^2 n)`` total with ``O(n)`` live memory, which is
    what lets the LRU model take arbitrarily large batches whole instead
    of chunking them.
    """
    n = perm.size
    n_queries = t_ranks.size
    if n == 0 or n_queries == 0:
        return np.zeros(n_queries, dtype=np.int64)
    n_bits = max(1, int(n - 1).bit_length())
    size = 1 << n_bits
    # Sentinel `n`: every real limit satisfies p_limits <= n, so padded
    # slots can never be counted.
    vals = np.full(size, n, dtype=np.int64)
    vals[:n] = perm
    out = np.zeros(n_queries, dtype=np.int64)
    block_of = np.arange(size, dtype=np.int64)
    # Levels above the highest set bit of any threshold resolve no
    # queries; `np.sort` over width-2**l rows is correct regardless of
    # the previous level's state, so skipped levels cost nothing.
    max_level = min(n_bits, int(t_ranks.max()).bit_length() - 1)
    for level in range(max_level + 1):
        selected = np.flatnonzero((t_ranks >> level) & 1)
        if selected.size == 0:
            continue
        if level > 0:
            vals = np.sort(vals.reshape(-1, 1 << level), axis=1).ravel()
        # The [0, t) prefix decomposes into one aligned block per set
        # bit of t; bit `level`'s block starts at t with bits 0..level
        # cleared and spans 2**level elements, sorted at this level.
        starts = t_ranks[selected] & ~np.int64((2 << level) - 1)
        aug = vals + (block_of >> level) * np.int64(size + 1)
        keys = p_limits[selected] + (starts >> level) * np.int64(size + 1)
        # Searching the keys in sorted order keeps consecutive binary
        # searches on overlapping cache lines — ~4x faster than probing
        # in arrival order once `aug` falls out of L2.
        order = np.argsort(keys)
        idx = np.empty(keys.size, dtype=np.int64)
        idx[order] = np.searchsorted(aug, keys[order], side="left")
        out[selected] += idx - starts
    return out


def _prefix_dominance_counts(
    values: np.ndarray, q_pos: np.ndarray, q_val: np.ndarray
) -> np.ndarray:
    """For each query ``t``: ``#{j < q_pos[t] : values[j] <= q_val[t]}``.

    The workhorse of the batched LRU stack-distance computation.  Small
    problems take one dense 2D comparison; larger ones are reduced to
    permutation dominance counting: rank-compress the values (a stable
    argsort is a permutation even with ties), turn each value threshold
    into a rank threshold with one ``searchsorted``, and hand the
    position/rank dominance problem to
    :func:`_permutation_prefix_counts` (``O((n + q) log^2 n)`` time,
    ``O(n + q)`` memory).
    """
    n = values.size
    n_queries = q_pos.size
    if n == 0 or n_queries == 0:
        return np.zeros(n_queries, dtype=np.int64)
    if n * n_queries <= 1 << 18:
        lanes = np.arange(n, dtype=np.int64)
        return np.count_nonzero(
            (lanes[None, :] < q_pos[:, None]) & (values[None, :] <= q_val[:, None]),
            axis=1,
        ).astype(np.int64)
    # Rank-compress: rank[j] = position of values[j] in sorted order
    # (ties broken by position), so "values[j] <= X" becomes
    # "rank[j] < searchsorted(sorted_values, X, 'right')".
    order = np.argsort(values, kind="stable")
    thresholds = np.searchsorted(values[order], q_val, side="right")
    # Count ranks r < threshold whose original position order[r] < q_pos.
    return _permutation_prefix_counts(order, thresholds, q_pos)


class LRUCacheModel:
    """Exact LRU cache over sector ids, batch-vectorized.

    Used to measure hit rates of small traces exactly (tests and the
    profiler) — the cost model uses :func:`estimate_dram_sectors` for
    speed on large traces.

    :meth:`access` exploits the LRU stack (inclusion) property: an access
    hits iff fewer than ``capacity`` distinct sectors were touched since
    the sector's previous access.  Stack distances for the whole batch
    are computed with :func:`_prefix_dominance_counts` instead of
    walking an ordered dict per sector; its ``O(n log^2 n)``-time,
    ``O(n)``-memory dominance counter keeps arbitrarily large batches in
    one vectorized pass (no chunking).  Results are bit-identical to
    :class:`ReferenceLRUCache` (property-tested).
    """

    def __init__(self, capacity_sectors: int) -> None:
        if capacity_sectors < 1:
            raise InvalidParameterError("cache capacity must be >= 1")
        self.capacity = capacity_sectors
        self.hits = 0
        self.misses = 0
        self._time = 0
        # Sorted distinct sectors ever touched + their last access times.
        self._sectors = np.empty(0, dtype=np.int64)
        self._times = np.empty(0, dtype=np.int64)
        self._times_sorted = np.empty(0, dtype=np.int64)

    def access(self, sectors: np.ndarray | list[int]) -> int:
        """Touch sectors in order; returns the number of misses added."""
        return self._access_batch(np.asarray(sectors, dtype=np.int64).ravel())

    def _access_batch(self, batch: np.ndarray) -> int:
        n = batch.size
        if n == 0:
            return 0
        t0 = self._time

        # Previous occurrence of each element within the batch (-1 when
        # the element is its sector's first batch occurrence).
        order = np.argsort(batch, kind="stable")
        sorted_secs = batch[order]
        prev_rel = np.full(n, -1, dtype=np.int64)
        if n > 1:
            same = sorted_secs[1:] == sorted_secs[:-1]
            prev_rel[order[1:]] = np.where(same, order[:-1], np.int64(-1))

        # Global previous-access time: in-batch position + t0, else the
        # stored last-access time, else -1 (never seen).
        prev_glob = np.where(prev_rel >= 0, t0 + prev_rel, np.int64(-1))
        firsts = np.flatnonzero(prev_rel < 0)
        if self._sectors.size and firsts.size:
            first_secs = batch[firsts]
            idx = np.searchsorted(self._sectors, first_secs)
            idx_c = np.minimum(idx, self._sectors.size - 1)
            found = (idx < self._sectors.size) & (self._sectors[idx_c] == first_secs)
            prev_glob[firsts] = np.where(found, self._times[idx_c], np.int64(-1))

        # An access hits iff its stack distance D — the distinct sectors
        # touched strictly between the previous access and this one — is
        # below capacity.  Most accesses are classified by O(1) bounds;
        # only the ambiguous remainder pays for exact dominance counting.
        capacity = self.capacity
        hit = np.zeros(n, dtype=bool)
        is_first = prev_rel < 0
        # firsts_in_prefix[x] = number of batch-firsts at positions < x.
        firsts_in_prefix = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(is_first)]
        )

        # Batch-first accesses: the window reaches into pre-batch state.
        # D = (state sectors last touched inside the window) + (earlier
        # firsts whose own previous access also precedes the window).
        if firsts.size:
            fprev = prev_glob[firsts]
            seen = fprev >= 0
            state_above = self._times_sorted.size - np.searchsorted(
                self._times_sorted, fprev, side="right"
            )
            first_rank = np.arange(firsts.size, dtype=np.int64)
            never_before = first_rank - np.cumsum(seen) + seen
            # Never-seen earlier firsts always land in the window; at
            # most every earlier first does.
            d_low = state_above + never_before
            d_high = state_above + first_rank
            f_hit = seen & (d_high < capacity)
            ambiguous = np.flatnonzero(seen & ~f_hit & (d_low < capacity))
            if ambiguous.size:
                # Only points at or below the largest query threshold can
                # ever be counted; dropping the rest shrinks the
                # dominance problem (order among keepers is preserved).
                keep = fprev <= fprev[ambiguous].max()
                kept_prefix = np.concatenate(
                    [np.zeros(1, dtype=np.int64), np.cumsum(keep)]
                )
                g = _prefix_dominance_counts(
                    fprev[keep],
                    kept_prefix[first_rank[ambiguous]],
                    fprev[ambiguous],
                )
                f_hit[ambiguous] = state_above[ambiguous] + g < capacity
            hit[firsts] = f_hit

        # Repeat accesses: the window lies inside the batch.  D = (firsts
        # in the window — each a fresh distinct sector) + (repeats in the
        # window whose own previous access precedes the window).
        repeats = np.flatnonzero(prev_rel >= 0)
        if repeats.size:
            p_rel = prev_rel[repeats]
            window = repeats - p_rel - 1
            f1 = firsts_in_prefix[repeats] - firsts_in_prefix[p_rel + 1]
            r_hit = window < capacity  # D <= accesses in the window
            ambiguous = np.flatnonzero(~r_hit & (f1 < capacity))
            if ambiguous.size:
                x_hi = ambiguous  # index of each query repeat among repeats
                x_lo = np.searchsorted(repeats, p_rel[ambiguous] + 1)
                v = p_rel[ambiguous]
                keep = p_rel <= v.max()
                kept_prefix = np.concatenate(
                    [np.zeros(1, dtype=np.int64), np.cumsum(keep)]
                )
                counts = _prefix_dominance_counts(
                    p_rel[keep],
                    kept_prefix[np.concatenate([x_hi, x_lo])],
                    np.concatenate([v, v]),
                )
                f2 = counts[: ambiguous.size] - counts[ambiguous.size :]
                r_hit[ambiguous] = f1[ambiguous] + f2 < capacity
            hit[repeats] = r_hit

        new_hits = int(np.count_nonzero(hit))
        new_misses = n - new_hits
        self.hits += new_hits
        self.misses += new_misses
        self._time = t0 + n

        # Fold the batch into the state: last access time per sector.
        run_ends = np.flatnonzero(
            np.append(sorted_secs[1:] != sorted_secs[:-1], True)
        )
        batch_uniq = sorted_secs[run_ends]
        batch_last = t0 + order[run_ends]
        stale_times = np.empty(0, dtype=np.int64)
        if self._sectors.size:
            idx = np.searchsorted(self._sectors, batch_uniq)
            idx_c = np.minimum(idx, self._sectors.size - 1)
            found = (idx < self._sectors.size) & (self._sectors[idx_c] == batch_uniq)
            stale_times = np.sort(self._times[idx_c[found]])
            self._times[idx_c[found]] = batch_last[found]
            fresh = ~found
        else:
            fresh = np.ones(batch_uniq.size, dtype=bool)
        if fresh.any():
            insert_at = np.searchsorted(self._sectors, batch_uniq[fresh])
            self._sectors = np.insert(self._sectors, insert_at, batch_uniq[fresh])
            self._times = np.insert(self._times, insert_at, batch_last[fresh])
        # Every new time exceeds every retained one, so the sorted-times
        # update is drop-stale + append-sorted-batch, no full re-sort.
        retained = self._times_sorted
        if stale_times.size:
            retained = np.delete(retained, np.searchsorted(retained, stale_times))
        self._times_sorted = np.concatenate([retained, np.sort(batch_last)])

        # Prune to the `capacity` most recent distinct sectors — the LRU
        # stack property makes older entries irrelevant: their next
        # access has stack distance >= capacity (a certain miss, which
        # the never-seen classification reports), and they cannot appear
        # in any other access's reuse window (a window sector's last
        # touch lies inside the window, i.e. after every pruned time).
        # Keeps every state-sized merge pass O(capacity + batch) instead
        # of O(distinct sectors ever).
        if self._sectors.size > capacity:
            keep = self._times >= self._times_sorted[-capacity]
            self._sectors = self._sectors[keep]
            self._times = self._times[keep]
            self._times_sorted = self._times_sorted[-capacity:]
        return new_misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self._time = 0
        self._sectors = np.empty(0, dtype=np.int64)
        self._times = np.empty(0, dtype=np.int64)
        self._times_sorted = np.empty(0, dtype=np.int64)


class ReferenceLRUCache:
    """The original per-sector Python loop, kept as the equivalence-test
    reference for :class:`LRUCacheModel`."""

    def __init__(self, capacity_sectors: int) -> None:
        if capacity_sectors < 1:
            raise InvalidParameterError("cache capacity must be >= 1")
        self.capacity = capacity_sectors
        self._entries: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, sectors: np.ndarray | list[int]) -> int:
        misses = 0
        entries = self._entries
        for s in np.asarray(sectors, dtype=np.int64).tolist():
            if s in entries:
                entries.move_to_end(s)
                self.hits += 1
            else:
                entries[s] = None
                self.misses += 1
                misses += 1
                if len(entries) > self.capacity:
                    entries.popitem(last=False)
        return misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


def estimate_dram_sectors(
    touches: int,
    unique: int,
    capacity_sectors: int,
) -> float:
    """Estimate DRAM sector transactions behind an L2 of given capacity.

    A kernel touches ``touches`` sectors of which ``unique`` are distinct.
    Cold misses cost ``unique``.  Repeat touches hit if the working set
    fits in L2, and degrade linearly with the overflow ratio otherwise:

        dram = unique + (touches - unique) * max(0, 1 - capacity / unique)

    Monotone in both arguments and exact at the fits-entirely and
    no-reuse extremes, which is all the comparisons need.
    """
    if touches < unique or unique < 0:
        raise InvalidParameterError("need touches >= unique >= 0")
    if unique == 0:
        return 0.0
    repeat = touches - unique
    overflow = max(0.0, 1.0 - capacity_sectors / unique)
    return unique + repeat * overflow
