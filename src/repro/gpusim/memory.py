"""Sector-granular memory access model.

GPUs move data in fixed-size sectors (32 B; four per 128 B cache line,
paper Section 2.1).  A cooperative tile reading ``m`` scattered node
values therefore costs ``count(distinct(floor(id / sector_width)))``
transactions — the exact quantity the Sampling-based Reordering objective
minimizes (paper Section 6).

This module provides vectorized distinct-sector counting over segmented
access batches and the analytic L2 estimate the cost model prices DRAM
traffic with (:func:`estimate_dram_sectors`).  The exact LRU cache the
estimate is checked against lives beside its one caller, in
:mod:`repro.gpusim.trace`.

Hot-path discipline (see DESIGN.md "Hot-path complexity budgets"): every
function here runs once per simulated kernel, so each is bounded by
O(E) or O(E log E) vectorized work with no per-element Python loops.
Reference implementations (``*_reference``) retain the straightforward
formulations; the equivalence property tests in
``tests/test_hotpath_equivalence.py`` pin the optimized paths to them
bit-for-bit.
"""

from __future__ import annotations

from collections.abc import Sequence

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


#: Edges per id of the range below which :func:`distinct_counts` sorts
#: a queue instead of marking a node mask.  Measured at sector width 8
#: on 2^15, 2^18 and 2^21 ids, as one kernel and as a queue of 8: at
#: 1/32 the mask is faster in every case (1.15-2.5x); at 1/48 the sort
#: already wins on the largest ranges (2^21 ids, a queue over 2^18).
SORT_COUNT_SHARE = 1 / 32

#: Word dtype that holds one sector of a boolean node mask, by width.
_SECTOR_WORDS = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def distinct_counts(
    batches: Sequence[np.ndarray], num_nodes: int, sector_width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct sectors and distinct addresses of each of a queue of
    kernels, as two int64 arrays, from one pass over their ids.

    Each batch holds node ids in ``[0, num_nodes)``.  Batch ``k`` owns
    the ids ``k * span + id`` of one boolean mask, ``span`` being
    ``num_nodes`` rounded up to ``sector_width``, so a sector never
    straddles two batches: a batch's distinct addresses are its set
    bytes, and its distinct sectors are its nonzero sector-sized words
    (widths 1, 2, 4 and 8 view the mask as one unsigned word per sector;
    other widths reduce each sector with ``any``).  A queue with fewer
    edges than ``SORT_COUNT_SHARE`` of its mask sorts the keys instead
    and counts the value and sector jumps of the sorted run.
    """
    width = int(sector_width)
    if width < 1:
        raise InvalidParameterError("sector_width must be >= 1")
    levels = len(batches)
    span = -(-max(1, num_nodes) // width) * width
    sizes = [batch.size for batch in batches]
    if not any(sizes):
        empty = np.zeros(levels, dtype=np.int64)
        return empty, empty.copy()
    if levels == 1:
        keys = batches[0]
    else:
        keys = np.concatenate(batches).astype(np.int64, copy=False)
        keys += np.repeat(np.arange(levels, dtype=np.int64) * span, sizes)
    if keys.size < SORT_COUNT_SHARE * levels * span:
        return _sorted_distinct_counts(keys, levels, span, width)
    mask = np.zeros(levels * span, dtype=bool)
    mask[keys] = True
    rows = mask.reshape(levels, span)
    word = _SECTOR_WORDS.get(width)
    if word is not None:
        sector_rows = rows.view(word)
    else:
        sector_rows = rows.reshape(levels, span // width, width).any(axis=2)
    # a flat count_nonzero per row beats an axis reduction several fold
    return (
        np.array([np.count_nonzero(row) for row in sector_rows], dtype=np.int64),
        np.array([np.count_nonzero(row) for row in rows], dtype=np.int64),
    )


def _sorted_distinct_counts(
    keys: np.ndarray, levels: int, span: int, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`distinct_counts` of ``level * span + id`` keys by one sort."""
    ordered = np.sort(keys)
    # a batch boundary is always a value and a sector jump (span % width == 0)
    bounds = np.searchsorted(ordered, np.arange(levels + 1, dtype=np.int64) * span)
    return _jumps_per_level(ordered // width, bounds), _jumps_per_level(ordered, bounds)


def _jumps_per_level(ordered: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Distinct values in each ``ordered[bounds[k]:bounds[k + 1]]``."""
    first = np.empty(ordered.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return np.diff(np.searchsorted(np.flatnonzero(first), bounds)).astype(np.int64)


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
