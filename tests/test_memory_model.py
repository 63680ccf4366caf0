"""Tests for the sector memory model and cache estimators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.gpusim.memory import (
    coalesced_sectors,
    distinct_sectors,
    estimate_dram_sectors,
    sector_ids,
    segmented_distinct_sectors,
)
from repro.gpusim.trace import LRUCacheModel


class TestSectorMath:
    def test_sector_ids(self):
        assert sector_ids(np.array([0, 7, 8, 15, 16]), 8).tolist() == \
            [0, 0, 1, 1, 2]

    def test_sector_ids_validation(self):
        with pytest.raises(InvalidParameterError):
            sector_ids(np.array([1]), 0)

    def test_distinct(self):
        assert distinct_sectors(np.array([0, 1, 2, 9]), 8) == 2
        assert distinct_sectors(np.array([]), 8) == 0

    def test_paper_figure5_example(self):
        # tile3 = {2, 4, 8, 9} with 4 values per sector -> 3 sectors
        assert distinct_sectors(np.array([2, 4, 8, 9]), 4) == 3


class TestSegmentedDistinct:
    def test_basic_segments(self):
        addresses = np.array([0, 1, 2, 8, 1, 2, 5, 8, 2, 4, 8, 9])
        starts = np.array([0, 4, 8])
        # paper Figure 5 tiles 1-3 with sector width 4
        counts = segmented_distinct_sectors(addresses, starts, 4)
        assert counts.tolist() == [2, 3, 3]

    def test_presorted_segments(self):
        addresses = np.array([0, 1, 8, 2, 3, 16])
        starts = np.array([0, 3])
        counts = segmented_distinct_sectors(addresses, starts, 8,
                                            presorted=True)
        assert counts.tolist() == [2, 2]

    def test_empty(self):
        out = segmented_distinct_sectors(np.array([]), np.array([]), 8)
        assert out.size == 0

    def test_single_segment(self):
        out = segmented_distinct_sectors(
            np.array([3, 11, 19]), np.array([0]), 8
        )
        assert out.tolist() == [3]

    def test_invalid_starts(self):
        with pytest.raises(InvalidParameterError):
            segmented_distinct_sectors(np.array([1, 2]), np.array([1]), 8)

    @given(
        st.lists(st.integers(0, 200), min_size=1, max_size=80),
        st.integers(1, 16),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce(self, addresses, width, data):
        addresses = np.array(addresses)
        n_segs = data.draw(st.integers(1, min(6, addresses.size)))
        cuts = sorted(data.draw(st.lists(
            st.integers(1, addresses.size - 1) if addresses.size > 1
            else st.nothing(),
            max_size=n_segs - 1, unique=True,
        )) if addresses.size > 1 else [])
        starts = np.array([0] + cuts, dtype=np.int64)
        got = segmented_distinct_sectors(addresses, starts, width)
        bounds = np.append(starts, addresses.size)
        expected = [
            len(np.unique(addresses[a:b] // width))
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
        assert got.tolist() == expected


class TestCoalesced:
    def test_aligned(self):
        out = coalesced_sectors(np.array([8, 16, 4]), 8, aligned=True)
        assert out.tolist() == [1, 2, 1]

    def test_unaligned_pays_straddle(self):
        # even a 4-wide read can straddle a boundary when unaligned
        out = coalesced_sectors(np.array([8, 16, 4]), 8, aligned=False)
        assert out.tolist() == [2, 3, 2]

    def test_alignment_never_worse(self):
        sizes = np.arange(1, 70)
        aligned = coalesced_sectors(sizes, 8, aligned=True)
        unaligned = coalesced_sectors(sizes, 8, aligned=False)
        assert np.all(aligned <= unaligned)


class TestLRU:
    def test_exact_behavior(self):
        cache = LRUCacheModel(2)
        cache.access([1, 2])          # misses
        cache.access([1])             # hit
        cache.access([3])             # miss, evicts 2
        cache.access([2])             # miss again
        assert cache.hits == 1
        assert cache.misses == 4

    def test_hit_rate(self):
        cache = LRUCacheModel(10)
        cache.access([1, 1, 1, 1])
        assert cache.hit_rate == pytest.approx(0.75)

    def test_reset(self):
        cache = LRUCacheModel(4)
        cache.access([1, 2, 3])
        cache.reset()
        assert cache.hits == 0 and cache.misses == 0
        assert cache.access([1]) == 1  # cold again

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            LRUCacheModel(0)

    @given(st.lists(st.integers(0, 40), max_size=300), st.integers(1, 16))
    @settings(max_examples=100, deadline=None)
    def test_matches_stack_distance_definition(self, trace, capacity):
        # Immediate re-touches (stack distance 0) and sectors far beyond
        # any capacity under test are both drawn.
        hits = stack_distance_hits(trace, capacity)
        cache = LRUCacheModel(capacity)
        assert cache.access(trace) == len(trace) - hits
        assert cache.hits == hits

    @pytest.mark.parametrize("capacity", [1, 3, 64, 2048, 5000])
    def test_locality_regimes_match_definition(self, capacity):
        rng = np.random.default_rng(5)
        trace = np.concatenate(
            [
                rng.integers(0, 8000, size=3000),  # scattered
                np.abs(np.cumsum(rng.integers(-4, 5, size=3000))) % 512,  # local walk
                np.full(100, 3, dtype=np.int64),  # hot line
            ]
        )
        cache = LRUCacheModel(capacity)
        cache.access(trace)
        hits = stack_distance_hits(trace.tolist(), capacity)
        assert (cache.hits, cache.misses) == (hits, trace.size - hits)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 40), max_size=300), st.integers(1, 12), st.data())
    def test_split_batches_equal_one_batch(self, trace, capacity, data):
        # State carried across access() calls: cutting the stream at
        # any point must not change a single hit.
        cut = data.draw(st.integers(0, len(trace)), label="cut")
        split = LRUCacheModel(capacity)
        split.access(trace[:cut])
        split.access(trace[cut:])
        whole = LRUCacheModel(capacity)
        whole.access(trace)
        assert (split.hits, split.misses) == (whole.hits, whole.misses)


def stack_distance_hits(trace: list[int], capacity: int) -> int:
    """Hits of an LRU cache of ``capacity`` sectors, by the definition:
    an access hits iff its sector was seen before and fewer than
    ``capacity`` distinct sectors were touched strictly between its
    previous access and it."""
    last: dict[int, int] = {}
    hits = 0
    for i, sector in enumerate(trace):
        prev = last.get(sector)
        if prev is not None and len(set(trace[prev + 1 : i])) < capacity:
            hits += 1
        last[sector] = i
    return hits


class TestDramEstimate:
    def test_fits_in_cache(self):
        # all repeats hit when the working set fits
        assert estimate_dram_sectors(1000, 100, 200) == 100

    def test_no_reuse(self):
        assert estimate_dram_sectors(100, 100, 10) == 100

    def test_overflow_interpolates(self):
        fits = estimate_dram_sectors(1000, 100, 100)
        overflow = estimate_dram_sectors(1000, 100, 50)
        assert fits == 100
        assert 100 < overflow <= 1000

    def test_monotone_in_touches(self):
        a = estimate_dram_sectors(500, 100, 50)
        b = estimate_dram_sectors(600, 100, 50)
        assert b >= a

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            estimate_dram_sectors(5, 10, 100)

    def test_zero(self):
        assert estimate_dram_sectors(0, 0, 100) == 0.0

    @given(st.integers(1, 64), st.integers(0, 64), st.data())
    @settings(max_examples=40, deadline=None)
    def test_exact_lru_agrees_when_working_set_fits(self, unique, spare, data):
        # every repeat hits: the misses are the cold ones, ``unique``
        capacity = unique + spare
        first = data.draw(st.permutations(range(unique)), label="first")
        repeats = data.draw(
            st.lists(st.integers(0, unique - 1), max_size=500), label="repeats"
        )
        stream = list(first) + repeats
        cache = LRUCacheModel(capacity)
        cache.access(stream)
        assert cache.misses == estimate_dram_sectors(
            len(stream), unique, capacity
        )

    @given(st.lists(st.integers(0, 10_000), unique=True, max_size=200),
           st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_exact_lru_agrees_without_reuse(self, stream, capacity):
        # every touch is cold, whatever the capacity
        cache = LRUCacheModel(capacity)
        cache.access(stream)
        assert cache.misses == estimate_dram_sectors(
            len(stream), len(stream), capacity
        )
