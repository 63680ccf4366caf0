"""Equivalence properties for the vectorized hot paths.

Every rewrite in the throughput pass keeps its pre-optimization
formulation as an importable reference; these properties assert the
rewritten kernels are *bit-for-bit identical* to those references —
including the shapes perf rewrites classically get wrong: empty
segments, single-node frontiers, all-duplicate destinations, degree-0
hubs, and LRU batches that straddle the internal chunk boundary.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import contract
from repro.core.tiling import decompose_frontier, decompose_frontier_reference
from repro.gpusim.memory import (
    LRUCacheModel,
    ReferenceLRUCache,
    distinct_count,
    segmented_distinct_sectors,
    segmented_distinct_sectors_reference,
)


def segmented_case():
    """(addresses, segment_starts) with empty/duplicate-heavy segments."""
    return st.tuples(
        st.lists(st.integers(0, 97), max_size=120),
        st.data(),
    )


def _starts_for(n, data):
    # Draw start offsets in [0, n]; duplicates make empty segments and a
    # start == n makes a trailing empty segment — both must count as 0.
    k = data.draw(st.integers(0, 12), label="n_segments_extra")
    extra = sorted(
        data.draw(st.lists(st.integers(0, n), min_size=k, max_size=k), label="starts")
    )
    return np.array([0, *extra], dtype=np.int64)


class TestSegmentedDistinctSectors:
    @settings(max_examples=120, deadline=None)
    @given(segmented_case())
    def test_unsorted_matches_reference(self, case):
        values, data = case
        addresses = np.asarray(values, dtype=np.int64)
        starts = _starts_for(addresses.size, data)
        np.testing.assert_array_equal(
            segmented_distinct_sectors(addresses, starts, 8),
            segmented_distinct_sectors_reference(addresses, starts, 8),
        )

    @settings(max_examples=120, deadline=None)
    @given(segmented_case())
    def test_presorted_matches_reference(self, case):
        values, data = case
        addresses = np.asarray(values, dtype=np.int64)
        starts = _starts_for(addresses.size, data)
        bounds = np.append(starts, addresses.size)
        for i in range(starts.size):
            addresses[bounds[i] : bounds[i + 1]].sort()
        np.testing.assert_array_equal(
            segmented_distinct_sectors(addresses, starts, 8, presorted=True),
            segmented_distinct_sectors_reference(addresses, starts, 8, presorted=True),
        )

    def test_all_duplicate_destinations(self):
        # A hub frontier: every lane loads the same neighbor.
        addresses = np.full(64, 7, dtype=np.int64)
        starts = np.array([0, 16, 16, 32, 64], dtype=np.int64)
        result = segmented_distinct_sectors(addresses, starts, 8)
        np.testing.assert_array_equal(result, [1, 0, 1, 1, 0])
        np.testing.assert_array_equal(
            result,
            segmented_distinct_sectors_reference(addresses, starts, 8),
        )

    def test_all_segments_empty(self):
        addresses = np.empty(0, dtype=np.int64)
        starts = np.zeros(5, dtype=np.int64)
        for fn in (segmented_distinct_sectors, segmented_distinct_sectors_reference):
            np.testing.assert_array_equal(fn(addresses, starts, 8), np.zeros(5, dtype=np.int64))

    def test_no_segments(self):
        empty = np.empty(0, dtype=np.int64)
        for fn in (segmented_distinct_sectors, segmented_distinct_sectors_reference):
            assert fn(empty, empty, 8).size == 0


def lru_trace():
    # Mix of locality regimes, including immediate re-touches (stack
    # distance 0) and values far beyond any capacity under test.
    return st.lists(st.integers(0, 40), min_size=0, max_size=300)


class TestLRUCacheModelEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(lru_trace(), st.integers(1, 12))
    def test_matches_reference(self, trace, capacity):
        model = LRUCacheModel(capacity)
        reference = ReferenceLRUCache(capacity)
        model.access(trace)
        reference.access(trace)
        assert (model.hits, model.misses) == (reference.hits, reference.misses)

    @settings(max_examples=60, deadline=None)
    @given(lru_trace(), st.integers(1, 12), st.data())
    def test_split_batches_equal_one_batch(self, trace, capacity, data):
        # LRU over a concatenated stream must equal sequential batches —
        # the property the internal chunking relies on; state carried
        # across access() calls (and across the pruning pass) is covered
        # by cutting the trace at arbitrary points.
        cut = data.draw(st.integers(0, len(trace)), label="cut")
        split = LRUCacheModel(capacity)
        split.access(trace[:cut])
        split.access(trace[cut:])
        whole = LRUCacheModel(capacity)
        whole.access(trace)
        assert (split.hits, split.misses) == (whole.hits, whole.misses)

    @pytest.mark.parametrize("capacity", [1, 3, 64, 2048, 5000])
    def test_chunk_boundary_regimes(self, capacity):
        # Deterministic trace longer than _CHUNK so every run exercises
        # the chunked path, the state merge, and the capacity pruning.
        rng = np.random.default_rng(5)
        trace = np.concatenate(
            [
                rng.integers(0, 8000, size=3000),  # scattered
                np.abs(np.cumsum(rng.integers(-4, 5, size=3000))) % 512,  # local walk
                np.full(100, 3, dtype=np.int64),  # hot line
            ]
        )
        model = LRUCacheModel(capacity)
        reference = ReferenceLRUCache(capacity)
        model.access(trace)
        reference.access(trace)
        assert (model.hits, model.misses) == (reference.hits, reference.misses)


def degree_arrays():
    return st.lists(st.integers(0, 600), min_size=0, max_size=60)


def _assert_decompositions_equal(fast, ref):
    np.testing.assert_array_equal(fast.tile_frontier_idx, ref.tile_frontier_idx)
    np.testing.assert_array_equal(fast.tile_sizes, ref.tile_sizes)
    np.testing.assert_array_equal(fast.tile_local_offsets, ref.tile_local_offsets)
    np.testing.assert_array_equal(fast.fragment_frontier_idx, ref.fragment_frontier_idx)
    np.testing.assert_array_equal(fast.fragment_sizes, ref.fragment_sizes)
    np.testing.assert_array_equal(fast.fragment_local_offsets, ref.fragment_local_offsets)
    assert fast.elections == ref.elections
    assert fast.levels == ref.levels


class TestDecomposeFrontierEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(degree_arrays(), st.sampled_from([64, 128, 256]))
    def test_matches_reference(self, degrees, block_size):
        degrees = np.asarray(degrees, dtype=np.int64)
        _assert_decompositions_equal(
            decompose_frontier(degrees, block_size),
            decompose_frontier_reference(degrees, block_size),
        )

    def test_single_node_frontier(self):
        for degree in (0, 1, 7, 8, 255, 256, 1000):
            degrees = np.array([degree], dtype=np.int64)
            _assert_decompositions_equal(
                decompose_frontier(degrees, 256),
                decompose_frontier_reference(degrees, 256),
            )

    def test_degree_zero_hubs_interleaved(self):
        # Isolated nodes sprinkled between hubs: they must produce no
        # tiles, no fragments, and no elections — and not shift the
        # frontier indices of their neighbors.
        degrees = np.array([0, 4096, 0, 0, 513, 0, 8, 0], dtype=np.int64)
        fast = decompose_frontier(degrees, 512)
        _assert_decompositions_equal(fast, decompose_frontier_reference(degrees, 512))
        covered = np.union1d(fast.tile_frontier_idx, fast.fragment_frontier_idx)
        np.testing.assert_array_equal(covered, [1, 4, 6])


class TestDedupeEquivalence:
    """``contract`` and ``distinct_count`` against ``np.unique``."""

    CASES = {
        "empty": np.empty(0, dtype=np.int64),
        "all_duplicate": np.full(300, 41, dtype=np.int64),
        "int32": np.array([9, 3, 3, 7, 0, 9], dtype=np.int32),
        "dense": np.random.default_rng(0).integers(0, 500, 2000),
        "sparse": np.random.default_rng(1).integers(0, 2**40, 2000),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_contract_matches_unique(self, name):
        values = self.CASES[name]
        got = contract(values)
        want = np.unique(values) if values.size else values.astype(np.int64)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_distinct_count_matches_unique(self, name):
        values = self.CASES[name]
        assert distinct_count(values) == np.unique(values).size

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2**45), max_size=200), st.booleans())
    def test_random_ranges(self, values, sparse):
        values = np.asarray(values if sparse else [v % 97 for v in values], dtype=np.int64)
        np.testing.assert_array_equal(contract(values), np.unique(values))
        assert distinct_count(values) == np.unique(values).size
