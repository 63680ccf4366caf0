"""Tests for Tiled Partitioning (Algorithm 2's decomposition)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tiling import (
    decompose_degree,
    decompose_frontier,
    tile_size_levels,
)
from repro.errors import InvalidParameterError


class TestLevels:
    def test_default_levels(self):
        assert tile_size_levels(256, 8) == [256, 128, 64, 32, 16, 8]

    def test_single_level(self):
        assert tile_size_levels(8, 8) == [8]

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            tile_size_levels(100, 8)  # not a power of two
        with pytest.raises(InvalidParameterError):
            tile_size_levels(8, 256)  # inverted


class TestDecomposeDegree:
    def test_paper_example_red_thread(self):
        # Figure 3: degree 34, block 16, min tile 8:
        # two tiles of 16 and a fragment of 2
        parts = decompose_degree(34, 16)
        assert parts == [(0, 16), (16, 16), (32, 2)]

    def test_paper_example_orange_thread(self):
        # degree 27 -> 16 + 8 + fragment 3
        parts = decompose_degree(27, 16)
        assert parts == [(0, 16), (16, 8), (24, 3)]

    def test_zero_degree(self):
        assert decompose_degree(0, 256) == []

    def test_fragment_only(self):
        assert decompose_degree(5, 256) == [(0, 5)]

    def test_exact_block(self):
        assert decompose_degree(256, 256) == [(0, 256)]

    def test_binary_digits(self):
        # 256 + 64 + 8 + 3
        parts = decompose_degree(331, 256)
        sizes = [s for _, s in parts]
        assert sizes == [256, 64, 8, 3]


class TestDecomposeFrontier:
    def test_matches_scalar_reference(self):
        degrees = np.array([34, 27, 11, 9, 1, 0, 300])
        decomp = decompose_frontier(degrees, 16, 8)
        for i, d in enumerate(degrees):
            expected = decompose_degree(int(d), 16)
            tiles = [
                (int(o), int(s)) for o, s in zip(
                    decomp.tile_local_offsets[decomp.tile_frontier_idx == i],
                    decomp.tile_sizes[decomp.tile_frontier_idx == i],
                )
            ]
            frag_mask = decomp.fragment_frontier_idx == i
            tiles += [
                (int(o), int(s)) for o, s in zip(
                    decomp.fragment_local_offsets[frag_mask],
                    decomp.fragment_sizes[frag_mask],
                )
            ]
            assert sorted(tiles) == sorted(expected)

    def test_counts(self):
        degrees = np.array([34, 27])
        decomp = decompose_frontier(degrees, 16, 8)
        assert decomp.tiled_edges + decomp.fragment_edges == 61
        assert decomp.num_tiles == 4  # node0: 16,16; node1: 16,8
        # elections: node0 once at size 16 (the tile then loops two
        # rounds); node1 at sizes 16 and 8
        assert decomp.elections == 3

    def test_empty_frontier(self):
        decomp = decompose_frontier(np.array([], dtype=np.int64), 256, 8)
        assert decomp.num_tiles == 0
        assert decomp.fragment_frontier_idx.size == 0

    def test_negative_degree_rejected(self):
        with pytest.raises(InvalidParameterError):
            decompose_frontier(np.array([-1]), 256, 8)

    def test_segment_starts_partition(self):
        degrees = np.array([34, 27, 5, 0, 100])
        decomp = decompose_frontier(degrees, 16, 8)
        cum = np.cumsum(degrees) - degrees
        starts = decomp.segment_starts(cum)
        total = int(degrees.sum())
        # starts must begin at 0, be strictly increasing, stay < total
        assert starts[0] == 0
        assert np.all(np.diff(starts) > 0)
        assert starts[-1] < total
        # segment sizes must equal the tile/fragment sizes multiset
        seg_sizes = np.diff(np.append(starts, total))
        expected = np.concatenate([decomp.tile_sizes, decomp.fragment_sizes])
        assert sorted(seg_sizes.tolist()) == sorted(expected.tolist())

    @given(
        st.lists(st.integers(0, 2000), min_size=1, max_size=60),
        st.sampled_from([(256, 8), (64, 8), (32, 16), (256, 256)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_coverage_property(self, degrees, sizes):
        """Every adjacency is covered exactly once by power-of-two tiles
        plus one fragment below MIN_TILE_SIZE."""
        block, min_tile = sizes
        degrees = np.array(degrees, dtype=np.int64)
        decomp = decompose_frontier(degrees, block, min_tile)
        # tiles are powers of two in [min_tile, block]
        if decomp.num_tiles:
            assert np.all(np.isin(
                decomp.tile_sizes,
                np.array(tile_size_levels(block, min_tile)),
            ))
        # fragments strictly below min_tile
        if decomp.fragment_sizes.size:
            assert decomp.fragment_sizes.max() < min_tile
            assert decomp.fragment_sizes.min() > 0
        # exact coverage per node
        covered = np.zeros(degrees.size, dtype=np.int64)
        np.add.at(covered, decomp.tile_frontier_idx, decomp.tile_sizes)
        np.add.at(covered, decomp.fragment_frontier_idx,
                  decomp.fragment_sizes)
        assert np.array_equal(covered, degrees)
        # offsets are disjoint: per node, sorted offsets + sizes chain up
        for i in np.unique(np.concatenate([
            decomp.tile_frontier_idx, decomp.fragment_frontier_idx
        ])):
            offs = np.concatenate([
                decomp.tile_local_offsets[decomp.tile_frontier_idx == i],
                decomp.fragment_local_offsets[
                    decomp.fragment_frontier_idx == i],
            ])
            szs = np.concatenate([
                decomp.tile_sizes[decomp.tile_frontier_idx == i],
                decomp.fragment_sizes[decomp.fragment_frontier_idx == i],
            ])
            order = np.argsort(offs)
            offs, szs = offs[order], szs[order]
            assert offs[0] == 0
            assert np.array_equal(offs[1:], (offs + szs)[:-1])
