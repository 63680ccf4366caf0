"""Unit tests for the COO edge-list representation."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.coo import COOGraph


def make(src, dst, n=10):
    return COOGraph(n, np.array(src), np.array(dst))


class TestConstruction:
    def test_basic(self):
        g = make([0, 1], [1, 2])
        assert g.num_nodes == 10
        assert g.num_edges == 2

    def test_empty(self):
        g = make([], [])
        assert g.num_edges == 0

    def test_zero_nodes(self):
        g = COOGraph(0, np.array([]), np.array([]))
        assert g.num_nodes == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(GraphFormatError):
            make([0, 1], [1])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphFormatError):
            make([0], [10])
        with pytest.raises(GraphFormatError):
            make([-1], [0])

    def test_negative_num_nodes_rejected(self):
        with pytest.raises(GraphFormatError):
            COOGraph(-1, np.array([]), np.array([]))

    def test_2d_arrays_rejected(self):
        with pytest.raises(GraphFormatError):
            COOGraph(4, np.zeros((2, 2), dtype=np.int64),
                     np.zeros((2, 2), dtype=np.int64))


class TestTransformations:
    def test_sorted(self):
        g = make([2, 0, 1, 0], [0, 3, 1, 1]).sorted()
        assert g.src.tolist() == [0, 0, 1, 2]
        assert g.dst.tolist() == [1, 3, 1, 0]

    def test_deduplicated(self):
        g = make([0, 0, 0, 1], [1, 1, 2, 0]).deduplicated()
        assert g.num_edges == 3
        assert g.src.tolist() == [0, 0, 1]
        assert g.dst.tolist() == [1, 2, 0]

    def test_dedup_empty(self):
        assert make([], []).deduplicated().num_edges == 0

    def test_without_self_loops(self):
        g = make([0, 1, 2], [0, 2, 2]).without_self_loops()
        assert g.src.tolist() == [1]

    def test_symmetrized(self):
        g = make([0, 1], [1, 2]).symmetrized()
        pairs = set(zip(g.src.tolist(), g.dst.tolist()))
        assert pairs == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_symmetrize_idempotent(self):
        g = make([0, 3, 5], [1, 4, 0]).symmetrized()
        again = g.symmetrized()
        assert again.num_edges == g.num_edges

    def test_reversed(self):
        g = make([0, 1], [2, 3]).reversed()
        assert g.src.tolist() == [2, 3]
        assert g.dst.tolist() == [0, 1]


class TestDegrees:
    def test_out_degrees(self):
        g = make([0, 0, 1], [1, 2, 2])
        assert g.out_degrees().tolist() == [2, 1, 0, 0, 0, 0, 0, 0, 0, 0]

