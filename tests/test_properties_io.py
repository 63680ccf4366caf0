"""Tests for graph statistics and file IO."""

import numpy as np
import pytest

from repro.graph import generators as gen
from repro.graph import io
from repro.graph.csr import CSRGraph
from repro.graph.properties import (
    degree_stats,
    gini_coefficient,
    id_locality,
    sector_span,
)


class TestGini:
    def test_uniform_is_zero(self):
        assert gini_coefficient(np.full(100, 7.0)) == pytest.approx(0.0, abs=1e-9)

    def test_concentrated_is_high(self):
        values = np.zeros(100)
        values[0] = 100.0
        assert gini_coefficient(values) > 0.9

    def test_empty(self):
        assert gini_coefficient(np.array([])) == 0.0

    def test_all_zero(self):
        assert gini_coefficient(np.zeros(5)) == 0.0


class TestDegreeStats:
    def test_star(self):
        stats = degree_stats(gen.star_graph(11))
        assert stats.maximum == 10
        assert stats.mean == pytest.approx(10 / 11)

    def test_empty_graph(self):
        g = CSRGraph.from_edges(0, np.array([], dtype=int),
                                np.array([], dtype=int))
        stats = degree_stats(g)
        assert stats.num_nodes == 0


class TestLocality:
    def test_path_is_fully_local(self):
        assert id_locality(gen.path_graph(50), 1) == 1.0

    def test_sector_span_dense_adjacency(self):
        # node 0 -> {1..8} with sector width 8 spans exactly 2 sectors
        g = CSRGraph.from_edges(
            10, np.zeros(8, dtype=int), np.arange(1, 9)
        )
        assert sector_span(g) == pytest.approx(2.0)

    def test_sector_span_scattered(self):
        g = CSRGraph.from_edges(
            100, np.zeros(5, dtype=int), np.array([0, 20, 40, 60, 80])
        )
        assert sector_span(g) == pytest.approx(5.0)

    def test_sector_span_empty(self):
        g = CSRGraph.from_edges(4, np.array([], dtype=int),
                                np.array([], dtype=int))
        assert sector_span(g) == 0.0

    def test_sector_span_multiple_nodes(self):
        g = CSRGraph.from_edges(
            20, np.array([0, 0, 1, 1]), np.array([0, 1, 8, 16])
        )
        # node 0: one sector; node 1: two sectors -> average 1.5
        assert sector_span(g) == pytest.approx(1.5)


class TestEdgeListIO:
    def test_roundtrip(self, tmp_path, tiny_graph):
        path = tmp_path / "graph.txt"
        io.write_edge_list(tiny_graph, path)
        back = io.read_edge_list(path)
        assert back.num_nodes == tiny_graph.num_nodes
        assert np.array_equal(back.targets, tiny_graph.targets)

    def test_read_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        g = io.read_edge_list(path)
        assert g.num_edges == 0

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n0 1\n# mid\n1 2\n")
        g = io.read_edge_list(path)
        assert g.num_edges == 2
