"""Tests for the pull (gather) PageRank variant."""

import numpy as np
import pytest

from repro.apps import PageRankApp, PageRankPullApp
from repro.core import SageScheduler, run_app
from tests.conftest import pagerank_oracle


class TestPullPageRank:
    def test_matches_push_exactly(self, skewed_graph):
        push = run_app(
            skewed_graph, PageRankApp(max_iterations=60, tolerance=1e-13),
            SageScheduler(),
        ).result["pagerank"]
        pull = run_app(
            skewed_graph.reversed(),
            PageRankPullApp(max_iterations=60, tolerance=1e-13),
            SageScheduler(),
        ).result["pagerank"]
        assert np.allclose(push, pull, atol=1e-10)

    def test_matches_networkx(self, web_graph):
        pull = run_app(
            web_graph.reversed(),
            PageRankPullApp(max_iterations=200, tolerance=1e-13),
            SageScheduler(),
        ).result["pagerank"]
        assert np.allclose(pull, pagerank_oracle(web_graph), atol=1e-6)

    def test_no_atomic_conflicts(self, skewed_graph):
        result = run_app(
            skewed_graph.reversed(), PageRankPullApp(max_iterations=5),
            SageScheduler(),
        )
        assert result.profiler.atomic_conflicts == 0.0

    def test_dangling_handling(self):
        from repro.graph.csr import CSRGraph
        g = CSRGraph.from_edges(3, np.array([0]), np.array([1]))
        pull = run_app(
            g.reversed(), PageRankPullApp(max_iterations=100,
                                          tolerance=1e-13),
            SageScheduler(),
        ).result["pagerank"]
        assert pull.sum() == pytest.approx(1.0)
        assert np.allclose(pull, pagerank_oracle(g), atol=1e-6)

    def test_early_convergence_counter(self, tiny_graph):
        app = PageRankPullApp(max_iterations=500, tolerance=1e-10)
        result = run_app(tiny_graph.reversed(), app, SageScheduler())
        assert result.iterations < 500
