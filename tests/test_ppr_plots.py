"""Tests for personalized PageRank and the ASCII bar renderer."""

import networkx as nx
import numpy as np
import pytest

from repro.apps import PersonalizedPageRankApp
from repro.core import SageScheduler, run_app
from repro.errors import InvalidParameterError
from repro.graph import generators as gen
from tests.conftest import to_networkx


class TestPersonalizedPageRank:
    def test_matches_networkx(self, skewed_graph):
        source = 3
        result = run_app(
            skewed_graph,
            PersonalizedPageRankApp(max_iterations=300, tolerance=1e-13),
            SageScheduler(), source=source,
        )
        nx_ppr = nx.pagerank(
            to_networkx(skewed_graph), alpha=0.85,
            personalization={source: 1.0}, max_iter=300, tol=1e-13,
        )
        expected = np.array([nx_ppr[i]
                             for i in range(skewed_graph.num_nodes)])
        assert np.allclose(result.result["ppr"], expected, atol=1e-6)

    def test_mass_conserved(self, web_graph):
        result = run_app(
            web_graph, PersonalizedPageRankApp(max_iterations=200),
            SageScheduler(), source=0,
        )
        assert result.result["ppr"].sum() == pytest.approx(1.0)

    def test_source_dominates_nearby(self):
        g = gen.path_graph(10)
        scores = run_app(
            g, PersonalizedPageRankApp(max_iterations=200),
            SageScheduler(), source=0,
        ).result["ppr"]
        # proximity ordering along the path
        assert np.all(np.diff(scores) <= 1e-12)
        assert scores[0] > scores[5]

    def test_unreachable_nodes_get_zero(self):
        from repro.graph.csr import CSRGraph
        g = CSRGraph.from_edges(3, np.array([0]), np.array([1]))
        scores = run_app(
            g, PersonalizedPageRankApp(max_iterations=200),
            SageScheduler(), source=0,
        ).result["ppr"]
        assert scores[2] == pytest.approx(0.0)

    def test_validation(self, tiny_graph):
        with pytest.raises(InvalidParameterError):
            PersonalizedPageRankApp(damping=1.5)
        with pytest.raises(InvalidParameterError):
            run_app(tiny_graph, PersonalizedPageRankApp(),
                    SageScheduler())
