"""Application correctness against networkx oracles."""

import numpy as np
import pytest

from repro.apps import (
    BCApp,
    BFSApp,
    ConnectedComponentsApp,
    LabelPropagationApp,
    PageRankApp,
    SSSPApp,
    synthetic_weights,
)
from repro.apps import labelprop
from repro.apps.sssp import pair_weights
from repro.core import SageScheduler, run_app
from repro.errors import InvalidParameterError
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from tests.conftest import (
    bfs_oracle,
    betweenness_oracle,
    components_oracle,
    pagerank_oracle,
    sssp_oracle,
)


def run(graph, app, source=None):
    return run_app(graph, app, SageScheduler(), source=source)


class TestBFS:
    def test_path(self):
        g = gen.path_graph(6)
        result = run(g, BFSApp(), source=0)
        assert result.result["dist"].tolist() == [0, 1, 2, 3, 4, 5]

    def test_unreachable(self):
        g = CSRGraph.from_edges(4, np.array([0]), np.array([1]))
        result = run(g, BFSApp(), source=0)
        assert result.result["dist"].tolist() == [0, 1, -1, -1]

    def test_requires_source(self, tiny_graph):
        with pytest.raises(InvalidParameterError):
            run(tiny_graph, BFSApp())

    def test_source_out_of_range(self, tiny_graph):
        with pytest.raises(InvalidParameterError):
            run(tiny_graph, BFSApp(), source=99)

    @pytest.mark.parametrize("source", [0, 3, 17])
    def test_matches_oracle_skewed(self, skewed_graph, source):
        result = run(skewed_graph, BFSApp(), source=source)
        assert np.array_equal(result.result["dist"],
                              bfs_oracle(skewed_graph, source))

    def test_matches_oracle_regular(self, regular_graph):
        result = run(regular_graph, BFSApp(), source=5)
        assert np.array_equal(result.result["dist"],
                              bfs_oracle(regular_graph, 5))

    def test_edges_traversed_counts_expansions(self):
        g = gen.star_graph(10)
        result = run(g, BFSApp(), source=0)
        assert result.edges_traversed == 9
        assert result.iterations == 2  # star level + empty expansion


class TestBC:
    def test_sigma_on_diamond(self):
        # 0 -> {1,2} -> 3: two shortest paths to 3
        g = CSRGraph.from_edges(
            4, np.array([0, 0, 1, 2]), np.array([1, 2, 3, 3])
        )
        result = run(g, BCApp(), source=0)
        assert result.result["sigma"].tolist() == [1, 1, 1, 2]
        # delta[1] = delta[2] = 1/2, delta[0] = 1 + 1 + ... Brandes:
        # delta[v] = sum sigma[v]/sigma[w] (1 + delta[w])
        assert result.result["delta"][1] == pytest.approx(0.5)
        assert result.result["delta"][2] == pytest.approx(0.5)

    def test_sum_over_sources_matches_betweenness(self, web_graph):
        totals = np.zeros(web_graph.num_nodes)
        for source in range(web_graph.num_nodes):
            result = run(web_graph, BCApp(), source=source)
            delta = result.result["delta"].copy()
            delta[source] = 0.0  # Brandes excludes w == s
            totals += delta
        assert np.allclose(totals, betweenness_oracle(web_graph), atol=1e-9)

    def test_two_phases_counted(self, skewed_graph):
        result = run(skewed_graph, BCApp(), source=0)
        forward_levels = int(result.result["dist"].max()) + 1
        # forward iterations + backward iterations
        assert result.iterations >= forward_levels

    def test_requires_source(self, tiny_graph):
        with pytest.raises(InvalidParameterError):
            run(tiny_graph, BCApp())


class TestPageRank:
    def test_matches_networkx(self, skewed_graph):
        result = run(skewed_graph, PageRankApp(max_iterations=100,
                                               tolerance=1e-12))
        assert np.allclose(result.result["pagerank"],
                           pagerank_oracle(skewed_graph), atol=1e-6)

    def test_dangling_nodes(self):
        g = CSRGraph.from_edges(3, np.array([0]), np.array([1]))
        result = run(g, PageRankApp(max_iterations=100, tolerance=1e-12))
        pr = result.result["pagerank"]
        assert pr.sum() == pytest.approx(1.0)
        assert np.allclose(pr, pagerank_oracle(g), atol=1e-6)

    def test_fixed_iterations(self, tiny_graph):
        app = PageRankApp(max_iterations=5, tolerance=0.0)
        assert run(tiny_graph, app).iterations == 5

    def test_early_convergence(self):
        g = gen.cycle_graph(4)
        app = PageRankApp(max_iterations=500, tolerance=1e-10)
        assert run(g, app).iterations < 500


class TestConnectedComponents:
    def test_matches_oracle_on_symmetric(self, rng):
        coo = gen.erdos_renyi(120, 1.2, seed=3).to_coo()
        g = CSRGraph.from_edges(120, coo.src, coo.dst, dedup=True, symmetric=True)
        result = run(g, ConnectedComponentsApp())
        assert np.array_equal(result.result["component"],
                              components_oracle(g))

    def test_two_islands(self):
        g = CSRGraph.from_edges(
            4, np.array([0, 1, 2, 3]), np.array([1, 0, 3, 2])
        )
        comp = run(g, ConnectedComponentsApp()).result["component"]
        assert comp.tolist() == [0, 0, 2, 2]

    def test_isolated_nodes_keep_own_label(self):
        g = CSRGraph.from_edges(3, np.array([], dtype=int),
                                np.array([], dtype=int))
        comp = run(g, ConnectedComponentsApp()).result["component"]
        assert comp.tolist() == [0, 1, 2]


class TestSSSP:
    def test_matches_dijkstra(self, skewed_graph):
        app = SSSPApp()
        result = run(skewed_graph, app, source=1)
        oracle = sssp_oracle(skewed_graph, app.weights, 1)
        assert np.array_equal(result.result["dist"], oracle)

    def test_explicit_weights(self):
        g = gen.path_graph(4)
        weights = np.array([5, 1, 7])
        result = run(g, SSSPApp(weights), source=0)
        assert result.result["dist"].tolist() == [0, 5, 6, 13]

    def test_weight_length_validation(self, tiny_graph):
        with pytest.raises(InvalidParameterError):
            run(tiny_graph, SSSPApp(np.array([1, 2])), source=0)

    def test_negative_weights_rejected(self):
        g = gen.path_graph(3)
        with pytest.raises(InvalidParameterError):
            run(g, SSSPApp(np.array([-1, 1])), source=0)

    def test_synthetic_weights_are_deterministic(self, tiny_graph):
        a = synthetic_weights(tiny_graph)
        b = synthetic_weights(tiny_graph)
        assert np.array_equal(a, b)
        assert a.min() >= 1

    def test_synthetic_weights_are_built_once_per_graph(self):
        graph = gen.rmat(8, edge_factor=8, seed=5)
        first, second = SSSPApp(), SSSPApp()
        got = run(graph, first, source=0)
        run(graph, second, source=0)
        assert first.weights is second.weights is synthetic_weights(graph)
        with pytest.raises(ValueError):
            first.weights[0] = 1
        # the pair hash of every CSR edge, as explicit weights
        coo = graph.to_coo()
        explicit = pair_weights(coo.src, coo.dst)
        want = run(graph, SSSPApp(explicit), source=0)
        np.testing.assert_array_equal(got.result["dist"], want.result["dist"])
        assert got.seconds == want.seconds
        # explicit weights are the caller's array, untouched and writable
        assert explicit.flags.writeable


class TestLabelPropagation:
    def test_two_cliques_find_two_labels(self):
        # two directed 4-cliques, no cross edges
        src, dst = [], []
        for base in (0, 4):
            for u in range(base, base + 4):
                for v in range(base, base + 4):
                    if u != v:
                        src.append(u)
                        dst.append(v)
        g = CSRGraph.from_edges(8, np.array(src), np.array(dst))
        labels = run(g, LabelPropagationApp()).result["labels"]
        assert len(set(labels[:4].tolist())) == 1
        assert len(set(labels[4:].tolist())) == 1
        assert labels[0] != labels[4]

    def test_fixpoint_terminates(self, web_graph):
        result = run(web_graph, LabelPropagationApp())
        assert result.iterations <= labelprop.MAX_ITERATIONS

    def test_deterministic(self, skewed_graph):
        a = run(skewed_graph, LabelPropagationApp()).result["labels"]
        b = run(skewed_graph, LabelPropagationApp()).result["labels"]
        assert np.array_equal(a, b)
