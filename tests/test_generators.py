"""Unit tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.graph import generators as gen
from repro.graph.properties import degree_stats, gini_coefficient, id_locality


class TestToyGraphs:
    def test_path(self):
        g = gen.path_graph(5)
        assert g.num_edges == 4
        assert g.neighbors(0).tolist() == [1]
        assert g.out_degree(4) == 0

    def test_cycle(self):
        g = gen.cycle_graph(4)
        assert g.num_edges == 4
        assert g.has_edge(3, 0)

    def test_star(self):
        g = gen.star_graph(6)
        assert g.out_degree(0) == 5
        assert g.out_degree(1) == 0

    def test_complete(self):
        g = gen.complete_graph(4)
        assert g.num_edges == 12
        assert not g.has_edge(1, 1)

    def test_grid(self):
        g = gen.grid_2d(3, 3)
        assert g.num_nodes == 9
        assert g.out_degree(4) == 4  # center
        assert g.out_degree(0) == 2  # corner
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    @pytest.mark.parametrize("fn,bad", [
        (gen.path_graph, 0),
        (gen.cycle_graph, 1),
        (gen.star_graph, 1),
        (gen.complete_graph, 0),
    ])
    def test_invalid_sizes(self, fn, bad):
        with pytest.raises(InvalidParameterError):
            fn(bad)


class TestRandomFamilies:
    def test_erdos_renyi_size(self):
        g = gen.erdos_renyi(200, 5.0, seed=1)
        assert g.num_nodes == 200
        assert 0 < g.num_edges <= 1000

    def test_erdos_renyi_deterministic(self):
        a = gen.erdos_renyi(100, 4.0, seed=9)
        b = gen.erdos_renyi(100, 4.0, seed=9)
        assert np.array_equal(a.targets, b.targets)

    def test_random_regular_uniformity(self):
        g = gen.random_regular(150, 12, seed=2)
        stats = degree_stats(g)
        assert stats.maximum <= 12
        assert stats.mean > 10  # only a few collisions dropped
        assert stats.gini < 0.05

    def test_random_regular_validation(self):
        with pytest.raises(InvalidParameterError):
            gen.random_regular(10, 10)

    def test_barabasi_albert_powerlaw(self):
        g = gen.barabasi_albert(150, 3, seed=3)
        stats = degree_stats(g)
        assert stats.maximum > 3 * stats.median

    def test_power_law_skew(self):
        g = gen.power_law_configuration(400, 2.0, 8.0, seed=4)
        deg = g.out_degrees()
        assert gini_coefficient(deg.astype(float)) > 0.25

    def test_power_law_hubs(self):
        g = gen.power_law_configuration(
            300, 2.2, 6.0, seed=4, hub_count=2, hub_degree=100
        )
        assert g.out_degree(0) > 50
        assert g.out_degree(1) > 50

    def test_power_law_communities_create_locality(self):
        clustered = gen.power_law_configuration(
            600, 2.2, 10.0, seed=4, community_count=12, community_bias=0.9
        )
        uniform = gen.power_law_configuration(600, 2.2, 10.0, seed=4)
        assert id_locality(clustered, 32) > 2 * id_locality(uniform, 32)

    def test_power_law_scramble_hides_locality(self):
        clustered = gen.power_law_configuration(
            600, 2.2, 10.0, seed=4, community_count=12, community_bias=0.9
        )
        scrambled = gen.power_law_configuration(
            600, 2.2, 10.0, seed=4, community_count=12, community_bias=0.9,
            scramble_ids=True,
        )
        assert id_locality(scrambled, 32) < id_locality(clustered, 32)
        assert scrambled.num_edges == clustered.num_edges

    def test_power_law_validation(self):
        with pytest.raises(InvalidParameterError):
            gen.power_law_configuration(10, 0.9, 3.0)
        with pytest.raises(InvalidParameterError):
            gen.power_law_configuration(10, 2.0, 3.0, community_bias=1.5)

    def test_watts_strogatz(self):
        g = gen.watts_strogatz(100, 4, 0.1, seed=5)
        assert g.num_nodes == 100
        stats = degree_stats(g)
        assert 3 <= stats.mean <= 9

    def test_watts_strogatz_validation(self):
        with pytest.raises(InvalidParameterError):
            gen.watts_strogatz(100, 3, 0.1)  # odd k
        with pytest.raises(InvalidParameterError):
            gen.watts_strogatz(100, 4, 1.5)

    def test_rmat_size_and_skew(self):
        g = gen.rmat(9, 8, seed=6)
        assert g.num_nodes == 512
        assert gini_coefficient(g.out_degrees().astype(float)) > 0.3

    def test_rmat_validation(self):
        with pytest.raises(InvalidParameterError):
            gen.rmat(0, 4)

    def test_web_hierarchy_locality(self):
        g = gen.web_hierarchy(500, 8.0, seed=7, locality=0.9, span=20)
        assert id_locality(g, 20) > 0.5

    def test_web_hierarchy_validation(self):
        with pytest.raises(InvalidParameterError):
            gen.web_hierarchy(2, 4.0)

    def test_generator_accepts_rng_instance(self):
        rng = np.random.default_rng(11)
        g = gen.erdos_renyi(50, 3.0, rng)
        assert g.num_nodes == 50
