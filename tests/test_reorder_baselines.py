"""Tests for the baseline reordering methods and the NP-hard objective."""

import hashlib

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.graph import datasets
from repro.graph import generators as gen
from repro.graph.properties import sector_span
from repro.reorder import (
    bfs_order,
    degree_order,
    gorder_order,
    is_permutation,
    llp_order,
    optimal_arrangement,
    order_to_perm,
    random_perm,
    rcm_order,
    sector_objective,
    timed_ordering,
)

ALL_METHODS = [rcm_order, llp_order, gorder_order, degree_order, bfs_order]


@pytest.fixture(scope="module")
def community_graph():
    return gen.power_law_configuration(
        500, 2.1, 10.0, seed=8,
        community_count=10, community_bias=0.9, scramble_ids=True,
    )


class TestBasics:
    def test_order_to_perm_inverse(self):
        order = np.array([2, 0, 1])
        perm = order_to_perm(order)
        # node 2 is placed first -> new id 0
        assert perm.tolist() == [1, 2, 0]

    def test_is_permutation(self):
        assert is_permutation(np.array([1, 0, 2]), 3)
        assert not is_permutation(np.array([0, 0, 2]), 3)
        assert not is_permutation(np.array([0, 1]), 3)
        assert not is_permutation(np.array([0, 1, 3]), 3)

    def test_random(self):
        p = random_perm(50, seed=3)
        assert is_permutation(p, 50)
        assert np.array_equal(p, random_perm(50, seed=3))

    def test_timed_ordering(self, community_graph):
        timed = timed_ordering("rcm", rcm_order, community_graph)
        assert timed.seconds >= 0
        assert is_permutation(timed.perm, community_graph.num_nodes)

    def test_timed_ordering_rejects_bad_method(self, community_graph):
        with pytest.raises(InvalidParameterError):
            timed_ordering(
                "broken",
                lambda g: np.zeros(g.num_nodes, dtype=np.int64),
                community_graph,
            )


@pytest.mark.parametrize("method", ALL_METHODS)
class TestAllMethods:
    def test_returns_bijection(self, method, community_graph):
        perm = method(community_graph)
        assert is_permutation(perm, community_graph.num_nodes)

    def test_handles_disconnected(self, method):
        g = gen.path_graph(6).with_edges_added(
            np.array([], dtype=int), np.array([], dtype=int)
        )
        # add isolated nodes by building a bigger graph
        from repro.graph.csr import CSRGraph
        coo = g.to_coo()
        g2 = CSRGraph.from_edges(10, coo.src, coo.dst)
        perm = method(g2)
        assert is_permutation(perm, 10)

    def test_handles_empty_graph(self, method):
        from repro.graph.csr import CSRGraph
        g = CSRGraph.from_edges(4, np.array([], dtype=int),
                                np.array([], dtype=int))
        perm = method(g)
        assert is_permutation(perm, 4)


#: sha256 of ``gorder_order(d.graph)`` as int64 bytes, for every
#: ``datasets.full_suite(0.05)`` stand-in: a faster Gorder must return
#: the same permutation (tie rule: highest score, then lowest node id).
GORDER_DIGESTS = {
    "uk-2002": "7300e856769f9faeab3e5547fb0b42618cb87d39240d84001b874e36f618562b",
    "brain": "32a8f5f71e4a049ef8cd52cde7cababe436a3f1d0d4797c67486606279337f2e",
    "ljournal": "bad9bdf5529564fe94308e0220b4385c88ec472063f38bb1672f9a3e0e0c713f",
    "twitter": "58645f1bb2fd84bac8098f227555f903b80f98cd15c79e1ac37b0f4a7ef3d44d",
    "friendster": "ff161c21c161c21b01299daaf3ea160d0261f9008a189fb123908e416b29ec18",
}


@pytest.mark.parametrize("name", sorted(GORDER_DIGESTS))
def test_gorder_permutation_is_pinned(name):
    # scale 0.05 is test_bench.py's TINY, whose cached graphs fig6 orders
    perm = gorder_order(datasets.by_name(name, scale=0.05).graph)
    digest = hashlib.sha256(np.ascontiguousarray(perm, dtype=np.int64).tobytes())
    assert digest.hexdigest() == GORDER_DIGESTS[name]


class TestLocalityRecovery:
    def test_gorder_recovers_community_locality(self, community_graph):
        before = sector_span(community_graph)
        after = sector_span(community_graph.permute(
            gorder_order(community_graph)))
        assert after < before * 0.9

    def test_llp_recovers_community_locality(self, community_graph):
        before = sector_span(community_graph)
        after = sector_span(community_graph.permute(
            llp_order(community_graph)))
        assert after < before * 0.95

    def test_rcm_reduces_bandwidth(self):
        g = gen.grid_2d(12, 12)
        scrambled = g.permute(random_perm(g.num_nodes, seed=2))

        def bandwidth(graph):
            coo = graph.to_coo()
            return int(np.abs(coo.src - coo.dst).max())

        rcm = scrambled.permute(rcm_order(scrambled))
        assert bandwidth(rcm) < bandwidth(scrambled)

    def test_random_does_not_help(self, community_graph):
        before = sector_span(community_graph)
        after = sector_span(community_graph.permute(
            random_perm(community_graph.num_nodes)))
        assert after > before * 0.95


class TestOptimalObjective:
    def test_objective_counts_sectors(self):
        tiles = [np.array([0, 1, 2, 8])]  # paper Figure 5 tile1, width 4
        perm = np.arange(16)
        assert sector_objective(tiles, perm, 4) == 2

    def test_optimal_at_most_identity(self):
        tiles = [np.array([0, 5]), np.array([0, 7]), np.array([5, 7])]
        perm, cost = optimal_arrangement(tiles, 8, 4)
        identity_cost = sector_objective(tiles, np.arange(8), 4)
        assert cost <= identity_cost
        # 0, 5, 7 can all be packed into one 4-wide sector
        assert cost == 3

    def test_optimal_guards_size(self):
        with pytest.raises(InvalidParameterError):
            optimal_arrangement([], 10, 4)

    def test_heuristics_never_beat_optimal(self):
        rng = np.random.default_rng(0)
        nodes = 7
        tiles = [rng.choice(nodes, size=3, replace=False) for _ in range(6)]
        _, best = optimal_arrangement(tiles, nodes, 4)
        for perm in (np.arange(nodes), random_perm(nodes, 1),
                     random_perm(nodes, 2)):
            assert sector_objective(tiles, perm, 4) >= best
