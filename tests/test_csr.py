"""Unit and property tests for the CSR representation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph.coo import MAX_PAIR_KEY_NODES, COOGraph, edge_key_dtype
from repro.graph.csr import CSRGraph


def edges_strategy(max_nodes=20, max_edges=60):
    """Random (num_nodes, src, dst) triples."""
    return st.integers(2, max_nodes).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=max_edges,
            ),
        )
    )


def relabelled_edges(g, perm):
    """``permute``'s definition: the edge list relabelled and rebuilt."""
    coo = g.to_coo()
    return CSRGraph.from_edges(g.num_nodes, perm[coo.src], perm[coo.dst])


def assert_same_csr(got, want):
    assert got.num_nodes == want.num_nodes
    for name in ("offsets", "targets"):
        assert getattr(got, name).dtype == getattr(want, name).dtype == np.int64
        assert np.array_equal(getattr(got, name), getattr(want, name))


class TestConstruction:
    def test_from_edges(self, tiny_graph):
        assert tiny_graph.num_nodes == 4
        assert tiny_graph.num_edges == 7
        assert tiny_graph.neighbors(0).tolist() == [1, 2, 3]
        assert tiny_graph.neighbors(2).tolist() == [0, 3]

    def test_offsets_shape(self, tiny_graph):
        assert tiny_graph.offsets.tolist() == [0, 3, 4, 6, 7]

    def test_invalid_offsets_length(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(3, np.array([0, 1]), np.array([0]))

    def test_nonmonotone_offsets(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(2, np.array([0, 2, 1]), np.array([0, 1]))

    def test_offsets_must_start_at_zero(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(1, np.array([1, 1]), np.array([], dtype=np.int64))

    def test_last_offset_matches_targets(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(1, np.array([0, 2]), np.array([0]))

    def test_target_out_of_range(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(2, np.array([0, 1, 1]), np.array([5]))

    def test_dedup_and_self_loop_options(self):
        g = CSRGraph.from_edges(
            3, np.array([0, 0, 1]), np.array([1, 1, 1]),
            dedup=True, drop_self_loops=True,
        )
        assert g.num_edges == 1
        assert g.neighbors(0).tolist() == [1]

    def test_symmetric_option(self):
        g = CSRGraph.from_edges(3, np.array([0]), np.array([1]),
                                symmetric=True)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)


class TestQueries:
    def test_out_degree(self, tiny_graph):
        assert tiny_graph.out_degree(0) == 3
        assert tiny_graph.out_degrees().tolist() == [3, 1, 2, 1]

    def test_has_edge(self, tiny_graph):
        assert tiny_graph.has_edge(0, 2)
        assert not tiny_graph.has_edge(1, 0)

    def test_expand_level(self, tiny_graph):
        src, dst, _, degrees = tiny_graph.expand_level(np.array([0, 2]))
        assert src.tolist() == [0, 0, 0, 2, 2]
        assert dst.tolist() == [1, 2, 3, 0, 3]
        assert degrees.tolist() == [3, 2]

    def test_expand_frontier_positions(self, tiny_graph):
        src, dst, pos = tiny_graph.expand_frontier(np.array([2, 0]))
        assert dst.tolist() == tiny_graph.targets[pos].tolist()
        assert src.tolist() == [2, 2, 0, 0, 0]

    def test_expand_empty_frontier(self, tiny_graph):
        src, dst, _, degrees = tiny_graph.expand_level(np.array([], dtype=np.int64))
        assert src.size == 0 and dst.size == 0 and degrees.size == 0

    def test_expand_zero_degree_nodes(self):
        g = CSRGraph.from_edges(3, np.array([0]), np.array([1]))
        src, _, _, degrees = g.expand_level(np.array([1, 2]))
        assert src.size == 0
        assert degrees.tolist() == [0, 0]

    def test_roundtrip_coo(self, tiny_graph):
        coo = tiny_graph.to_coo()
        again = CSRGraph.from_coo(coo)
        assert np.array_equal(again.offsets, tiny_graph.offsets)
        assert np.array_equal(again.targets, tiny_graph.targets)


class TestTransformations:
    def test_permute_identity(self, tiny_graph):
        perm = np.arange(4)
        g = tiny_graph.permute(perm)
        assert np.array_equal(g.targets, tiny_graph.targets)

    def test_permute_relabels(self, tiny_graph):
        perm = np.array([3, 2, 1, 0])
        g = tiny_graph.permute(perm)
        # old edge 0 -> 1 becomes 3 -> 2
        assert g.has_edge(3, 2)
        assert g.num_edges == tiny_graph.num_edges

    def test_permute_rejects_non_bijection(self, tiny_graph):
        with pytest.raises(GraphFormatError):
            tiny_graph.permute(np.array([0, 0, 1, 2]))
        with pytest.raises(GraphFormatError):
            tiny_graph.permute(np.array([0, 1, 2]))

    def test_permute_rejects_non_integer_ids(self):
        # a float cast would truncate 2.7 to 2 and accept the array
        g = CSRGraph.from_edges(3, np.array([0, 1]), np.array([1, 2]))
        with pytest.raises(GraphFormatError, match="integer"):
            g.permute([0, 1, 2.7])
        with pytest.raises(GraphFormatError, match="integer"):
            g.permute(np.array([True, False, True]))

    def test_permute_rejects_ids_out_of_range(self):
        # -1 would wrap to the last node and pass the bijection mask
        g = CSRGraph.from_edges(3, np.array([0, 1]), np.array([1, 2]))
        with pytest.raises(GraphFormatError, match="out of range"):
            g.permute([1, 0, -1])
        with pytest.raises(GraphFormatError, match="out of range"):
            g.permute([1, 0, 3])

    def test_edge_key_must_fit_int64(self):
        # permute and COO sorting share this guard; no graph that size fits
        assert edge_key_dtype(65_535) == np.uint32
        assert edge_key_dtype(MAX_PAIR_KEY_NODES) == np.int64
        with pytest.raises(GraphFormatError, match="overflow int64"):
            edge_key_dtype(MAX_PAIR_KEY_NODES + 1)

    def test_permute_empty_graph(self):
        g = CSRGraph.from_edges(0, [], [])
        assert g.permute([]).num_nodes == 0

    def test_with_edges_added(self, tiny_graph):
        g = tiny_graph.with_edges_added(np.array([3]), np.array([0]))
        assert g.has_edge(3, 0)
        assert g.num_edges == tiny_graph.num_edges + 1

    def test_reversed(self, tiny_graph):
        r = tiny_graph.reversed()
        assert r.has_edge(1, 0) and not r.has_edge(0, 1)
        assert r.num_edges == tiny_graph.num_edges


class TestProperties:
    @given(edges_strategy())
    @settings(max_examples=60, deadline=None)
    def test_coo_roundtrip(self, data):
        n, pairs = data
        src = np.array([p[0] for p in pairs], dtype=np.int64)
        dst = np.array([p[1] for p in pairs], dtype=np.int64)
        g = CSRGraph.from_edges(n, src, dst)
        back = g.to_coo()
        expected = COOGraph(n, src, dst).sorted()
        assert np.array_equal(back.src, expected.src)
        assert np.array_equal(back.dst, expected.dst)

    @given(edges_strategy(), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_permute_preserves_structure(self, data, seed):
        n, pairs = data
        src = np.array([p[0] for p in pairs], dtype=np.int64)
        dst = np.array([p[1] for p in pairs], dtype=np.int64)
        g = CSRGraph.from_edges(n, src, dst, dedup=True)
        perm = np.random.default_rng(seed).permutation(n)
        h = g.permute(perm)
        assert h.num_edges == g.num_edges
        assert np.array_equal(
            np.sort(h.out_degrees()), np.sort(g.out_degrees())
        )
        coo = g.to_coo()
        for u, v in list(zip(coo.src.tolist(), coo.dst.tolist()))[:20]:
            assert h.has_edge(int(perm[u]), int(perm[v]))

    @given(
        st.integers(1, 40).flatmap(lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                     max_size=120),
        )),
        st.integers(0, 2**31),
    )
    @settings(max_examples=80, deadline=None)
    def test_permute_is_relabelled_edges(self, data, seed):
        # duplicate edges, self loops, empty rows and n = 1 all arise
        n, pairs = data
        src = np.array([p[0] for p in pairs], dtype=np.int64)
        dst = np.array([p[1] for p in pairs], dtype=np.int64)
        g = CSRGraph.from_edges(n, src, dst)
        perm = np.random.default_rng(seed).permutation(n)
        assert_same_csr(g.permute(perm), relabelled_edges(g, perm))

    @pytest.mark.parametrize("n", [65_535, 65_536, 100_003])
    def test_permute_sparse_wide_graph(self, n):
        # 65_536 nodes and more take the int64 key; fewer take uint32
        rng = np.random.default_rng(n)
        src = rng.integers(0, n, 3000)
        dst = np.concatenate([src[:50], rng.integers(0, n, 2950)])
        src = np.concatenate([src, src[:40]])  # duplicates
        dst = np.concatenate([dst, dst[:40]])
        g = CSRGraph.from_edges(n, src, dst)
        perm = rng.permutation(n)
        assert_same_csr(g.permute(perm), relabelled_edges(g, perm))

    @given(edges_strategy())
    @settings(max_examples=40, deadline=None)
    def test_expand_matches_reference(self, data):
        n, pairs = data
        src = np.array([p[0] for p in pairs], dtype=np.int64)
        dst = np.array([p[1] for p in pairs], dtype=np.int64)
        g = CSRGraph.from_edges(n, src, dst)
        frontier = np.arange(0, n, 2, dtype=np.int64)
        esrc, edst, _, _ = g.expand_level(frontier)
        ref_src, ref_dst = [], []
        for u in frontier:
            for v in g.neighbors(int(u)):
                ref_src.append(int(u))
                ref_dst.append(int(v))
        assert esrc.tolist() == ref_src
        assert edst.tolist() == ref_dst
