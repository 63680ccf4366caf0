"""The min-relaxation filters scatter only the edges that improve.

SSSP, connected components and the incremental relax-repair compare
each edge's candidate against its target's value before the scatter, and
``contract`` dedupes a large batch with a node mask.  The filters'
former bodies, kept here as the reference, scattered every edge and
compared each target before and after; both must leave the same values
and return the same frontier, bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import ConnectedComponentsApp, SSSPApp
from repro.apps.base import contract
from repro.apps.incremental.repair import _RelaxRepairApp
from repro.apps.sssp import INF
from repro.graph import generators as gen


def sort_contract(candidates):
    """``contract`` without the node mask: the sort path alone."""
    return contract(candidates)


def relax_reference(values, edge_dst, candidate):
    """The former filter body: a full-batch scatter, then a compare."""
    before = values[edge_dst].copy()
    np.minimum.at(values, edge_dst, candidate)
    improved = values[edge_dst] < before
    return sort_contract(edge_dst[improved])


@st.composite
def relaxation_cases(draw):
    """A graph, a labeling with unreached nodes, and a frontier."""
    scale = draw(st.integers(3, 7))
    graph = gen.rmat(scale, draw(st.integers(1, 8)), seed=draw(st.integers(0, 99)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    n = graph.num_nodes
    # a narrow value range makes ties (candidate == target) common
    values = rng.integers(0, draw(st.sampled_from([3, 4 * n])), n)
    values[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = INF
    share = draw(st.sampled_from([0.05, 0.5, 1.0]))
    frontier = np.flatnonzero(rng.random(n) < share)
    return graph, values, frontier


@settings(max_examples=40, deadline=None)
@given(case=relaxation_cases())
def test_sssp_matches_the_full_scatter(case):
    graph, dist, frontier = case
    app = SSSPApp()
    app.setup(graph, 0)
    app.dist = dist.copy()
    edge_src, edge_dst, edge_pos = graph.expand_frontier(frontier)
    want_dist = dist.copy()
    want = relax_reference(
        want_dist, edge_dst, want_dist[edge_src] + app.weights[edge_pos]
    )
    got = app.process_level(edge_src, edge_dst, edge_pos)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(app.dist, want_dist)


@settings(max_examples=40, deadline=None)
@given(case=relaxation_cases())
def test_cc_matches_the_full_scatter(case):
    graph, labels, frontier = case
    app = ConnectedComponentsApp()
    app.setup(graph)
    app.component = labels.copy()
    edge_src, edge_dst, _ = graph.expand_frontier(frontier)
    want_labels = labels.copy()
    want = relax_reference(want_labels, edge_dst, want_labels[edge_src])
    got = app.process_level(edge_src, edge_dst)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(app.component, want_labels)


@settings(max_examples=40, deadline=None)
@given(case=relaxation_cases(), weighted=st.booleans())
def test_relax_repair_matches_the_full_scatter(case, weighted):
    graph, dist, frontier = case
    weights = (
        np.random.default_rng(1).integers(1, 9, graph.num_edges) if weighted else None
    )
    app = _RelaxRepairApp(dist, weights, frontier)
    app.setup(graph)
    edge_src, edge_dst, edge_pos = graph.expand_frontier(frontier)
    want_dist = dist.copy()
    weight = 1 if weights is None else weights[edge_pos]
    want = relax_reference(want_dist, edge_dst, want_dist[edge_src] + weight)
    got = app.process_level(edge_src, edge_dst, edge_pos)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(app.dist, want_dist)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 300),
    size=st.integers(0, 400),
    seed=st.integers(0, 2**31),
)
def test_contract_node_mask_equals_sort(n, size, seed):
    candidates = np.random.default_rng(seed).integers(0, n, size)
    got = contract(candidates, n)
    want = sort_contract(candidates)
    assert got.dtype == want.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got, np.unique(candidates))
