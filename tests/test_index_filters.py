"""Filters select their edges by index, not by boolean mask.

Each filter below takes ``np.flatnonzero`` of its edge predicate once
and gathers every edge array it needs with those indices.  Its former
body, which compressed each array with the boolean mask, is kept here as
the reference; ``a[flatnonzero(m)]`` lists the same elements in the same
order as ``a[m]``, so frontiers, labels, float accumulations and sampled
tiles must all be equal bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import BCApp, BFSApp
from repro.apps.base import contract, relax
from repro.apps.bfs import UNVISITED
from repro.apps.incremental.repair import _AffectedConeApp
from repro.core import SageScheduler
from repro.core.hybrid import _pull_level
from repro.core.sampling import TileAccessSampler
from repro.graph import generators as gen


def relax_mask_reference(values, edge_dst, candidate):
    improving = candidate < values[edge_dst]
    targets = edge_dst[improving]
    np.minimum.at(values, targets, candidate[improving])
    return contract(targets, values.size)


def bfs_mask_reference(dist, level, edge_dst):
    undiscovered = dist[edge_dst] == UNVISITED
    next_frontier = contract(edge_dst[undiscovered], dist.size)
    dist[next_frontier] = level + 1
    return next_frontier


def bc_forward_mask_reference(dist, sigma, level, edge_src, edge_dst):
    undiscovered = dist[edge_dst] == UNVISITED
    next_frontier = contract(edge_dst[undiscovered])
    dist[next_frontier] = level + 1
    dag_edge = dist[edge_dst] == level + 1
    np.add.at(sigma, edge_dst[dag_edge], sigma[edge_src[dag_edge]])
    return next_frontier


def bc_backward_mask_reference(dist, sigma, delta, edge_src, edge_dst):
    dag_edge = dist[edge_dst] == dist[edge_src] + 1
    src = edge_src[dag_edge]
    dst = edge_dst[dag_edge]
    increments = sigma[src] / sigma[dst] * (1.0 + delta[dst])
    np.add.at(delta, src, increments)


def cone_mask_reference(dist, affected, weight, edge_src, edge_dst):
    tight = dist[edge_dst] == dist[edge_src] + weight
    fresh = tight & ~affected[edge_dst]
    affected[edge_dst[fresh]] = True
    return contract(edge_dst[fresh])


def push_mask_reference(graph, frontier, dist):
    edge_src, edge_dst, _ = graph.expand_frontier(frontier)
    fresh = dist[edge_dst] == UNVISITED
    return np.unique(edge_dst[fresh]), int(edge_dst.size)


def pull_mask_reference(reverse, unvisited, dist, level):
    edge_src, edge_dst, _ = reverse.expand_frontier(unvisited)
    degrees = reverse.offsets[unvisited + 1] - reverse.offsets[unvisited]
    parent_hit = dist[edge_dst] == level
    adopters_mask = np.zeros(dist.size, dtype=bool)
    adopters_mask[edge_src[parent_hit]] = True
    adopters = unvisited[adopters_mask[unvisited]]
    adopted_edges = int(degrees[adopters_mask[unvisited]].sum())
    return adopters, adopted_edges


def observe_mask_reference(sampler, edge_dst, starts):
    """``TileAccessSampler.observe`` with the members compressed by mask."""
    sampler.observed_edges += int(edge_dst.size)
    if edge_dst.size == 0 or starts.size == 0:
        return
    lengths = np.diff(starts, append=edge_dst.size)
    keep = (lengths > 1) & (sampler._rng.random(starts.size) < sampler.tile_sample_rate)
    kept = int(np.count_nonzero(keep))
    if not kept:
        return
    sampler.sampled_tiles += kept
    sampler._members.append(edge_dst[np.repeat(keep, lengths)])
    sampler._lengths.append(lengths[keep])


class _Probe:
    uses_atomics = False
    value_access_factor = 1.0
    edge_compute_factor = 1.0


@st.composite
def labeled_levels(draw):
    """A graph, a BFS-style labeling (unreached nodes at ``UNVISITED``,
    the rest at levels 0..3 so ties are common) and a frontier."""
    scale = draw(st.integers(3, 7))
    graph = gen.rmat(scale, draw(st.integers(1, 8)), seed=draw(st.integers(0, 99)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    n = graph.num_nodes
    dist = rng.integers(0, 4, n)
    dist[rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = UNVISITED
    frontier = np.flatnonzero(rng.random(n) < draw(st.sampled_from([0.05, 0.5, 1.0])))
    return graph, dist, frontier, rng


@settings(max_examples=40, deadline=None)
@given(case=labeled_levels())
def test_relax(case):
    graph, dist, frontier, rng = case
    _, edge_dst, _ = graph.expand_frontier(frontier)
    candidate = rng.integers(-1, 4, edge_dst.size)
    want_values, got_values = dist.copy(), dist.copy()
    want = relax_mask_reference(want_values, edge_dst, candidate)
    np.testing.assert_array_equal(relax(got_values, edge_dst, candidate), want)
    np.testing.assert_array_equal(got_values, want_values)


@settings(max_examples=40, deadline=None)
@given(case=labeled_levels())
def test_bfs(case):
    graph, dist, frontier, _ = case
    app = BFSApp()
    app.setup(graph, 0)
    app.dist, app._level = dist.copy(), 2
    edge_src, edge_dst, _ = graph.expand_frontier(frontier)
    want_dist = dist.copy()
    want = bfs_mask_reference(want_dist, 2, edge_dst)
    np.testing.assert_array_equal(app.process_level(edge_src, edge_dst), want)
    np.testing.assert_array_equal(app.dist, want_dist)


@settings(max_examples=40, deadline=None)
@given(case=labeled_levels())
def test_bc_forward_and_backward(case):
    graph, dist, frontier, rng = case
    sigma = rng.random(graph.num_nodes) + 0.5
    delta = rng.random(graph.num_nodes)
    edge_src, edge_dst, _ = graph.expand_frontier(frontier)
    app = BCApp()
    app.setup(graph, 0)
    app.dist, app.sigma, app._level = dist.copy(), sigma.copy(), 2
    want_dist, want_sigma = dist.copy(), sigma.copy()
    want = bc_forward_mask_reference(want_dist, want_sigma, 2, edge_src, edge_dst)
    got = app._forward(edge_src, edge_dst)
    if want.size:  # an empty next level turns the app to its backward phase
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(app.dist, want_dist)
    np.testing.assert_array_equal(app.sigma, want_sigma)

    app.dist, app.sigma, app.delta = dist.copy(), sigma.copy(), delta.copy()
    app._back_index = 0
    want_delta = delta.copy()
    bc_backward_mask_reference(dist, sigma, want_delta, edge_src, edge_dst)
    app._backward(edge_src, edge_dst)
    np.testing.assert_array_equal(app.delta, want_delta)


@settings(max_examples=40, deadline=None)
@given(case=labeled_levels(), weighted=st.booleans())
def test_affected_cone(case, weighted):
    graph, dist, frontier, rng = case
    weights = rng.integers(0, 3, graph.num_edges) if weighted else None
    app = _AffectedConeApp(dist, weights, frontier)
    app.setup(graph)
    app.affected[rng.random(graph.num_nodes) < 0.3] = True
    want_affected = app.affected.copy()
    edge_src, edge_dst, edge_pos = graph.expand_frontier(frontier)
    weight = 1 if weights is None else weights[edge_pos]
    want = cone_mask_reference(dist, want_affected, weight, edge_src, edge_dst)
    np.testing.assert_array_equal(app.process_level(edge_src, edge_dst, edge_pos), want)
    np.testing.assert_array_equal(app.affected, want_affected)


@settings(max_examples=30, deadline=None)
@given(case=labeled_levels())
def test_hybrid_push_and_pull(case):
    """A hybrid BFS pushes with the app's own filter on ``run_levels``'
    expansion, and pulls with ``_pull_level`` on the transpose."""
    graph, dist, frontier, _ = case
    app = BFSApp()
    app.setup(graph, 0)
    app.dist, app._level = dist.copy(), 2
    edge_src, edge_dst, _, _ = graph.expand_level(frontier)
    want_frontier, want_edges = push_mask_reference(graph, frontier, dist)
    np.testing.assert_array_equal(app.process_level(edge_src, edge_dst), want_frontier)
    assert edge_dst.size == want_edges

    reverse = graph.reversed()
    unvisited = np.flatnonzero(dist == UNVISITED)
    scheduler = SageScheduler()
    scheduler.reset(reverse)
    adopters, scanned, stats = _pull_level(reverse, unvisited, dist, 2, scheduler, _Probe())
    want_adopters, adopted_edges = pull_mask_reference(reverse, unvisited, dist, 2)
    np.testing.assert_array_equal(adopters, want_adopters)
    degrees = reverse.offsets[unvisited + 1] - reverse.offsets[unvisited]
    assert scanned == int(degrees.sum()) - adopted_edges // 2


@settings(max_examples=40, deadline=None)
@given(
    lengths=st.lists(st.integers(0, 9), max_size=40),
    rate=st.sampled_from([0.3, 1.0]),
    seed=st.integers(0, 2**31),
)
def test_sampler_kept_members(lengths, rate, seed):
    n = 50
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1])) if lengths.size else lengths
    edge_dst = np.random.default_rng(seed).integers(0, n, int(lengths.sum()))
    got = TileAccessSampler(n, 8, tile_sample_rate=rate, seed=seed)
    want = TileAccessSampler(n, 8, tile_sample_rate=rate, seed=seed)
    for _ in range(2):
        got.observe(edge_dst, starts)
        observe_mask_reference(want, edge_dst, starts)
    assert got.observed_edges == want.observed_edges
    assert got.sampled_tiles == want.sampled_tiles
    np.testing.assert_array_equal(got.pair_key(), want.pair_key())
    got_parts, want_parts = got._members + got._lengths, want._members + want._lengths
    for got_part, want_part in zip(got_parts, want_parts, strict=True):
        np.testing.assert_array_equal(got_part, want_part)
