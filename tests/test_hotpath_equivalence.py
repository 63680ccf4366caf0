"""Equivalence properties for the vectorized hot paths.

Every rewrite in the throughput pass keeps its pre-optimization
formulation as an importable reference; these properties assert the
rewritten kernels are *bit-for-bit identical* to those references —
including the shapes perf rewrites classically get wrong: empty
segments, single-node frontiers, all-duplicate destinations, degree-0
hubs, sector bounds past the last node id, edge lists over zero or one
node, and frontiers that are the whole node set, a permutation of it,
or only degree-0 nodes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import pagerank
from repro.apps.base import contract
from repro.apps.pagerank import PageRankApp, rank_scatter, rank_scatter_reference
from repro.core import SageScheduler, run_app
from repro.core.reorder import (
    SamplingReorderer,
    commit_moves,
    locality_stages,
    locality_stages_reference,
)
from repro.core.sampling import (
    TileAccessSampler,
    pair_key_dtype,
    tile_pair_key,
    tile_pairs_reference,
)
from repro.core.tiling import decompose_frontier, decompose_frontier_reference
from repro.errors import GraphFormatError, InvalidParameterError
from repro.gpusim.memory import (
    distinct_counts,
    segmented_distinct_sectors,
    segmented_distinct_sectors_reference,
)
from repro.gpusim.spec import GPUSpec
from repro.graph.coo import MAX_PAIR_KEY_NODES, COOGraph
from repro.graph.csr import CSRGraph, expand_frontier_reference


def segmented_case():
    """(addresses, segment_starts) with empty/duplicate-heavy segments."""
    return st.tuples(
        st.lists(st.integers(0, 97), max_size=120),
        st.data(),
    )


def _starts_for(n, data):
    # Draw start offsets in [0, n]; duplicates make empty segments and a
    # start == n makes a trailing empty segment — both must count as 0.
    k = data.draw(st.integers(0, 12), label="n_segments_extra")
    extra = sorted(
        data.draw(st.lists(st.integers(0, n), min_size=k, max_size=k), label="starts")
    )
    return np.array([0, *extra], dtype=np.int64)


class TestSegmentedDistinctSectors:
    @settings(max_examples=120, deadline=None)
    @given(segmented_case())
    def test_unsorted_matches_reference(self, case):
        values, data = case
        addresses = np.asarray(values, dtype=np.int64)
        starts = _starts_for(addresses.size, data)
        np.testing.assert_array_equal(
            segmented_distinct_sectors(addresses, starts, 8),
            segmented_distinct_sectors_reference(addresses, starts, 8),
        )

    @settings(max_examples=120, deadline=None)
    @given(segmented_case())
    def test_presorted_matches_reference(self, case):
        values, data = case
        addresses = np.asarray(values, dtype=np.int64)
        starts = _starts_for(addresses.size, data)
        bounds = np.append(starts, addresses.size)
        for i in range(starts.size):
            addresses[bounds[i] : bounds[i + 1]].sort()
        np.testing.assert_array_equal(
            segmented_distinct_sectors(addresses, starts, 8, presorted=True),
            segmented_distinct_sectors_reference(addresses, starts, 8, presorted=True),
        )

    def test_all_duplicate_destinations(self):
        # A hub frontier: every lane loads the same neighbor.
        addresses = np.full(64, 7, dtype=np.int64)
        starts = np.array([0, 16, 16, 32, 64], dtype=np.int64)
        result = segmented_distinct_sectors(addresses, starts, 8)
        np.testing.assert_array_equal(result, [1, 0, 1, 1, 0])
        np.testing.assert_array_equal(
            result,
            segmented_distinct_sectors_reference(addresses, starts, 8),
        )

    def test_all_segments_empty(self):
        addresses = np.empty(0, dtype=np.int64)
        starts = np.zeros(5, dtype=np.int64)
        for fn in (segmented_distinct_sectors, segmented_distinct_sectors_reference):
            np.testing.assert_array_equal(fn(addresses, starts, 8), np.zeros(5, dtype=np.int64))

    def test_no_segments(self):
        empty = np.empty(0, dtype=np.int64)
        for fn in (segmented_distinct_sectors, segmented_distinct_sectors_reference):
            assert fn(empty, empty, 8).size == 0


def degree_arrays():
    return st.lists(st.integers(0, 600), min_size=0, max_size=60)


def _assert_decompositions_equal(fast, ref):
    np.testing.assert_array_equal(fast.tile_frontier_idx, ref.tile_frontier_idx)
    np.testing.assert_array_equal(fast.tile_sizes, ref.tile_sizes)
    np.testing.assert_array_equal(fast.tile_local_offsets, ref.tile_local_offsets)
    np.testing.assert_array_equal(fast.fragment_frontier_idx, ref.fragment_frontier_idx)
    np.testing.assert_array_equal(fast.fragment_sizes, ref.fragment_sizes)
    np.testing.assert_array_equal(fast.fragment_local_offsets, ref.fragment_local_offsets)
    assert fast.elections == ref.elections
    assert fast.levels == ref.levels


class TestDecomposeFrontierEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(degree_arrays(), st.sampled_from([64, 128, 256]))
    def test_matches_reference(self, degrees, block_size):
        degrees = np.asarray(degrees, dtype=np.int64)
        _assert_decompositions_equal(
            decompose_frontier(degrees, block_size),
            decompose_frontier_reference(degrees, block_size),
        )

    def test_single_node_frontier(self):
        for degree in (0, 1, 7, 8, 255, 256, 1000):
            degrees = np.array([degree], dtype=np.int64)
            _assert_decompositions_equal(
                decompose_frontier(degrees, 256),
                decompose_frontier_reference(degrees, 256),
            )

    def test_degree_zero_hubs_interleaved(self):
        # Isolated nodes sprinkled between hubs: they must produce no
        # tiles, no fragments, and no elections — and not shift the
        # frontier indices of their neighbors.
        degrees = np.array([0, 4096, 0, 0, 513, 0, 8, 0], dtype=np.int64)
        fast = decompose_frontier(degrees, 512)
        _assert_decompositions_equal(fast, decompose_frontier_reference(degrees, 512))
        covered = np.union1d(fast.tile_frontier_idx, fast.fragment_frontier_idx)
        np.testing.assert_array_equal(covered, [1, 4, 6])


def distinct_count(values):
    """Distinct values of one batch by ``distinct_counts`` at sector width
    1, where a batch's sectors are its addresses; both counts must agree."""
    num_nodes = int(values.max()) + 1 if values.size else 1
    sectors, addresses = distinct_counts([values], num_nodes, 1)
    assert sectors.tolist() == addresses.tolist()
    return int(addresses[0])


class TestDedupeEquivalence:
    """``contract`` and ``distinct_counts`` against ``np.unique``."""

    CASES = {
        "empty": np.empty(0, dtype=np.int64),
        "all_duplicate": np.full(300, 41, dtype=np.int64),
        "int32": np.array([9, 3, 3, 7, 0, 9], dtype=np.int32),
        "dense": np.random.default_rng(0).integers(0, 500, 2000),
        "sparse": np.random.default_rng(1).integers(0, 2**40, 2000),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_contract_matches_unique(self, name):
        values = self.CASES[name]
        got = contract(values)
        want = np.unique(values) if values.size else values.astype(np.int64)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_distinct_count_matches_unique(self, name):
        values = self.CASES[name]
        assert distinct_count(values) == np.unique(values).size

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2**45), max_size=200), st.booleans())
    def test_random_ranges(self, values, sparse):
        values = np.asarray(values if sparse else [v % 97 for v in values], dtype=np.int64)
        np.testing.assert_array_equal(contract(values), np.unique(values))
        assert distinct_count(values) == np.unique(values).size


SECTOR_WIDTHS = [1, 2, 8, 32]


@st.composite
def sampled_pairs(draw):
    """(u, co, n, w): sampled pairs over few owners, so duplicates are common.

    ``n`` below ``w`` and ``n % w != 0`` put sectors past the last node id,
    where an unclipped range count would reach into the next owner's pairs;
    owners drawn from one narrow id window are often neighbours.
    """
    n = draw(st.integers(1, 400), label="n")
    w = draw(st.sampled_from(SECTOR_WIDTHS), label="w")
    first = draw(st.integers(0, n - 1), label="first_owner")
    owners = draw(
        st.lists(st.integers(first, min(first + 7, n - 1)), min_size=1, max_size=6),
        label="owners",
    )
    pairs = draw(
        st.lists(st.tuples(st.sampled_from(owners), st.integers(0, n - 1)), max_size=200),
        label="pairs",
    )
    u = np.array([p[0] for p in pairs], dtype=np.int64)
    co = np.array([p[1] for p in pairs], dtype=np.int64)
    return u, co, n, w


def _key(u, co, n):
    """The pair key of explicit pairs, in the sampler's dtype."""
    return (u * n + co).astype(pair_key_dtype(n))


def _assert_stages_equal(fast, ref):
    for got, want in zip(fast, ref, strict=True):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class TestLocalityStagesEquivalence:
    """Sorted-key range counts against the per-pair bincount formulation."""

    @settings(max_examples=300, deadline=None)
    @given(sampled_pairs(), st.sampled_from([0, 4]))
    def test_matches_reference(self, case, min_gain):
        u, co, n, w = case
        fast = locality_stages(_key(u, co, n), n, w)
        ref = locality_stages_reference(u, co, n, w)
        _assert_stages_equal(fast, ref)
        np.testing.assert_array_equal(
            commit_moves(*fast, n, w, min_gain), commit_moves(*ref, n, w, min_gain)
        )

    @pytest.mark.parametrize("w", SECTOR_WIDTHS)
    def test_sector_past_last_node(self, w):
        # n = 3 puts owner 1's sector [0, w) past the last id for w > 3;
        # unclipped, its range count would run on into owner 2's keys.
        n = 3
        u = np.array([1, 1, 2, 2, 2], dtype=np.int64)
        co = np.array([0, 2, 0, 1, 1], dtype=np.int64)
        _assert_stages_equal(
            locality_stages(_key(u, co, n), n, w), locality_stages_reference(u, co, n, w)
        )

    def test_single_owner_duplicate_pairs(self):
        u = np.full(50, 7, dtype=np.int64)
        co = np.array([3, 3, 9, 9, 9] * 10, dtype=np.int64)
        _assert_stages_equal(
            locality_stages(_key(u, co, 20), 20, 8), locality_stages_reference(u, co, 20, 8)
        )

    def test_no_pairs(self):
        empty = np.empty(0, dtype=np.int64)
        _assert_stages_equal(
            locality_stages(_key(empty, empty, 10), 10, 8),
            locality_stages_reference(empty, empty, 10, 8),
        )


class TestPairKeyDtypeBoundary:
    """The key is uint32 exactly while ``n * n < 2**32``; both sides of
    the boundary, with pairs at ids 0 and ``n - 1`` (key ``n * n - 1``)."""

    def test_dtype_rule(self):
        assert pair_key_dtype(1) == np.uint32
        assert pair_key_dtype(65_535) == np.uint32
        assert pair_key_dtype(65_536) == np.int64
        assert pair_key_dtype(MAX_PAIR_KEY_NODES) == np.int64

    @pytest.mark.parametrize("n, dtype", [(65_535, np.uint32), (65_536, np.int64)])
    @pytest.mark.parametrize("w", SECTOR_WIDTHS)
    def test_matches_reference(self, n, dtype, w):
        rng = np.random.default_rng(n + w)
        owners = np.array([0, 1, n // 2, n - 2, n - 1], dtype=np.int64)
        u = rng.choice(owners, 400)
        # co-members near each owner, so Stage 2 ends at both edges of
        # the id range, plus pairs between the extreme ids
        co = np.clip(u + rng.integers(-40, 40, u.size), 0, n - 1)
        u = np.concatenate([[0, 0, n - 1, n - 1], u])
        co = np.concatenate([[0, n - 1, 0, n - 1], co])
        key = _key(u, co, n)
        assert key.dtype == dtype
        assert key.max() == n * n - 1
        _assert_stages_equal(locality_stages(key, n, w), locality_stages_reference(u, co, n, w))


def _reference_round(observations, co_samples, rate, seed):
    """A round as the sampler built it before pairs moved into the round:
    per observation one draw per tile, each kept tile's pairs from
    ``tile_pairs_reference``.  Returns ``(u, co, sampled_tiles,
    observed_edges, next_draw)``."""
    rng = np.random.default_rng(seed)
    tiles, edges = [], 0
    for edge_dst, starts in observations:
        edges += edge_dst.size
        if edge_dst.size == 0 or starts.size == 0:
            continue
        lengths = np.diff(np.append(starts, edge_dst.size))
        keep = (lengths > 1) & (rng.random(starts.size) < rate)
        tiles += [edge_dst[s : s + ln] for s, ln in zip(starts[keep], lengths[keep])]
    members = np.concatenate([np.empty(0, dtype=np.int64), *tiles])
    lengths = np.array([tile.size for tile in tiles], dtype=np.int64)
    u, co = tile_pairs_reference(members, lengths, co_samples)
    return u, co, len(tiles), edges, rng.random()


@st.composite
def observation_rounds(draw):
    """(n, observations): one to three observations of a round.

    Tiles of length 1 and shorter than ``co_samples + 1`` are common;
    ids often come from a narrow window, so tiles repeat ids; an
    observation may have no tiles at all.  ``n`` past 65535 takes the
    int64 key.
    """
    n = draw(st.one_of(st.integers(1, 400), st.integers(65_530, 65_540)), label="n")
    observations = []
    for _ in range(draw(st.integers(1, 3), label="observations")):
        first = draw(st.integers(0, n - 1), label="first_id")
        last = draw(st.sampled_from([min(first + 9, n - 1), n - 1]), label="last_id")
        ids = st.integers(first, last)
        tiles = draw(st.lists(st.lists(ids, min_size=1, max_size=24), max_size=10), label="tiles")
        lengths = [len(tile) for tile in tiles]
        edge_dst = np.array([v for tile in tiles for v in tile], dtype=np.int64)
        starts = np.cumsum([0, *lengths[:-1]], dtype=np.int64) if tiles else np.empty(0, np.int64)
        observations.append((edge_dst, starts))
    return n, observations


class TestTilePairKeyEquivalence:
    """The round's one-pass pair key against the per-rotation builder."""

    @settings(max_examples=300, deadline=None)
    @given(
        observation_rounds(),
        st.integers(1, 8),
        st.sampled_from([0.5, 1.0]),
        st.integers(0, 2**16),
    )
    def test_sampler_matches_reference(self, case, co_samples, rate, seed):
        n, observations = case
        sampler = TileAccessSampler(n, 8, co_samples=co_samples, tile_sample_rate=rate, seed=seed)
        for edge_dst, starts in observations:
            sampler.observe(edge_dst, starts)
        u, co, tiles, edges, next_draw = _reference_round(observations, co_samples, rate, seed)
        key = sampler.pair_key()
        assert key.dtype == pair_key_dtype(n)
        want = np.sort(u * n + co)
        np.testing.assert_array_equal(np.sort(key).astype(np.int64), want)
        got_u, got_co = sampler.pairs()
        np.testing.assert_array_equal(np.sort(got_u * n + got_co), want)
        assert sampler.sampled_tiles == tiles
        assert sampler.observed_edges == edges
        assert sampler._rng.random() == next_draw

    @pytest.mark.parametrize(
        "lengths", [[], [1], [1, 1, 1], [2], [1, 3, 1, 7], [6, 7, 8], [16, 1, 16]]
    )
    @pytest.mark.parametrize("co_samples", [1, 6, 20])
    def test_tile_shapes(self, lengths, co_samples):
        lengths = np.array(lengths, dtype=np.int64)
        members = np.arange(lengths.sum(), dtype=np.int64) % 5  # duplicate ids
        key = tile_pair_key(members, lengths, co_samples, 5)
        u, co = tile_pairs_reference(members, lengths, co_samples)
        np.testing.assert_array_equal(np.sort(key).astype(np.int64), np.sort(u * 5 + co))


class TestComputeRoundEquivalence:
    """``compute_round`` over several observations against the reference
    pairs, reference stages and the commit rule."""

    @settings(max_examples=150, deadline=None)
    @given(
        observation_rounds(),
        st.sampled_from(SECTOR_WIDTHS),
        st.sampled_from([0, 4]),
    )
    def test_matches_reference(self, case, w, min_gain):
        n, observations = case
        spec = GPUSpec(sector_bytes=4 * w, value_bytes=4)
        reorderer = SamplingReorderer(n, spec, tile_sample_rate=1.0, min_gain=min_gain)
        for edge_dst, starts in observations:
            reorderer.observe(edge_dst, starts)
        u, co, tiles, _, _ = _reference_round(observations, reorderer.sampler.co_samples, 1.0, 0)
        if u.size:
            stages = locality_stages_reference(u, co, n, w)
            want = commit_moves(*stages, n, w, min_gain)
        else:
            want = np.arange(n, dtype=np.int64)
        outcome = reorderer.compute_round()
        assert outcome.sampled_pairs == u.size
        assert outcome.sampled_tiles == tiles
        np.testing.assert_array_equal(outcome.perm, want)
        assert outcome.moved_nodes == np.count_nonzero(want != np.arange(n))


def _lexsorted(src, dst):
    order = np.lexsort((dst, src))
    return src[order], dst[order]


@st.composite
def edge_lists(draw):
    """(n, src, dst) with self loops and duplicate edges; n = 0 has no edges."""
    n = draw(st.integers(0, 40), label="n")
    if n == 0:
        return 0, np.empty(0, np.int64), np.empty(0, np.int64)
    edges = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=120),
        label="edges",
    )
    edges += draw(st.lists(st.sampled_from(edges), max_size=20), label="dups") if edges else []
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    return n, src, dst


class TestCOOSortEquivalence:
    """One-key ``COOGraph.sorted``/``deduplicated`` against ``np.lexsort``."""

    @settings(max_examples=200, deadline=None)
    @given(edge_lists())
    def test_sorted_matches_lexsort(self, case):
        n, src, dst = case
        got = COOGraph(n, src, dst).sorted()
        want_src, want_dst = _lexsorted(src, dst)
        assert got.num_nodes == n
        assert got.src.dtype == got.dst.dtype == np.int64
        np.testing.assert_array_equal(got.src, want_src)
        np.testing.assert_array_equal(got.dst, want_dst)

    @settings(max_examples=200, deadline=None)
    @given(edge_lists())
    def test_deduplicated_matches_lexsort(self, case):
        n, src, dst = case
        got = COOGraph(n, src, dst).deduplicated()
        want_src, want_dst = _lexsorted(src, dst)
        keep = np.ones(want_src.size, dtype=bool)
        keep[1:] = (np.diff(want_src) != 0) | (np.diff(want_dst) != 0)
        np.testing.assert_array_equal(got.src, want_src[keep])
        np.testing.assert_array_equal(got.dst, want_dst[keep])

    @pytest.mark.parametrize(
        "n, src, dst",
        [
            (0, [], []),
            (1, [], []),
            (1, [0, 0, 0], [0, 0, 0]),
            (3, [2, 0, 2, 1, 2], [2, 1, 0, 1, 0]),
        ],
    )
    def test_edge_cases(self, n, src, dst):
        src = np.array(src, dtype=np.int64)
        dst = np.array(dst, dtype=np.int64)
        want_src, want_dst = _lexsorted(src, dst)
        got = COOGraph(n, src, dst).sorted()
        np.testing.assert_array_equal(got.src, want_src)
        np.testing.assert_array_equal(got.dst, want_dst)
        dedup = COOGraph(n, src, dst).deduplicated()
        distinct = sorted(set(zip(src.tolist(), dst.tolist())))
        assert list(zip(dedup.src.tolist(), dedup.dst.tolist())) == distinct


class TestPairKeyOverflowGuard:
    def test_bound_is_the_largest_exact_key(self):
        assert MAX_PAIR_KEY_NODES**2 < 2**63 <= (MAX_PAIR_KEY_NODES + 1) ** 2

    def test_reorderer_rejects_overflowing_node_count(self):
        with pytest.raises(InvalidParameterError, match="overflow"):
            SamplingReorderer(MAX_PAIR_KEY_NODES + 1)

    def test_sampler_rejects_overflowing_node_count(self):
        TileAccessSampler(MAX_PAIR_KEY_NODES, 8)
        with pytest.raises(InvalidParameterError, match="overflow"):
            TileAccessSampler(MAX_PAIR_KEY_NODES + 1, 8)

    @pytest.mark.parametrize("method", ["sorted", "deduplicated"])
    def test_coo_sort_rejects_overflowing_node_count(self, method):
        coo = COOGraph(MAX_PAIR_KEY_NODES + 1, [0, 5], [7, 1])
        with pytest.raises(GraphFormatError, match="overflow"):
            getattr(coo, method)()


FRONTIER_KINDS = (
    "empty",
    "single",
    "subset",
    "full",
    "permutation",
    "interior_permutation",
    "degree0",
)


@st.composite
def csr_graphs(draw):
    """A CSR over n in [0, 300] with degree-0 nodes, self loops and
    duplicate edges (sources drawn below a cut, so nodes past it own no
    edges)."""
    n = draw(st.integers(0, 300), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    m = draw(st.integers(0, 4 * n), label="m") if n else 0
    cut = draw(st.integers(1, n), label="cut") if n else 1
    src = rng.integers(0, cut, size=m)
    dst = rng.integers(0, max(n, 1), size=m)
    loops = rng.random(m) < 0.1
    dst[loops] = src[loops]
    dups = rng.integers(0, max(m, 1), size=m // 4 if m else 0)
    src = np.concatenate([src, src[dups]])
    dst = np.concatenate([dst, dst[dups]])
    return CSRGraph.from_edges(n, src, dst), rng


def _frontier(graph, rng, kind):
    n = graph.num_nodes
    if kind == "empty" or n == 0:
        return np.empty(0, dtype=np.int64)
    if kind == "single":
        return np.array([rng.integers(n)], dtype=np.int64)
    if kind == "subset":
        return np.flatnonzero(rng.random(n) < 0.3)
    if kind == "full":
        return np.arange(n, dtype=np.int64)
    if kind == "permutation":
        return rng.permutation(n).astype(np.int64)
    if kind == "interior_permutation":
        # Same size and endpoints as arange(n): only the full compare
        # can tell it apart.
        frontier = np.arange(n, dtype=np.int64)
        frontier[1:-1] = rng.permutation(frontier[1:-1])
        return frontier
    return np.flatnonzero(graph.out_degrees() == 0)


class TestExpandFrontierEquivalence:
    """``CSRGraph.expand_frontier`` against its three-``repeat`` reference."""

    @settings(max_examples=200, deadline=None)
    @given(csr_graphs(), st.sampled_from(FRONTIER_KINDS))
    def test_matches_reference(self, case, kind):
        graph, rng = case
        frontier = _frontier(graph, rng, kind)
        got = graph.expand_frontier(frontier)
        want = expand_frontier_reference(graph, frontier)
        for fast, ref in zip(got, want):
            assert fast.dtype == ref.dtype == np.int64
            np.testing.assert_array_equal(fast, ref)

    @settings(max_examples=50, deadline=None)
    @given(csr_graphs(), st.sampled_from(FRONTIER_KINDS))
    def test_level_degrees_come_with_the_expansion(self, case, kind):
        graph, rng = case
        frontier = _frontier(graph, rng, kind)
        *arrays, degrees = graph.expand_level(frontier)
        for got, want in zip(arrays, graph.expand_frontier(frontier)):
            np.testing.assert_array_equal(got, want)
        want = graph.offsets[frontier + 1] - graph.offsets[frontier]
        assert degrees.dtype == np.int64
        np.testing.assert_array_equal(degrees, want)

    @settings(max_examples=100, deadline=None)
    @given(csr_graphs(), st.sampled_from(FRONTIER_KINDS))
    def test_full_frontier_predicate(self, case, kind):
        graph, rng = case
        frontier = _frontier(graph, rng, kind)
        n = graph.num_nodes
        expected = frontier.size == n and np.array_equal(frontier, np.arange(n))
        assert graph.is_full_frontier(frontier) == expected

    def test_swapped_interior_is_not_full(self):
        graph = CSRGraph.from_edges(4, [0, 1, 2, 3], [1, 2, 3, 0])
        assert graph.is_full_frontier(np.arange(4, dtype=np.int32))
        assert not graph.is_full_frontier(np.array([0, 2, 1, 3]))
        assert not graph.is_full_frontier(np.array([0, 1, 3]))
        assert not graph.is_full_frontier(np.array([3, 2, 1, 0]))


class TestExpandFrontierAliasing:
    """The full path hands out ``targets`` itself, read-only; every
    other path hands out fresh arrays."""

    def _graph(self):
        return CSRGraph.from_edges(6, [0, 0, 1, 2, 2, 2, 5], [1, 2, 2, 0, 3, 5, 5])

    def test_full_path_edge_dst_is_a_read_only_view_of_targets(self):
        graph = self._graph()
        before = graph.targets.copy()
        edge_src, edge_dst, edge_pos = graph.expand_frontier(np.arange(6))
        assert np.shares_memory(edge_dst, graph.targets)
        assert not edge_dst.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            edge_dst[0] = 4
        with pytest.raises(ValueError, match="read-only"):
            edge_dst += 1
        np.testing.assert_array_equal(graph.targets, before)
        assert graph.targets.flags.writeable
        for fresh in (edge_src, edge_pos):
            assert fresh.flags.writeable
            assert not np.shares_memory(fresh, graph.targets)

    @pytest.mark.parametrize("frontier", [[2, 0], [5, 4, 3, 2, 1, 0], [0, 1, 2, 3, 4], [2]])
    def test_general_path_returns_fresh_writeable_arrays(self, frontier):
        graph = self._graph()
        for out in graph.expand_frontier(np.array(frontier)):
            assert out.flags.writeable
            assert not np.shares_memory(out, graph.targets)
            assert not np.shares_memory(out, graph.offsets)


class TestRankScatterEquivalence:
    """PageRank's filter, one share per node scattered with ``np.add.at``,
    against its reference, which divides once per edge.  The outputs
    start as NaN, so an entry the in-place zeroing skips shows, on an
    edgeless level too."""

    @settings(max_examples=150, deadline=None)
    @given(csr_graphs(), st.sampled_from(FRONTIER_KINDS), st.floats(0.05, 0.95))
    def test_matches_reference(self, case, kind, damping):
        graph, rng = case
        n = graph.num_nodes
        edge_src, edge_dst, _ = graph.expand_frontier(_frontier(graph, rng, kind))
        pr_in = rng.random(n)
        out_degrees = graph.out_degrees().astype(np.float64)
        got = np.full(n, np.nan)
        want = np.full(n, np.nan)
        rank_scatter(got, pr_in, out_degrees, damping, edge_src, edge_dst)
        rank_scatter_reference(want, pr_in, out_degrees, damping, edge_src, edge_dst)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "graph",
        [
            CSRGraph.from_edges(50, np.arange(30), (np.arange(30) * 7) % 50),
            CSRGraph.from_edges(8, [0, 0, 1, 2, 2, 3], [1, 1, 2, 2, 0, 3]),
            CSRGraph.from_edges(7, np.empty(0, np.int64), np.empty(0, np.int64)),
        ],
        ids=["dangling", "loops-and-duplicates", "edgeless"],
    )
    def test_whole_run_is_bit_identical(self, graph, monkeypatch):
        def run():
            return run_app(graph, PageRankApp(max_iterations=40, tolerance=1e-12), SageScheduler())

        fast = run()
        monkeypatch.setattr(pagerank, "rank_scatter", rank_scatter_reference)
        ref = run()
        assert fast.iterations == ref.iterations
        assert fast.seconds == ref.seconds
        assert fast.result["pagerank"].tobytes() == ref.result["pagerank"].tobytes()
