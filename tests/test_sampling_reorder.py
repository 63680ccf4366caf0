"""Tests for tile-access sampling and Sampling-based Reordering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import BFSApp
from repro.core import SageScheduler, TraversalPipeline, sampling
from repro.core.reorder import SamplingReorderer
from repro.core.sampling import TileAccessSampler, exact_locality_counts
from repro.core.tiling import decompose_frontier
from repro.errors import InvalidParameterError
from repro.graph import datasets
from repro.graph import generators as gen
from repro.gpusim.spec import GPUSpec
from repro.reorder.base import is_permutation


class TestExactLocality:
    def test_paper_figure5_stage1(self):
        # Figure 5 Stage 1 (1st round): sector width 4.
        tiles = np.array([0, 1, 2, 8,   1, 2, 5, 8,   2, 4, 8, 9,
                          8, 12, 14, 15])
        starts = np.array([0, 4, 8, 12])
        locality = exact_locality_counts(tiles, starts, 16, 4)
        # From the figure: node 0 -> 2; node 1 -> 1+1=... node values
        # appear in several tiles; check a few the figure spells out.
        assert locality[0] == 2        # tile1 co-members 1, 2
        assert locality[8] == 1        # tile3 co-member 9 (yellow event)
        assert locality[12] == 2       # tile4 co-members 14, 15

    def test_singleton_tiles_have_zero_locality(self):
        tiles = np.array([3, 11, 19])
        starts = np.array([0, 1, 2])
        locality = exact_locality_counts(tiles, starts, 24, 8)
        assert locality.sum() == 0

    def test_empty(self):
        out = exact_locality_counts(np.array([]), np.array([]), 4, 8)
        assert out.sum() == 0


class TestSampler:
    def test_pair_symmetry_bound(self):
        sampler = TileAccessSampler(100, 8, co_samples=2,
                                    tile_sample_rate=1.0)
        sampler.observe(np.arange(32), np.array([0, 16]))
        u, co = sampler.pairs()
        # two tiles of 16 distinct ids: every element pairs with exactly
        # 2 co-members of its own tile, never with itself
        assert u.size == 32 * 2
        np.testing.assert_array_equal(u // 16, co // 16)
        assert np.all(u != co)

    def test_threshold_counting(self):
        sampler = TileAccessSampler(10, 8)
        sampler.observe(np.array([1, 2, 3]), np.array([0]))
        assert sampler.observed_edges == 3

    def test_reset(self):
        sampler = TileAccessSampler(10, 8, tile_sample_rate=1.0)
        sampler.observe(np.array([1, 2, 3]), np.array([0]))
        sampler.reset()
        assert sampler.observed_edges == 0
        assert sampler.pairs()[0].size == 0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            TileAccessSampler(0, 8)
        with pytest.raises(InvalidParameterError):
            TileAccessSampler(10, 8, co_samples=0)
        with pytest.raises(InvalidParameterError):
            TileAccessSampler(10, 8, tile_sample_rate=0.0)

    def test_locality_counts_subset_of_exact(self):
        g = gen.power_law_configuration(200, 2.0, 8.0, seed=3)
        sampler = TileAccessSampler(200, 8, co_samples=100,
                                    tile_sample_rate=1.0)
        degrees = g.out_degrees()
        decomp = decompose_frontier(degrees, 256, 8)
        starts = decomp.segment_starts(np.cumsum(degrees) - degrees)
        sampler.observe(g.targets, starts)
        sampled = sampler.locality_counts()
        exact = exact_locality_counts(g.targets, starts, 200, 8)
        # With co_samples >= max tile size the rotation enumerates every
        # co-member exactly once.
        assert np.array_equal(sampled, exact)


class TestReorderer:
    def test_identity_without_samples(self):
        r = SamplingReorderer(50, GPUSpec())
        outcome = r.compute_round()
        assert outcome.is_identity
        assert is_permutation(outcome.perm, 50)

    def test_round_produces_bijection(self):
        g = gen.power_law_configuration(
            300, 2.0, 10.0, seed=4,
            community_count=6, community_bias=0.9, scramble_ids=True,
        )
        r = SamplingReorderer(g.num_nodes, GPUSpec(),
                              threshold_edges=g.num_edges)
        degrees = g.out_degrees()
        decomp = decompose_frontier(degrees, 256, 8)
        starts = decomp.segment_starts(np.cumsum(degrees) - degrees)
        r.observe(g.targets, starts)
        assert r.ready
        outcome = r.compute_round()
        assert is_permutation(outcome.perm, g.num_nodes)

    def test_rounds_reduce_sector_objective(self):
        """The headline invariant: iterated rounds must not lose ground
        on the sector objective for a community-structured workload."""
        from repro.graph.properties import sector_span
        g = gen.power_law_configuration(
            600, 2.0, 12.0, seed=4,
            community_count=12, community_bias=0.9, scramble_ids=True,
        )
        spec = GPUSpec()
        before = sector_span(g)
        r = SamplingReorderer(g.num_nodes, spec,
                              threshold_edges=g.num_edges, seed=1)
        current = g
        for _ in range(6):
            degrees = current.out_degrees()
            decomp = decompose_frontier(degrees, spec.block_size, 8)
            starts = decomp.segment_starts(np.cumsum(degrees) - degrees)
            r.observe(current.targets, starts)
            outcome = r.compute_round()
            if not outcome.is_identity:
                current = current.permute(outcome.perm)
        after = sector_span(current)
        assert after < before * 0.98

    def test_ready_respects_threshold(self):
        r = SamplingReorderer(10, threshold_edges=100)
        r.observe(np.arange(50), np.array([0]))
        assert not r.ready
        r.observe(np.arange(50), np.array([0]))
        assert r.ready

    def test_min_gain_validation(self):
        with pytest.raises(InvalidParameterError):
            SamplingReorderer(10, min_gain=-1)

    def test_update_stats_well_formed(self):
        r = SamplingReorderer(100, GPUSpec())
        stats = r.update_stats(100, 1000)
        stats.validate()
        assert stats.active_edges == 1100

    @given(st.integers(1, 400), st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_any_round_is_bijection(self, n, seed):
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, n, size=min(400, 4 * n))
        starts = np.arange(0, edges.size, 7, dtype=np.int64)
        r = SamplingReorderer(n, GPUSpec(), threshold_edges=1,
                              seed=seed % 1000)
        r.observe(edges, starts)
        outcome = r.compute_round()
        assert is_permutation(outcome.perm, n)


def _reference_pair_key(members, lengths, co_samples, num_nodes):
    u, co = sampling.tile_pairs_reference(members, lengths, co_samples)
    return (u * num_nodes + co).astype(sampling.pair_key_dtype(num_nodes))


def _session(graph, sources):
    """(seconds, final_perm, values) of every query of one reused
    self-adaptive pipeline; each round spans several observations."""
    pipeline = TraversalPipeline(graph, SageScheduler(sampling_reorder=True))
    runs = []
    for source in sources:
        run = pipeline.run(BFSApp(), source)
        runs.append((run.seconds, run.final_perm, run.result))
    return runs


class TestReferencePairBuilderRun:
    def test_session_bit_identical(self, monkeypatch):
        graph = datasets.twitter_like(0.1).graph
        sources = np.random.default_rng(0).integers(0, graph.num_nodes, 20).tolist()
        fast = _session(graph, sources)
        monkeypatch.setattr(sampling, "tile_pair_key", _reference_pair_key)
        reference = _session(graph, sources)
        assert any(perm is not None for _, perm, _ in fast)
        for (seconds, perm, values), (ref_seconds, ref_perm, ref_values) in zip(
            fast, reference, strict=True
        ):
            assert seconds == ref_seconds
            if ref_perm is None:
                assert perm is None
            else:
                np.testing.assert_array_equal(perm, ref_perm)
            assert values.keys() == ref_values.keys()
            for key, value in ref_values.items():
                np.testing.assert_array_equal(values[key], value, err_msg=key)
