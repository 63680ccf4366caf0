"""SAGE engine tests: ablation ordering, resident tiles, self-adaptive
reordering mid-run."""

import numpy as np
import pytest

from repro.apps import BFSApp, PageRankApp
from repro.core import SageScheduler, run_app
from repro.core.resident import ResidentTileStore
from repro.graph import generators as gen
from tests.conftest import bfs_oracle, pagerank_oracle


class TestAblationOrdering:
    """The Figure-10 structure must hold on a skewed graph."""

    def speeds(self, graph, source):
        out = {}
        for label, flags in [
            ("base", dict(tiled_partitioning=False, resident_stealing=False)),
            ("tp", dict(tiled_partitioning=True, resident_stealing=False)),
            ("tp+rts", dict()),
        ]:
            result = run_app(graph, BFSApp(), SageScheduler(**flags),
                             source=source)
            out[label] = result.gteps
        return out

    def test_tp_beats_base_on_skewed(self, skewed_graph):
        speeds = self.speeds(skewed_graph, 0)
        assert speeds["tp"] > speeds["base"]

    def test_rts_beats_tp_on_skewed(self, skewed_graph):
        speeds = self.speeds(skewed_graph, 0)
        assert speeds["tp+rts"] > speeds["tp"]

    def test_scheduler_names(self):
        assert SageScheduler().name == "sage+tp+rts"
        assert SageScheduler(sampling_reorder=True).name == "sage+tp+rts+sr"
        assert SageScheduler(tiled_partitioning=False,
                             resident_stealing=False).name == "sage-base"


class TestResidentStore:
    def test_visit_tracks_reuse(self, tiny_graph):
        store = ResidentTileStore(tiny_graph)
        frontier = np.array([0, 1])
        tiles = np.array([2, 1])
        reused, new, new_tiles = store.visit(frontier, tiles)
        assert (reused, new, new_tiles) == (0, 2, 3)
        reused, new, new_tiles = store.visit(frontier, tiles)
        assert (reused, new, new_tiles) == (2, 0, 0)
        assert (store.reuse_hits, store.expansions) == (2, 2)

    def test_invalidate_all(self, tiny_graph):
        store = ResidentTileStore(tiny_graph)
        store.visit(np.array([0]), np.array([5]))
        store.invalidate_all()
        assert store.stored_tiles == 0
        _, new, __ = store.visit(np.array([0]), np.array([5]))
        assert new == 1

    def test_pr_reuses_tiles_across_iterations(self, skewed_graph):
        scheduler = SageScheduler()
        run_app(skewed_graph, PageRankApp(max_iterations=5), scheduler)
        store = scheduler.resident_store
        assert store is not None
        # iterations 2..5 fully reuse iteration 1's expansion
        assert store.reuse_hits > 0.7 * (store.reuse_hits + store.expansions)


class TestSelfAdaptiveReordering:
    def graph(self):
        return gen.power_law_configuration(
            500, 2.0, 10.0, seed=9,
            community_count=10, community_bias=0.9, scramble_ids=True,
        )

    def test_bfs_results_survive_midrun_reorder(self):
        g = self.graph()
        sched = SageScheduler(sampling_reorder=True,
                              reorder_threshold_edges=g.num_edges // 4)
        result = run_app(g, BFSApp(), sched, source=2)
        assert result.reorder_commits >= 1
        assert np.array_equal(result.result["dist"], bfs_oracle(g, 2))

    def test_pr_results_survive_midrun_reorder(self):
        g = self.graph()
        sched = SageScheduler(sampling_reorder=True,
                              reorder_threshold_edges=g.num_edges)
        result = run_app(
            g, PageRankApp(max_iterations=60, tolerance=1e-12), sched
        )
        assert result.reorder_commits >= 2
        assert np.allclose(result.result["pagerank"], pagerank_oracle(g),
                           atol=1e-6)

    def test_final_perm_is_cumulative_bijection(self):
        g = self.graph()
        sched = SageScheduler(sampling_reorder=True,
                              reorder_threshold_edges=g.num_edges)
        result = run_app(g, PageRankApp(max_iterations=30), sched)
        perm = result.final_perm
        assert perm is not None
        assert np.array_equal(np.sort(perm), np.arange(g.num_nodes))

    def test_no_reorder_without_flag(self, skewed_graph):
        result = run_app(skewed_graph, PageRankApp(max_iterations=10),
                         SageScheduler())
        assert result.reorder_commits == 0
        assert result.final_perm is None

    def test_reorder_invalidates_resident_tiles(self):
        g = self.graph()
        sched = SageScheduler(sampling_reorder=True,
                              reorder_threshold_edges=g.num_edges)
        run_app(g, PageRankApp(max_iterations=10), sched)
        store = sched.resident_store
        assert store is not None
        # at least one commit happened, so expansions exceed one sweep
        assert sched.reorderer is not None
        assert sched.reorderer.rounds_completed >= 1
