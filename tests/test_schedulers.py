"""Scheduler kernel-stats sanity and cross-scheduler result invariance."""

import numpy as np
import pytest

from repro.apps import BFSApp, PageRankApp
from repro.baselines import (
    B40CScheduler,
    GrouteScheduler,
    GunrockScheduler,
    ThreadPerNodeScheduler,
    TigrScheduler,
)
from repro.baselines.b40c import bucket_chunk_sizes, chunked_segment_starts
from repro.baselines.tigr import udt_transform
from repro.core import SageScheduler, run_app
from repro.errors import InvalidParameterError
from repro.gpusim.spec import GPUSpec

ALL_SCHEDULERS = [
    ThreadPerNodeScheduler,
    B40CScheduler,
    TigrScheduler,
    GunrockScheduler,
    GrouteScheduler,
    SageScheduler,
    lambda: SageScheduler(resident_stealing=False),
    lambda: SageScheduler(tiled_partitioning=False,
                          resident_stealing=False),
]


def stats_for(scheduler, graph, frontier, app=None):
    app = app or BFSApp()
    app.setup(graph, int(frontier[0]))
    scheduler.reset(graph)
    degrees = graph.offsets[frontier + 1] - graph.offsets[frontier]
    _, edge_dst, _ = graph.expand_frontier(frontier)
    return scheduler.kernel_stats(frontier, degrees, edge_dst, graph, app)


@pytest.mark.parametrize("factory", ALL_SCHEDULERS)
class TestKernelStatsInvariants:
    def test_stats_consistent(self, factory, skewed_graph):
        scheduler = factory()
        frontier = np.arange(skewed_graph.num_nodes, dtype=np.int64)
        stats = stats_for(scheduler, skewed_graph, frontier)
        stats.validate()
        assert stats.active_edges == skewed_graph.num_edges
        assert stats.issued_lane_cycles >= stats.active_edges
        assert stats.value_sector_unique <= stats.value_sector_touches
        assert stats.concurrency_warps >= 1.0
        assert stats.overhead_cycles >= 0.0
        assert stats.busiest_lane_cycles >= 0

    def test_results_identical_across_schedulers(self, factory, skewed_graph):
        """Scheduling must never change application results."""
        reference = run_app(
            skewed_graph, BFSApp(), GunrockScheduler(), source=3
        ).result["dist"]
        got = run_app(
            skewed_graph, BFSApp(), factory(), source=3
        ).result["dist"]
        assert np.array_equal(got, reference)

    def test_empty_frontier_handled(self, factory, tiny_graph):
        scheduler = factory()
        app = PageRankApp()
        app.setup(tiny_graph)
        scheduler.reset(tiny_graph)
        empty = np.empty(0, dtype=np.int64)
        stats = scheduler.kernel_stats(
            empty, empty.copy(), empty.copy(), tiny_graph, app
        )
        assert stats.active_edges == 0


class TestDivergenceOrdering:
    def test_thread_per_node_diverges_most_on_skew(self, skewed_graph):
        frontier = np.arange(skewed_graph.num_nodes, dtype=np.int64)
        tpn = stats_for(ThreadPerNodeScheduler(), skewed_graph, frontier)
        sage = stats_for(SageScheduler(), skewed_graph, frontier)
        assert tpn.lane_efficiency < sage.lane_efficiency
        assert sage.lane_efficiency > 0.95

    def test_b40c_between_tpn_and_sage(self, skewed_graph):
        frontier = np.arange(skewed_graph.num_nodes, dtype=np.int64)
        tpn = stats_for(ThreadPerNodeScheduler(), skewed_graph, frontier)
        b40c = stats_for(B40CScheduler(), skewed_graph, frontier)
        assert b40c.lane_efficiency > tpn.lane_efficiency


class TestB40CBuckets:
    def test_bucket_assignment(self):
        spec = GPUSpec()
        degrees = np.array([1000, 300, 100, 31, 1, 0])
        chunks = bucket_chunk_sizes(degrees, spec)
        assert chunks.tolist() == [256, 256, 32, 31, 1, 1]

    def test_chunked_segments_cover(self):
        degrees = np.array([100, 5, 0, 300])
        chunks = bucket_chunk_sizes(degrees, GPUSpec())
        starts, sizes = chunked_segment_starts(degrees, chunks)
        assert int(sizes.sum()) == int(degrees.sum())
        assert starts[0] == 0
        assert np.all(np.diff(starts) > 0)

    def test_chunked_segments_empty(self):
        starts, sizes = chunked_segment_starts(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        )
        assert starts.size == 0


class TestTigrTransform:
    def test_udt_counts(self):
        from repro.graph import generators as gen
        g = gen.star_graph(100)  # hub degree 99
        t = udt_transform(g, split_degree=32)
        assert t.virtual_count_per_node[0] == 4  # ceil(99/32)
        assert t.virtual_count_per_node[1] == 1
        assert t.extra_tree_edges == 3
        assert t.num_virtual_nodes == 99 + 4

    def test_udt_regular_graph_blowup(self, regular_graph):
        t = udt_transform(regular_graph, split_degree=8)
        # every node splits
        assert t.num_virtual_nodes > 2 * t.virtual_count_per_node.size

    def test_udt_validation(self, tiny_graph):
        with pytest.raises(InvalidParameterError):
            udt_transform(tiny_graph, split_degree=0)

    def test_build_time_measured(self, skewed_graph):
        t = udt_transform(skewed_graph)
        assert t.build_seconds >= 0.0
