"""Exact-value accounting tests for each scheduler's kernel stats.

Crafted frontiers with hand-computable decompositions pin down the cost
accounting (issued lanes, elections, sector counts) so refactorings of
the schedulers cannot silently drift.
"""

import dataclasses

import numpy as np
import pytest

from repro.apps import BFSApp
from repro.baselines import B40CScheduler, GunrockScheduler, TigrScheduler
from repro.baselines.thread_per_node import ThreadPerNodeScheduler
from repro.core import SageScheduler
from repro.core.scheduler import csr_gather_sectors
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.gpusim.spec import GPUSpec


def star_plus_singles(hub_degree: int, singles: int) -> CSRGraph:
    """Node 0 -> hub_degree targets; nodes 1..singles each -> one edge."""
    n = max(hub_degree, singles) + 2
    src = [0] * hub_degree + list(range(1, singles + 1))
    dst = list(range(1, hub_degree + 1)) + [0] * singles
    return CSRGraph.from_edges(n, np.array(src), np.array(dst))


def stats_for(scheduler, graph, frontier):
    app = BFSApp()
    app.setup(graph, int(frontier[0]))
    scheduler.reset(graph)
    degrees = graph.offsets[frontier + 1] - graph.offsets[frontier]
    _, edge_dst, _ = graph.expand_frontier(frontier)
    return scheduler.kernel_stats(frontier, degrees, edge_dst, graph, app)


class TestThreadPerNodeExactness:
    def test_warp_divergence_formula(self):
        # 32 frontier nodes in one warp: degrees 100 and 31 ones
        graph = star_plus_singles(100, 31)
        frontier = np.arange(32, dtype=np.int64)
        stats = stats_for(ThreadPerNodeScheduler(), graph, frontier)
        # warp runs until its largest member: 32 lanes * 100 rounds
        assert stats.issued_lane_cycles == 32 * 100
        assert stats.active_edges == 100 + 31
        assert stats.lane_efficiency == pytest.approx(131 / 3200)

    def test_uncoalesced_csr_reads(self):
        graph = star_plus_singles(64, 10)
        frontier = np.arange(11, dtype=np.int64)
        stats = stats_for(ThreadPerNodeScheduler(), graph, frontier)
        assert stats.csr_sector_touches == stats.active_edges


class TestSageExactness:
    def test_divergence_free(self):
        graph = star_plus_singles(1000, 100)
        frontier = np.arange(101, dtype=np.int64)
        stats = stats_for(SageScheduler(), graph, frontier)
        assert stats.issued_lane_cycles == stats.active_edges
        assert stats.lane_efficiency == 1.0

    def test_rts_even_placement(self):
        spec = GPUSpec()
        graph = star_plus_singles(10_000, 4)
        frontier = np.arange(5, dtype=np.int64)
        stats = stats_for(SageScheduler(), graph, frontier)
        assert stats.busiest_lane_cycles == stats.issued_lane_cycles / spec.num_sms

    def test_tp_only_owner_placement_skews(self):
        graph = star_plus_singles(10_000, 4)
        frontier = np.arange(5, dtype=np.int64)
        stats = stats_for(SageScheduler(resident_stealing=False),
                          graph, frontier)
        # the single block holding the hub makes its SM carry every lane
        assert stats.busiest_lane_cycles == stats.issued_lane_cycles
        assert stats.busiest_lane_cycles > stats.issued_lane_cycles / GPUSpec().num_sms

    def test_resident_reuse_drops_write_overhead(self):
        graph = star_plus_singles(2048, 16)
        frontier = np.arange(17, dtype=np.int64)
        scheduler = SageScheduler()
        first = stats_for(scheduler, graph, frontier)
        degrees = graph.offsets[frontier + 1] - graph.offsets[frontier]
        _, edge_dst, _ = graph.expand_frontier(frontier)
        app = BFSApp()
        app.setup(graph, 0)
        second = scheduler.kernel_stats(frontier, degrees, edge_dst,
                                        graph, app)
        assert second.overhead_cycles < first.overhead_cycles
        assert second.extra_dram_bytes == 0.0


class TestB40CExactness:
    def test_bucket_issued_lanes(self):
        spec = GPUSpec()
        # one node of degree 300 (block bucket), one of 40 (warp bucket),
        # one of 5 (thread bucket)
        graph = CSRGraph.from_edges(
            400,
            np.concatenate([np.zeros(300, int), np.ones(40, int),
                            np.full(5, 2)]),
            np.concatenate([np.arange(3, 303), np.arange(3, 43),
                            np.arange(3, 8)]),
        )
        frontier = np.array([0, 1, 2], dtype=np.int64)
        stats = stats_for(B40CScheduler(), graph, frontier)
        # block bucket: ceil(300/256)=2 chunks at width 256 -> 512
        # warp bucket: ceil(40/32)=2 chunks at width 32 -> 64
        # thread bucket: scan gather -> 5
        assert stats.issued_lane_cycles == 512 + 64 + 5


class TestGunrockExactness:
    def test_edge_balanced_lanes(self):
        graph = star_plus_singles(100, 27)
        frontier = np.arange(28, dtype=np.int64)
        stats = stats_for(GunrockScheduler(), graph, frontier)
        active = 100 + 27
        warps = -(-active // 32)
        assert stats.issued_lane_cycles == warps * 32
        # perfectly even placement
        assert stats.busiest_lane_cycles == stats.issued_lane_cycles / GPUSpec().num_sms


class TestTigrExactness:
    def test_virtual_count_drives_overhead(self):
        graph = star_plus_singles(320, 0)  # hub splits into 10 virtuals
        frontier = np.array([0], dtype=np.int64)
        small = stats_for(TigrScheduler(), graph, frontier)
        regular = star_plus_singles(31, 0)  # no split
        frontier1 = np.array([0], dtype=np.int64)
        tiny = stats_for(TigrScheduler(), regular, frontier1)
        assert small.overhead_cycles > tiny.overhead_cycles
        assert small.extra_dram_bytes > tiny.extra_dram_bytes

    def test_csr_gather_is_the_shared_definition(self):
        # the hub splits into 10 virtuals of 32 edges and one of 10; the
        # five singles are one virtual each
        graph = star_plus_singles(330, 5)
        frontier = np.arange(6, dtype=np.int64)
        stats = stats_for(TigrScheduler(), graph, frontier)
        sizes = np.array([32] * 10 + [10] + [1] * 5)
        assert stats.csr_sector_touches == csr_gather_sectors(
            sizes, GPUSpec(), aligned=False
        )


@pytest.mark.parametrize(
    "make",
    [ThreadPerNodeScheduler, SageScheduler, B40CScheduler, GunrockScheduler,
     TigrScheduler],
    ids=lambda make: make.__name__,
)
def test_scalar_stats_are_python_numbers(make):
    """Every scalar ``KernelStats`` field is a Python ``int`` or ``float``:
    the golden profiler and metrics digests hash ``repr()``, where a numpy
    scalar would show."""
    graph = gen.power_law_configuration(500, 2.0, 10.0, seed=9)
    frontier = np.arange(0, 500, 3, dtype=np.int64)
    stats = stats_for(make(), graph, frontier)
    assert stats.active_edges > 0
    for field in dataclasses.fields(stats):
        value = getattr(stats, field.name)
        assert type(value) in (int, float), (field.name, type(value))
