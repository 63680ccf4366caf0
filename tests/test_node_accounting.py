"""The per-graph node table that prices SAGE kernels.

``SageScheduler.level_stats`` prices a queue of levels in one pass by
summing precomputed per-node columns of a
:class:`~repro.core.tiling.NodeAccounting` instead of re-tiling every
frontier (``kernel_stats`` is the same pass over one level).  These
tests pin both to the per-frontier formulation
(``kernel_stats_reference`` / ``frontier_work_reference``) field for
field, and check the table's lifecycle: one build per graph object,
a fresh table after a reorder commit (derived from the old one) or a
dynamic flush, and a live ``work_unit_gap`` audit.
"""

import dataclasses
import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.analysis import Sanitizer
from repro.apps import BCApp, BFSApp, PageRankApp, SSSPApp
from repro.core import SageScheduler, TraversalPipeline, engine
from repro.core.pipeline import Level
from repro.core.tiling import (
    COVERED,
    NodeAccounting,
    frontier_work_reference,
    node_accounting,
)
from repro.graph import datasets
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph
from repro.gpusim.cost import KernelBatch
from repro.obs import MetricsRegistry
from repro.obs.span import NullSpan


class _Recorder(SageScheduler):
    """SAGE scheduler that keeps the stats of every level it prices:
    from the node table, or with ``reference`` by
    ``kernel_stats_reference`` level by level."""

    def __init__(self, reference, **kwargs):
        super().__init__(**kwargs)
        self.reference = reference
        self.stats = []

    def level_stats(self, levels, graph, app):
        if self.reference:
            batch = self.stack([
                self.kernel_stats_reference(
                    level.frontier, level.degrees, level.edge_dst, graph, app
                )
                for level in levels
            ])
        else:
            batch = super().level_stats(levels, graph, app)
        self.stats.extend(batch.row(index) for index in range(len(batch)))
        return batch


class _TableLog(SageScheduler):
    """SAGE scheduler that keeps every graph it priced and its table."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.tables = {}

    def _node_table(self, graph):
        table = super()._node_table(graph)
        self.tables[id(graph)] = (graph, table)
        return table


def _table_and_reference(**config):
    return _Recorder(False, **config), _Recorder(True, **config)


def assert_stats_equal(got, want):
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b, err_msg=field.name)
        else:
            assert a == b, field.name


def assert_level_stats_equal(got, want):
    """A ``level_stats`` batch equals the :class:`KernelStats` ``want``
    stacked, column for column and dtype for dtype."""
    assert isinstance(got, KernelBatch)
    stacked = KernelBatch.of(want)
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(stacked, field.name)
        assert a.dtype == b.dtype, field.name
        np.testing.assert_array_equal(a, b, err_msg=field.name)


@st.composite
def graph_and_frontiers(draw, max_frontiers=3, full=False):
    """A graph with degree-0 nodes, small degrees, multiples of the tile
    sizes and hubs of at least a block, plus 1-``max_frontiers``
    frontiers that may be duplicated, unsorted, empty or edge-free and
    share nodes with each other.  ``full`` adds one ``arange(n)``
    frontier and one frontier of degree-0 nodes."""
    active = draw(st.integers(1, 20))
    degree = st.one_of(
        st.just(0),
        st.integers(1, 20),
        st.integers(1, 32).map(lambda k: 4 * k),
        st.integers(256, 700),
    )
    degrees = np.array(draw(st.lists(degree, min_size=active, max_size=active)))
    num_nodes = active + draw(st.integers(0, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([4, 64, num_nodes]))
    edges = int(degrees.sum())
    dst = (rng.integers(0, spread, edges) + rng.integers(0, num_nodes)) % num_nodes
    graph = CSRGraph.from_edges(num_nodes, np.repeat(np.arange(active), degrees), dst)
    frontier = st.lists(st.integers(0, active - 1), max_size=30)
    frontiers = draw(st.lists(frontier, min_size=1, max_size=max_frontiers))
    frontiers = [np.array(f, dtype=np.int64) for f in frontiers]
    if full:
        for extra in (np.arange(num_nodes), np.flatnonzero(degrees == 0)):
            frontiers.insert(draw(st.integers(0, len(frontiers))), extra)
    return graph, frontiers


CONFIGS = [
    dict(resident_stealing=rts, sampling_reorder=sr, tile_alignment=aligned, min_tile=tile)
    for rts, sr, aligned, tile in itertools.product(
        (True, False), (True, False), (True, False), (4, 8, 32)
    )
]


class TestTableMatchesReference:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: "-".join(map(str, c.values())))
    @settings(max_examples=12, deadline=None)
    @given(case=graph_and_frontiers())
    def test_kernel_stats_field_for_field(self, config, case):
        graph, frontiers = case
        # one non-atomic (BFS) and one atomic (BC, access factor 2) app
        for app in (BFSApp(), BCApp()):
            table, reference = SageScheduler(**config), SageScheduler(**config)
            table.reset(graph)
            reference.reset(graph)
            for frontier in frontiers:
                degrees = graph.offsets[frontier + 1] - graph.offsets[frontier]
                edge_dst = graph.expand_frontier(frontier)[1]
                got = table.kernel_stats(frontier, degrees, edge_dst, graph, app)
                want = reference.kernel_stats_reference(
                    frontier, degrees, edge_dst, graph, app
                )
                assert_stats_equal(got, want)
            if config["sampling_reorder"]:
                for a, b in zip(
                    table.reorderer.sampler.pairs(), reference.reorderer.sampler.pairs()
                ):
                    np.testing.assert_array_equal(a, b)

    @settings(max_examples=60, deadline=None)
    @given(
        case=graph_and_frontiers(),
        min_tile=st.sampled_from([1, 8, 32]),
        block_size=st.sampled_from([32, 256]),
        aligned=st.booleans(),
    )
    def test_level_totals_match_reference(self, case, min_tile, block_size, aligned):
        graph, frontiers = case
        table, built = node_accounting(graph, block_size, min_tile, 8, aligned)
        assert built
        for frontier in frontiers:
            degrees = graph.offsets[frontier + 1] - graph.offsets[frontier]
            edge_dst = graph.expand_frontier(frontier)[1]
            nodes, units, sums = table.level_totals([frontier])
            want_sums, want_units, want_starts = frontier_work_reference(
                degrees, edge_dst, block_size, min_tile, 8, aligned
            )
            np.testing.assert_array_equal(nodes, frontier)
            np.testing.assert_array_equal(sums, want_sums)
            np.testing.assert_array_equal(units, want_units)
            np.testing.assert_array_equal(
                table.segment_starts(frontier, degrees, units), want_starts
            )

    def test_edge_free_frontier(self):
        graph = CSRGraph.from_edges(6, np.array([0, 0, 3]), np.array([1, 2, 5]))
        for frontier in ([1, 2, 4, 2], []):
            frontier = np.array(frontier, dtype=np.int64)
            degrees = graph.offsets[frontier + 1] - graph.offsets[frontier]
            table, reference = _table_and_reference(sampling_reorder=True)
            for scheduler in (table, reference):
                scheduler.reset(graph)
            got = table.kernel_stats(frontier, degrees, degrees[:0], graph, BFSApp())
            want = reference.kernel_stats_reference(
                frontier, degrees, degrees[:0], graph, BFSApp()
            )
            assert_stats_equal(got, want)
            assert got.active_edges == 0


class TestTableLifecycle:
    def test_one_table_per_graph(self):
        graph = gen.rmat(8, edge_factor=8, seed=3)
        metrics = MetricsRegistry()
        for source in range(5):
            api.run(graph, "bfs", source=source, metrics=metrics)
        assert metrics.counters["sage.node_tables_built"] == 1.0

    def test_tables_are_keyed_by_configuration(self):
        graph = gen.rmat(6, edge_factor=4, seed=3)
        first, built = node_accounting(graph, 256, 8, 8, True)
        assert built
        again, built = node_accounting(graph, 256, 8, 8, True)
        assert again is first and not built
        assert node_accounting(graph, 256, 8, 8, False)[1]
        assert node_accounting(graph, 256, 16, 8, True)[1]

    def test_concurrent_first_use_builds_once(self):
        graph = gen.rmat(9, edge_factor=8, seed=4)
        results = []
        start = threading.Barrier(8)

        def use():
            start.wait(timeout=10)
            results.append(node_accounting(graph, 256, 8, 8, True))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=use) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 8
        assert sum(built for _, built in results) == 1
        assert len({id(table) for table, _ in results}) == 1

    def test_reorder_commit_prices_from_a_fresh_table(self):
        graph = gen.power_law_configuration(
            500, 2.0, 10.0, seed=9, community_count=10, community_bias=0.9, scramble_ids=True
        )
        config = dict(sampling_reorder=True, reorder_threshold_edges=graph.num_edges // 4)
        table, reference = _table_and_reference(**config)
        metrics = MetricsRegistry()
        got = TraversalPipeline(graph, table, metrics=metrics).run(BFSApp(), 2)
        want = TraversalPipeline(graph, reference).run(BFSApp(), 2)
        assert got.reorder_commits >= 1
        assert got.reorder_commits == want.reorder_commits
        # the first graph plus one per commit that a later kernel priced
        assert metrics.counters["sage.node_tables_built"] == 1 + got.reorder_commits
        assert len(table.stats) == len(reference.stats)
        for a, b in zip(table.stats, reference.stats):
            assert_stats_equal(a, b)
        np.testing.assert_array_equal(got.result["dist"], want.result["dist"])

    @pytest.mark.parametrize("aligned", [True, False])
    @pytest.mark.parametrize(
        "dataset",
        [datasets.twitter_like(0.05).graph, gen.rmat(10, edge_factor=8)],
        ids=["twitter_like-0.05", "rmat-10-8"],
    )
    def test_reused_pipeline_derives_each_table(self, dataset, aligned, monkeypatch):
        # Every commit derives the relabelled graph's table from the old
        # one; the first graph alone is tiled.  A fresh graph object
        # holds no table yet (datasets are cached across tests).
        graph = dataclasses.replace(dataset)
        scheduler = _TableLog(
            sampling_reorder=True, tile_alignment=aligned,
            reorder_threshold_edges=graph.num_edges // 4,
        )
        builds = []
        build = NodeAccounting.build.__func__
        monkeypatch.setattr(
            NodeAccounting, "build",
            classmethod(lambda cls, g, *key: builds.append(g) or build(cls, g, *key)),
        )
        metrics = MetricsRegistry()
        pipeline = TraversalPipeline(graph, scheduler, metrics=metrics)
        commits = sum(pipeline.run(BFSApp(), source).reorder_commits for source in (0, 3, 7))
        assert commits >= 3
        assert builds == [graph]
        monkeypatch.undo()
        spec = scheduler.spec
        assert len(scheduler.tables) >= 3
        for priced, table in scheduler.tables.values():
            want = NodeAccounting.build(
                priced, spec.block_size, scheduler.min_tile, spec.sector_width, aligned
            )
            for name in ("per_node", "segment_ptr", "segment_local"):
                got, expected = getattr(table, name), getattr(want, name)
                assert got.dtype == expected.dtype
                np.testing.assert_array_equal(got, expected, err_msg=name)
        assert metrics.counters["sage.node_tables_built"] == len(scheduler.tables)

    def test_a_pending_relabel_derives_only_its_graph(self):
        # A commit leaves (relabelled graph, last table, perm) for the
        # next table; it survives reset (the next query on a reused
        # pipeline), and any other graph object, even an equal one, is
        # tiled afresh.
        graph = gen.rmat(8, edge_factor=8, seed=3)
        perm = np.random.default_rng(1).permutation(graph.num_nodes)
        scheduler = SageScheduler()
        spec = scheduler.spec
        key = (spec.block_size, scheduler.min_tile, spec.sector_width, True)
        relabelled = graph.permute(perm)
        for notified, next_graph in (
            (relabelled, relabelled),
            (graph.permute(perm), dataclasses.replace(graph)),
        ):
            scheduler.reset(graph)
            scheduler._node_table(graph)
            scheduler.notify_reordered(perm, notified)
            scheduler.reset(next_graph)
            got = scheduler._node_table(next_graph)
            want = NodeAccounting.build(next_graph, *key)
            for name in ("per_node", "segment_ptr", "segment_local"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    @settings(max_examples=30, deadline=None)
    @given(
        case=graph_and_frontiers(max_frontiers=1),
        min_tile=st.sampled_from([1, 4, 8]),
        aligned=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_relabelled_table_equals_a_build(self, case, min_tile, aligned, seed):
        graph, _ = case
        perm = np.random.default_rng(seed).permutation(graph.num_nodes)
        relabelled = graph.permute(perm)
        key = (256, min_tile, 8, aligned)
        old, _ = node_accounting(graph, *key)
        derived, built = node_accounting(relabelled, *key, relabel=(old, perm))
        assert built
        want = NodeAccounting.build(relabelled, *key)
        for name in ("per_node", "segment_ptr", "segment_local"):
            got = getattr(derived, name)
            assert got.dtype == getattr(want, name).dtype
            np.testing.assert_array_equal(got, getattr(want, name))
        # the memo keeps the first table made for a graph
        again, built = node_accounting(relabelled, *key)
        assert again is derived and not built

    def test_full_frontier_kernels_match_reference_across_graphs(self):
        # PageRank expands every node in id order each iteration, so the
        # kernel-wide distinct counts are reused per graph; a scheduler
        # moved to a graph with new in-neighbors must recount.
        first = gen.rmat(8, edge_factor=4, seed=2)
        untargeted = np.setdiff1d(np.arange(first.num_nodes), first.targets)
        assert untargeted.size
        second = first.with_edges_added(np.zeros(untargeted.size, dtype=np.int64), untargeted)
        table, reference = _table_and_reference()
        for graph in (first, second):
            TraversalPipeline(graph, table).run(PageRankApp(max_iterations=5))
            TraversalPipeline(graph, reference).run(PageRankApp(max_iterations=5))
        assert len(table.stats) == len(reference.stats) == 10
        for a, b in zip(table.stats, reference.stats):
            assert_stats_equal(a, b)

    def test_dynamic_flush_prices_from_a_fresh_table(self):
        dyn = DynamicGraph(gen.rmat(8, edge_factor=8, seed=5))
        metrics = MetricsRegistry()
        api.run(dyn.graph, "bfs", source=0, metrics=metrics)
        before = dyn.graph
        dyn.insert_edges(np.arange(0, 64), np.arange(64, 128))
        after = dyn.flush()
        assert after is not before
        table, reference = _table_and_reference()
        TraversalPipeline(after, table, metrics=metrics).run(BFSApp(), 0)
        TraversalPipeline(after, reference).run(BFSApp(), 0)
        assert metrics.counters["sage.node_tables_built"] == 2.0
        for a, b in zip(table.stats, reference.stats):
            assert_stats_equal(a, b)

    def test_sanitizer_sees_a_corrupted_coverage_column(self):
        graph = gen.rmat(8, edge_factor=8, seed=11)
        scheduler = SageScheduler()
        spec = scheduler.spec
        table, _ = node_accounting(
            graph, spec.block_size, scheduler.min_tile, spec.sector_width, True
        )
        source = int(np.argmax(graph.out_degrees()))
        table.per_node[COVERED, source] += 1
        sanitizer = Sanitizer()
        TraversalPipeline(graph, scheduler, sanitizer=sanitizer).run(BFSApp(), source)
        gaps = [f for f in sanitizer.findings if f.code == "work_unit_gap"]
        assert len(gaps) == 1
        assert gaps[0].details["covered"] == gaps[0].details["total_edges"] + 1


class TestLevelStats:
    """One ``level_stats`` pass equals pricing each level in turn."""

    @pytest.mark.parametrize(
        "config",
        [c for c in CONFIGS if not c["sampling_reorder"]],
        ids=lambda c: "-".join(map(str, c.values())),
    )
    @settings(max_examples=10, deadline=None)
    @given(case=graph_and_frontiers(max_frontiers=40, full=True), cut=st.integers(0, 42))
    def test_queue_matches_reference_level_by_level(self, config, case, cut):
        graph, frontiers = case
        levels = []
        for index, frontier in enumerate(frontiers):
            _, edge_dst, edge_pos = graph.expand_frontier(frontier)
            degrees = graph.offsets[frontier + 1] - graph.offsets[frontier]
            full = graph.is_full_frontier(frontier)
            levels.append(Level(index, frontier, degrees, edge_dst, edge_pos, NullSpan(), full))
        for app in (BFSApp(), BCApp(), SSSPApp()):
            queued, reference = SageScheduler(**config), SageScheduler(**config)
            queued.reset(graph)
            reference.reset(graph)
            # two queues, so some nodes are resident before the second
            head = queued.level_stats(levels[:cut], graph, app)
            tail = queued.level_stats(levels[cut:], graph, app)
            want = [
                reference.kernel_stats_reference(
                    level.frontier, level.degrees, level.edge_dst, graph, app
                )
                for level in levels
            ]
            assert_level_stats_equal(head, want[:cut])
            assert_level_stats_equal(tail, want[cut:])
            if config["resident_stealing"]:
                for name in ("reuse_hits", "expansions", "stored_tiles"):
                    assert getattr(queued.resident_store, name) == getattr(
                        reference.resident_store, name
                    ), name

    def test_a_full_last_level_is_priced_as_a_queue_of_its_own(self, monkeypatch):
        """On a graph with |E| < |V| a full level shares a queue, as its
        last level.  It is priced as a queue of its own: from the table's
        column totals, never gathered, and from the graph's distinct
        counts, counted once per graph and never inside the queue's pass."""
        rng = np.random.default_rng(5)
        graph = CSRGraph.from_edges(200, rng.integers(0, 40, 120), rng.integers(0, 200, 120))
        assert graph.num_edges < graph.num_nodes
        frontiers = [np.arange(i, 40, 5, dtype=np.int64) for i in range(4)]
        frontiers.append(np.arange(graph.num_nodes, dtype=np.int64))
        levels = []
        for index, frontier in enumerate(frontiers):
            _, edge_dst, edge_pos, degrees = graph.expand_level(frontier)
            full = graph.is_full_frontier(frontier)
            levels.append(Level(index, frontier, degrees, edge_dst, edge_pos, NullSpan(), full))
        assert [level.full for level in levels] == [False] * 4 + [True]
        passes, gathers = [], []
        count = engine.distinct_counts
        monkeypatch.setattr(
            engine, "distinct_counts", lambda batches, *a: passes.append(batches) or count(batches, *a)
        )
        level_totals = NodeAccounting.level_totals
        monkeypatch.setattr(
            NodeAccounting, "level_totals",
            lambda table, queued: gathers.append(len(queued)) or level_totals(table, queued),
        )
        for app in (BFSApp(), BCApp()):
            columns, reference = SageScheduler(), SageScheduler()
            columns.reset(graph)
            reference.reset(graph)
            got = columns.level_stats(levels, graph, app)
            want = [
                reference.kernel_stats_reference(
                    level.frontier, level.degrees, level.edge_dst, graph, app
                )
                for level in levels
            ]
            assert_level_stats_equal(got, want)
        # per scheduler: one pass and one gather for the four partial
        # levels, and one count of the graph's targets
        assert gathers == [4, 4]
        assert [len(batches) for batches in passes] == [4, 1, 4, 1]
        assert [batches[0] is graph.targets for batches in passes] == [False, True] * 2
