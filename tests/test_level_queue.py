"""Every pipeline run prices its levels in queues, and equals pricing
each level as it runs.

A :class:`~repro.core.pipeline.TraversalPipeline` queues levels and
prices the queue with one ``Scheduler.level_stats`` call once it holds
the scheduler's ``queue_edge_limit`` edges (|E| by default), before a
reorder commit and at convergence; a level of |V| edges or more closes
the queue before it, and a full frontier fills a queue alone.
Plain, recorded, sanitized and sampling-reorder runs all take that path.
The reference prices each level as it runs, as a queue of one; every
kind of run must equal it, bit for bit.  SAGE prices a queue of any
length, under every Tiled Partitioning configuration, by one formula;
``level_stats`` must equal ``kernel_stats_reference`` stacked.
"""

import dataclasses

import numpy as np
import pytest

from repro import api
from repro.analysis import Sanitizer
from repro.apps import BCApp, BFSApp
from repro.core import SageScheduler, TraversalPipeline
from repro.core.compressed import CompressedTraversalScheduler
from repro.core.pipeline import Level
from repro.core.scheduler import Scheduler
from repro.core.tiling import NodeAccounting
from repro.graph import generators as gen
from repro.graph.compressed import CompressedCSRGraph
from repro.gpusim.cost import KernelBatch, KernelCostModel
from repro.gpusim.streams import trace_seconds
from repro.obs import MetricsRegistry
from repro.obs.span import NullSpan

GRAPHS = {
    "grid": lambda: gen.grid_2d(24, 24),
    "rmat": lambda: gen.rmat(9, 8, seed=3),
}


@pytest.fixture(scope="module")
def graphs():
    return {name: build() for name, build in GRAPHS.items()}


@pytest.fixture
def priced_queues(monkeypatch):
    """Edges of each level of every ``level_stats`` call a pipeline makes.

    Both the base method and SAGE's are spied on; SAGE's own fallback to
    the base method is not counted twice.
    """
    calls = []
    depth = []

    def spying(original):
        def spy(scheduler, levels, graph, app):
            if not depth:
                calls.append([int(level.edge_dst.size) for level in levels])
            depth.append(None)
            try:
                return original(scheduler, levels, graph, app)
            finally:
                depth.pop()

        return spy

    for cls in (Scheduler, SageScheduler):
        monkeypatch.setattr(cls, "level_stats", spying(cls.level_stats))
    return calls


#: every scheduler of the API, plus the SAGE ablation configurations
#: Fig 10 runs (block placement, and thread-per-node without tiling)
SCHEDULERS = {
    **api.SCHEDULERS,
    "sage-no-rts": lambda: SageScheduler(resident_stealing=False),
    "sage-no-tp": lambda: SageScheduler(tiled_partitioning=False),
}

#: a run of each kind, as ``api.run`` keywords
KINDS = {
    "plain": {},
    "recorded": {"metrics": MetricsRegistry},
    "sanitized": {"checks": True},
}


def _level_by_level(scheduler: Scheduler) -> Scheduler:
    """``scheduler``, priced as each level runs: its queue holds no
    edges, so every queue is one level."""
    base = type(scheduler)

    class LevelByLevel(base):
        def queue_edge_limit(self, graph):
            return 0

    scheduler.__class__ = LevelByLevel
    return scheduler


def _run(graph, app, scheduler, kind="plain", source=None):
    kwargs = {
        key: value() if callable(value) else value
        for key, value in KINDS[kind].items()
    }
    return api.run(graph, app, source=source, scheduler=scheduler, **kwargs).raw


def assert_same_run(got, want):
    assert got.seconds == want.seconds
    assert got.iterations == want.iterations
    assert got.node_trace == want.node_trace
    assert got.profiler == want.profiler
    assert got.reorder_commits == want.reorder_commits
    if want.final_perm is None:
        assert got.final_perm is None
    else:
        np.testing.assert_array_equal(got.final_perm, want.final_perm)
    assert got.result.keys() == want.result.keys()
    for key, value in got.result.items():
        np.testing.assert_array_equal(value, want.result[key], err_msg=key)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
@pytest.mark.parametrize("app", sorted(api.APPS))
def test_every_kind_of_run_equals_the_level_by_level_run(
    graphs, graph_name, scheduler_name, app
):
    graph = graphs[graph_name]
    make = SCHEDULERS[scheduler_name]
    want = _run(graph, app, _level_by_level(make()))
    for kind in KINDS:
        assert_same_run(_run(graph, app, make(), kind), want)


def _sampling_reorder(graph=None):
    scheduler = SageScheduler(sampling_reorder=True, reorder_threshold_edges=256)
    if graph is None:
        return scheduler
    return CompressedTraversalScheduler(scheduler, CompressedCSRGraph.from_csr(graph))


@pytest.mark.parametrize("compressed", [False, True], ids=["sage-sr", "compressed"])
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("app", sorted(api.APPS))
def test_sampling_reorder_commits_at_the_same_levels(
    graphs, graph_name, compressed, app
):
    graph = graphs[graph_name]

    def make():
        return _sampling_reorder(graph if compressed else None)

    want = _run(graph, app, _level_by_level(make()))
    for kind in KINDS:
        assert_same_run(_run(graph, app, make(), kind), want)


@pytest.mark.parametrize("app", ["bc", "sppr"])
def test_rounds_commit_as_long_queues_are_priced(graphs, monkeypatch, app):
    """The sampling-reorder case above is not vacuous: on the grid, a
    queue of four or more levels makes a round ready, and the round
    commits at the level the reference commits at."""
    graph = graphs["grid"]
    events = []
    level_stats = SageScheduler.level_stats
    post_level = SageScheduler.post_level

    def priced(scheduler, levels, graph, app):
        stats = level_stats(scheduler, levels, graph, app)
        events.append((len(levels), scheduler.reorderer.ready))
        return stats

    def committed(scheduler, graph):
        commit = post_level(scheduler, graph)
        if commit is not None:
            events.append("commit")
        return commit

    monkeypatch.setattr(SageScheduler, "level_stats", priced)
    monkeypatch.setattr(SageScheduler, "post_level", committed)
    got = _run(graph, app, _sampling_reorder(), source=0)
    assert got.reorder_commits > 0
    assert any(
        event == "commit" and events[i - 1][0] >= 4
        for i, event in enumerate(events)
    )
    monkeypatch.undo()
    want = _run(graph, app, _level_by_level(_sampling_reorder()), source=0)
    assert_same_run(got, want)


def assert_queues_hold_under_e_edges_plus_their_trigger(queues, graph):
    assert queues
    for edges in queues:
        assert sum(edges[:-1]) < graph.num_edges
        # a level of |V| edges or more closes the queue before it
        assert all(level < graph.num_nodes for level in edges[1:])


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_a_flush_holds_under_e_edges_plus_its_trigger(graphs, graph_name, priced_queues):
    graph = graphs[graph_name]
    run = api.run(graph, "bfs", source=0)
    assert_queues_hold_under_e_edges_plus_their_trigger(priced_queues, graph)
    assert sum(map(sum, priced_queues)) == run.edges_traversed


def test_a_grid_bfs_is_priced_in_one_pass(graphs, priced_queues):
    graph = graphs["grid"]
    run = api.run(graph, "bfs", source=0)
    # a BFS of a connected graph reads every edge once: |E| in all
    assert run.edges_traversed == graph.num_edges
    assert len(priced_queues) == 1
    assert len(priced_queues[0]) == run.iterations


def test_each_queue_of_a_grid_sssp_holds_under_e_edges_plus_its_trigger(
    graphs, priced_queues
):
    graph = graphs["grid"]
    # from node 1, some nodes settle late and are expanded again
    run = api.run(graph, "sssp", source=1)
    assert run.edges_traversed > graph.num_edges
    assert len(priced_queues) > 1
    assert_queues_hold_under_e_edges_plus_their_trigger(priced_queues, graph)
    assert sum(map(sum, priced_queues)) == run.edges_traversed


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_every_full_pagerank_level_is_a_queue_of_one(graphs, graph_name, priced_queues):
    graph = graphs[graph_name]
    run = api.run(graph, "pr")
    assert priced_queues == [[graph.num_edges]] * run.iterations


def test_small_levels_are_priced_together(graphs, priced_queues):
    graph = graphs["grid"]
    run = api.run(graph, "bfs", source=0)
    assert max(len(edges) for edges in priced_queues) > 1
    # every level of a grid BFS is small, so every level was queued
    assert sum(len(edges) for edges in priced_queues) == run.iterations


@pytest.mark.parametrize(
    "case", ["metrics", "sanitizer", "sampling-reorder", "compressed-sampling-reorder"]
)
def test_every_kind_of_run_queues_alike(graphs, priced_queues, case):
    graph = graphs["grid"]
    api.run(graph, "bfs", source=0)
    plain = list(priced_queues)
    priced_queues.clear()
    if case == "metrics":
        api.run(graph, "bfs", source=0, metrics=MetricsRegistry())
    elif case == "sanitizer":
        api.run(graph, "bfs", source=0, checks=True)
    elif case == "sampling-reorder":
        api.run(graph, "bfs", source=0, scheduler="sage-sr")
    else:
        scheduler = CompressedTraversalScheduler(
            SageScheduler(sampling_reorder=True), CompressedCSRGraph.from_csr(graph)
        )
        TraversalPipeline(graph, scheduler).run(BFSApp(), 0)
    assert priced_queues == plain


def test_each_queued_level_is_recorded_on_its_own_span(graphs, monkeypatch):
    graph = graphs["grid"]
    batches = []
    level_stats = SageScheduler.level_stats

    def spy(scheduler, levels, graph, app):
        batches.append(level_stats(scheduler, levels, graph, app))
        return batches[-1]

    monkeypatch.setattr(SageScheduler, "level_stats", spy)
    metrics = MetricsRegistry()
    run = TraversalPipeline(graph, SageScheduler(), metrics=metrics).run(BFSApp(), 0)
    assert max(len(batch) for batch in batches) > 1
    priced = KernelBatch.concat(batches)
    model = KernelCostModel(SageScheduler().spec)
    levels = [span for span in metrics.roots[-1].children if span.name == "iteration"]
    assert len(levels) == run.iterations == len(priced)
    for span, stats in zip(levels, (priced.row(i) for i in range(len(priced)))):
        index = span.attributes["index"]
        kernels = [child for child in span.children if child.name == "kernel"]
        assert [kernel.attributes["kind"] for kernel in kernels] == ["expand-filter"]
        cycles = model.time_kernel_reference(stats).cycles
        assert kernels[0].values["cycles"] == cycles
        assert span.values["kernel_cycles"] == cycles
        nodes = [node for node in run.node_trace if node.iteration == index]
        assert span.values["iteration_seconds"] == trace_seconds(nodes)


def test_a_commit_adds_its_kernel_to_its_level(graphs):
    graph = graphs["grid"]
    metrics = MetricsRegistry()
    run = api.run(
        graph, "sppr", source=0, scheduler=_sampling_reorder(), metrics=metrics
    ).raw
    assert run.reorder_commits > 0
    committed = 0
    for span in metrics.roots[-1].children:
        nodes = [n for n in run.node_trace if n.iteration == span.attributes["index"]]
        assert span.values["iteration_seconds"] == trace_seconds(nodes)
        committed += "reorder_cycles" in span.values
    assert committed == run.reorder_commits


def _bfs_levels(graph, source=0):
    """The levels of a BFS from ``source``, as a pipeline expands them."""
    levels, frontier = [], np.array([source], dtype=np.int64)
    seen = np.zeros(graph.num_nodes, dtype=bool)
    seen[source] = True
    while frontier.size:
        _, edge_dst, edge_pos, degrees = graph.expand_level(frontier)
        levels.append(Level(len(levels), frontier, degrees, edge_dst, edge_pos,
                            NullSpan(), graph.is_full_frontier(frontier)))
        frontier = np.unique(edge_dst[~seen[edge_dst]])
        seen[frontier] = True
    return levels


def _full_level(graph, index):
    frontier = np.arange(graph.num_nodes, dtype=np.int64)
    _, edge_dst, edge_pos, degrees = graph.expand_level(frontier)
    return Level(index, frontier, degrees, edge_dst, edge_pos, NullSpan(), True)


#: every Tiled Partitioning configuration SAGE prices
TILED = {
    "tp": dict(resident_stealing=False),
    "tp+rts": {},
    "tp+rts+sr": dict(sampling_reorder=True, reorder_threshold_edges=256),
}


@pytest.mark.parametrize("sanitized", [False, True], ids=["plain", "sanitized"])
@pytest.mark.parametrize("config", sorted(TILED))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_level_stats_equals_the_reference_stacked(graphs, graph_name, config, sanitized):
    """Queues of one, two and every BFS level (the last revisits
    resident nodes), then a full PageRank level, priced in turn: each
    ``level_stats`` batch equals ``kernel_stats_reference`` of its
    levels stacked, field for field, and both leave the same state."""
    graph = graphs[graph_name]
    levels = _bfs_levels(graph)
    assert len(levels) >= 5
    queues = [levels[:1], levels[1:3], levels, [_full_level(graph, len(levels))]]
    for app in (BFSApp(), BCApp()):
        queued, reference = (SageScheduler(**TILED[config]) for _ in range(2))
        for scheduler in (queued, reference):
            scheduler.set_metrics(MetricsRegistry())
            scheduler.set_sanitizer(Sanitizer() if sanitized else None)
            scheduler.reset(graph)
        for queue in queues:
            got = queued.level_stats(queue, graph, app)
            want = KernelBatch.of([
                reference.kernel_stats_reference(
                    level.frontier, level.degrees, level.edge_dst, graph, app
                )
                for level in queue
            ])
            for column in dataclasses.fields(KernelBatch):
                a, b = getattr(got, column.name), getattr(want, column.name)
                assert a.dtype == b.dtype, column.name
                np.testing.assert_array_equal(a, b, err_msg=column.name)
        # the reference re-tiles each frontier: it builds no node table
        tiles = {k: v for k, v in queued.metrics.counters.items() if k != "sage.node_tables_built"}
        assert tiles == reference.metrics.counters
        if queued.resident_store is not None:
            for name in ("reuse_hits", "expansions", "stored_tiles"):
                assert getattr(queued.resident_store, name) == getattr(
                    reference.resident_store, name
                ), name
        if queued.reorderer is not None:
            for a, b in zip(queued.reorderer.sampler.pairs(),
                            reference.reorderer.sampler.pairs()):
                np.testing.assert_array_equal(a, b)
        if sanitized:
            # the queued levels' batches were audited; the reference's
            # stats were not stacked
            assert queued.sanitizer.kernels_checked == sum(map(len, queues))
            assert queued.sanitizer.clean and reference.sanitizer.clean


def test_pricing_a_full_level_gathers_nothing(graphs, monkeypatch):
    gathers = []
    level_totals = NodeAccounting.level_totals

    def spy(table, frontiers):
        gathers.append(len(frontiers))
        return level_totals(table, frontiers)

    monkeypatch.setattr(NodeAccounting, "level_totals", spy)
    for graph in graphs.values():
        # a reorder commit leaves the next frontier out of id order, so
        # the sampling configuration prices a full level directly
        for config in ("tp", "tp+rts"):
            run = api.run(graph, "pr", scheduler=SageScheduler(**TILED[config])).raw
            assert run.iterations > 1
        scheduler = SageScheduler(**TILED["tp+rts+sr"])
        scheduler.reset(graph)
        scheduler.level_stats([_full_level(graph, 0)], graph, BFSApp())
        assert scheduler.reorderer.sampler.observed_edges == graph.num_edges
    assert gathers == []
    api.run(graphs["grid"], "bfs", source=0)
    assert gathers
