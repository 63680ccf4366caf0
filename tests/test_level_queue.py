"""Queued level pricing equals pricing each level as it runs.

An unrecorded :class:`~repro.core.pipeline.TraversalPipeline` queues
levels of fewer than |V| edges and prices the queue with one
``Scheduler.level_stats`` call.  A recorded run (an enabled
``MetricsRegistry``) prices every level through ``kernel_stats`` as it
runs.  Both must give the same run, bit for bit.
"""

import numpy as np
import pytest

from repro import api
from repro.apps import BFSApp
from repro.core import SageScheduler, TraversalPipeline
from repro.core.compressed import CompressedTraversalScheduler
from repro.graph import generators as gen
from repro.graph.compressed import CompressedCSRGraph
from repro.obs import MetricsRegistry

GRAPHS = {
    "grid": lambda: gen.grid_2d(24, 24),
    "rmat": lambda: gen.rmat(9, 8, seed=3),
}


@pytest.fixture(scope="module")
def graphs():
    return {name: build() for name, build in GRAPHS.items()}


@pytest.fixture
def priced_queues(monkeypatch):
    """Edges of each level of every ``SageScheduler.level_stats`` call."""
    calls = []
    original = SageScheduler.level_stats

    def spy(scheduler, levels, graph, app):
        calls.append([int(level.edge_dst.size) for level in levels])
        return original(scheduler, levels, graph, app)

    monkeypatch.setattr(SageScheduler, "level_stats", spy)
    return calls


#: every scheduler of the API, plus the SAGE ablation configurations
#: Fig 10 runs (block placement, and thread-per-node without tiling)
SCHEDULERS = {
    **api.SCHEDULERS,
    "sage-no-rts": lambda: SageScheduler(resident_stealing=False),
    "sage-no-tp": lambda: SageScheduler(tiled_partitioning=False),
}


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
@pytest.mark.parametrize("app", sorted(api.APPS))
def test_unrecorded_run_equals_recorded_run(graphs, graph_name, scheduler_name, app):
    graph = graphs[graph_name]
    scheduler = SCHEDULERS[scheduler_name]
    queued = api.run(graph, app, scheduler=scheduler).raw
    recorded = api.run(graph, app, scheduler=scheduler, metrics=MetricsRegistry()).raw
    assert queued.seconds == recorded.seconds
    assert queued.node_trace == recorded.node_trace
    assert queued.profiler == recorded.profiler
    assert queued.result.keys() == recorded.result.keys()
    for key, value in queued.result.items():
        np.testing.assert_array_equal(value, recorded.result[key], err_msg=key)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_a_flush_holds_under_v_edges_plus_its_trigger(graphs, graph_name, priced_queues):
    graph = graphs[graph_name]
    api.run(graph, "bfs", source=0)
    assert priced_queues
    for edges in priced_queues:
        assert all(level < graph.num_nodes for level in edges)
        assert sum(edges[:-1]) < graph.num_nodes


def test_small_levels_are_priced_together(graphs, priced_queues):
    graph = graphs["grid"]
    run = api.run(graph, "bfs", source=0)
    assert max(len(edges) for edges in priced_queues) > 1
    # every level of a grid BFS is small, so every level was queued
    assert sum(len(edges) for edges in priced_queues) == run.iterations


@pytest.mark.parametrize(
    "case", ["metrics", "sanitizer", "sampling-reorder", "compressed-sampling-reorder"]
)
def test_nothing_is_queued_when_each_level_is_read(graphs, priced_queues, case):
    graph = graphs["grid"]
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
        assert scheduler.observes_levels
        TraversalPipeline(graph, scheduler).run(BFSApp(), 0)
    assert priced_queues == []


class _Recorder(SageScheduler):
    """A SAGE subclass with its own ``kernel_stats``."""

    def __init__(self):
        super().__init__()
        self.stats = []

    def kernel_stats(self, frontier, degrees, edge_dst, graph, app):
        stats = SageScheduler.kernel_stats(self, frontier, degrees, edge_dst, graph, app)
        self.stats.append(stats)
        return stats


def test_an_override_is_priced_level_by_level(graphs):
    graph = graphs["grid"]
    recorder = _Recorder()
    got = TraversalPipeline(graph, recorder).run(BFSApp(), 0)
    want = TraversalPipeline(graph, SageScheduler()).run(BFSApp(), 0)
    assert got.iterations > 1
    assert len(recorder.stats) == got.iterations
    assert got.seconds == want.seconds
    assert got.node_trace == want.node_trace
