"""Whole-graph levels: paid for once per run.

A level whose frontier is every node in id order (each PageRank
iteration, the first CC level) expands to the CSR itself.  The run loop
expands it once and shares the read-only arrays with every later full
level on the same graph; ``SageScheduler.level_stats`` prices it from
the node table's column totals, as a queue of its own; and the resident
store answers it in O(1) once every node is resident.  These tests pin each shortcut to the
general path it skips, and a whole run to a run with every shortcut off.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.apps import BCApp, PageRankApp
from repro.baselines import LigraRunner
from repro.core import SageScheduler, TraversalPipeline
from repro.core.pipeline import Level, LevelPricer, run_levels
from repro.core.resident import ResidentTileStore
from repro.core.tiling import node_accounting
from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.multigpu.partition import chunk_partition
from repro.multigpu.runner import MultiGpuRunner
from repro.obs.span import NullSpan
from repro.outofcore.runners import SageOutOfCoreRunner


@st.composite
def small_graphs(draw):
    """Graphs with isolated nodes, fewer edges than nodes, a single node
    or no edges at all, and hubs of at least a block."""
    n = draw(st.integers(1, 60))
    m = draw(st.sampled_from([0, n // 2, n, 4 * n]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # few sources, so some nodes own no edges and some own hundreds
    sources = rng.integers(0, max(1, n // draw(st.sampled_from([1, 3]))), m)
    if m and draw(st.booleans()):
        sources = np.concatenate([sources, np.zeros(300, dtype=np.int64)])
    return CSRGraph.from_edges(n, sources, rng.integers(0, n, sources.size))


@st.composite
def graph_and_levels(draw):
    """A graph and a queue of full and partial (possibly empty) levels."""
    graph = draw(small_graphs())
    n = graph.num_nodes
    partial = st.lists(st.integers(0, n - 1), max_size=2 * n).map(
        lambda nodes: np.array(nodes, dtype=np.int64)
    )
    full = st.just(np.arange(n, dtype=np.int64))
    frontiers = draw(st.lists(st.one_of(full, partial), min_size=1, max_size=6))
    return graph, frontiers


def _degrees(graph, frontier):
    return graph.offsets[frontier + 1] - graph.offsets[frontier]


def _levels(graph, frontiers, full):
    levels = []
    for index, (frontier, is_full) in enumerate(zip(frontiers, full)):
        _, edge_dst, edge_pos = graph.expand_frontier(frontier)
        levels.append(Level(index, frontier, _degrees(graph, frontier), edge_dst,
                            edge_pos, NullSpan(), is_full))
    return levels


#: the Tiled Partitioning configurations, with and without sampling
CONFIGS = {
    "tp": dict(resident_stealing=False),
    "tp+rts": {},
    "tp+rts+sr": dict(sampling_reorder=True),
}


class TestColumnTotals:
    @settings(max_examples=80, deadline=None)
    @given(
        case=graph_and_levels(),
        min_tile=st.sampled_from([4, 8, 32]),
        config=st.sampled_from(sorted(CONFIGS)),
    )
    def test_full_levels_equal_the_gathered_path(self, case, min_tile, config):
        graph, frontiers = case
        full = [graph.is_full_frontier(frontier) for frontier in frontiers]
        batches = []
        for flags in (full, [False] * len(frontiers)):
            scheduler = SageScheduler(min_tile=min_tile, **CONFIGS[config])
            scheduler.reset(graph)
            batches.append((
                scheduler,
                scheduler.level_stats(_levels(graph, frontiers, flags), graph, BCApp()),
            ))
        (shortcut, got), (gathered, want) = batches
        for column in dataclasses.fields(want):
            a, b = getattr(got, column.name), getattr(want, column.name)
            assert a.dtype == b.dtype, column.name
            np.testing.assert_array_equal(a, b, err_msg=column.name)
        if shortcut.reorderer is not None:
            for a, b in zip(shortcut.reorderer.sampler.pairs(),
                            gathered.reorderer.sampler.pairs()):
                np.testing.assert_array_equal(a, b)

    def test_column_totals_are_read_only(self):
        graph = generators.rmat(6, 4, seed=1)
        table, _ = node_accounting(graph, 256, 8, 8, True)
        _, _, sums = table.level_totals([np.arange(graph.num_nodes)])
        np.testing.assert_array_equal(table.totals, sums)
        with pytest.raises(ValueError, match="read-only"):
            table.totals[...] = 0


class _GeneralStore(ResidentTileStore):
    """The store with its all-resident shortcut held off."""

    _all_resident = property(lambda self: False, lambda self, value: None)


@st.composite
def store_ops(draw):
    """A graph and a random interleaving of store operations."""
    n = draw(st.integers(1, 40))
    nodes = st.lists(st.integers(0, n - 1), max_size=2 * n).map(
        lambda ids: np.array(ids, dtype=np.int64)
    )
    frontier = st.one_of(st.just(np.arange(n, dtype=np.int64)), nodes)
    op = st.one_of(
        st.tuples(st.just("visit"), frontier),
        st.tuples(st.just("visit_queue"), st.lists(frontier, min_size=1, max_size=4)),
        st.tuples(st.just("invalidate_all"), st.none()),
    )
    units = np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
    return CSRGraph.from_edges(n, [], []), units, draw(st.lists(op, max_size=12))


def _apply(store, units, op, arg):
    if op == "visit":
        return store.visit(arg, units[arg])
    if op == "visit_queue":
        return store.visit_queue(
            np.concatenate(arg), [frontier.size for frontier in arg], units[np.concatenate(arg)]
        ).tolist()
    getattr(store, op)(*([] if arg is None else [arg]))
    return None


class TestAllResidentShortcut:
    @settings(max_examples=150, deadline=None)
    @given(case=store_ops())
    def test_shortcut_equals_the_general_path(self, case):
        graph, units, ops = case
        store, general = ResidentTileStore(graph), _GeneralStore(graph)
        for op, arg in ops:
            assert _apply(store, units, op, arg) == _apply(general, units, op, arg), op
            for counter in ("reuse_hits", "expansions", "stored_tiles"):
                assert getattr(store, counter) == getattr(general, counter), counter

    def test_flag_follows_the_mask(self):
        store = ResidentTileStore(CSRGraph.from_edges(4, [0], [1]))
        store.visit(np.array([0, 1]), np.array([1, 1]))
        assert not store._all_resident
        store.visit_queue(np.array([2, 3, 3]), [1, 2], np.array([1, 2, 2]))
        assert store._all_resident
        assert store.visit(np.arange(4), np.ones(4, dtype=np.int64)) == (4, 0, 0)
        store.invalidate_all()
        assert not store._all_resident
        assert store.visit(np.arange(4), np.full(4, 3)) == (0, 4, 12)
        assert store._all_resident


# --------------------------------------------------------------------------
# Whole runs: reused levels equal rebuilt levels
# --------------------------------------------------------------------------

GRAPHS = {
    "rmat10": lambda: generators.rmat(10, 8, seed=3),
    "grid24": lambda: generators.grid_2d(24, 24),
}


def _pipeline_run(scheduler):
    def run(graph, app):
        return TraversalPipeline(graph, api.SCHEDULERS[scheduler]()).run(app)

    return run


def _multi_gpu_run(graph, app):
    # contiguous parts keep a full frontier in id order
    runner = MultiGpuRunner(SageScheduler, chunk_partition(graph.num_nodes, 2), num_gpus=2)
    return runner.run(graph, app)


RUNS = {
    **{f"pipeline-{name}": _pipeline_run(name) for name in api.SCHEDULERS},
    "multi-gpu": _multi_gpu_run,
    "ligra": lambda graph, app: LigraRunner().run(graph, app),
    "sage-ooc": lambda graph, app: SageOutOfCoreRunner(device_fraction=0.25).run(graph, app),
}


def _assert_runs_equal(got, want):
    assert got.seconds == want.seconds
    assert got.iterations == want.iterations
    assert got.edges_traversed == want.edges_traversed
    assert got.node_trace == want.node_trace
    assert dataclasses.asdict(got.profiler) == dataclasses.asdict(want.profiler)
    assert got.extras == want.extras
    assert got.result.keys() == want.result.keys()
    for key, value in want.result.items():
        np.testing.assert_array_equal(got.result[key], value, err_msg=key)


@pytest.fixture(scope="module")
def graphs():
    return {name: build() for name, build in GRAPHS.items()}


class TestReusedLevelsEqualRebuiltLevels:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("app", ["pr", "cc"])
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_bit_identical_to_the_general_path(self, graphs, graph_name, app, run, monkeypatch):
        graph = graphs[graph_name]
        reused = RUNS[run](graph, api.APPS[app]())
        # Test-only switch: no level is full, so every level is
        # expanded, tiled and visited by the general path.
        monkeypatch.setattr(CSRGraph, "is_full_frontier", lambda self, frontier: False)
        rebuilt = RUNS[run](graph, api.APPS[app]())
        _assert_runs_equal(reused, rebuilt)

    def _spy(self, monkeypatch):
        calls = []
        expand = CSRGraph.expand_level

        def spy(self, frontier):
            calls.append(frontier.size)
            return expand(self, frontier)

        monkeypatch.setattr(CSRGraph, "expand_level", spy)
        return calls

    def test_a_pagerank_run_expands_once(self, graphs, monkeypatch):
        calls = self._spy(monkeypatch)
        pipeline = TraversalPipeline(graphs["rmat10"], SageScheduler())
        run = pipeline.run(PageRankApp(max_iterations=20, tolerance=0.0))
        assert run.iterations == 20
        assert calls == [graphs["rmat10"].num_nodes]

    def test_a_pagerank_level_compares_its_frontier_once(self, graphs, monkeypatch):
        compares = []
        array_equal = np.array_equal

        def spy(a, b, *args, **kwargs):
            compares.append(a.size)
            return array_equal(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "array_equal", spy)
        pipeline = TraversalPipeline(graphs["rmat10"], SageScheduler())
        run = pipeline.run(PageRankApp(max_iterations=20, tolerance=0.0))
        assert run.iterations == 20
        # run_levels decides each level's fullness and carries it on the
        # Level, so pricing does not compare the frontier again; the
        # run's one whole-graph expansion compares once more
        assert compares == [graphs["rmat10"].num_nodes] * (20 + 1)

    def test_partial_level_and_new_graph_drop_the_expansion(self, monkeypatch):
        graph = generators.rmat(6, 4, seed=1)
        n = graph.num_nodes

        class Alternating(PageRankApp):
            # full, full, partial, full, full, partial, ...
            def process_level(self, edge_src, edge_dst, edge_pos=None):
                if not super().process_level(edge_src, edge_dst, edge_pos).size:
                    return np.empty(0, dtype=np.int64)
                if self._iteration % 3 == 2:
                    return np.array([1, 2], dtype=np.int64)
                return self._all_nodes

        class SwapsGraph(LevelPricer):
            # every level after the fourth runs on a new graph object
            def price(self, graph, app, level, trace):
                pass

            def post_level(self, graph, app, frontier, level, trace):
                if level.index < 4:
                    return graph, frontier
                return CSRGraph(graph.num_nodes, graph.offsets, graph.targets), frontier

        calls = self._spy(monkeypatch)
        run_levels(SwapsGraph(), graph, Alternating(max_iterations=9, tolerance=0.0), None, 100)
        # levels 0-8 are F F P F F P F F P; levels 5.. each see a new graph
        assert calls == [n, 2, n, 2, n, n, 2]

    @pytest.mark.parametrize("iteration", [0, 1, 5])
    @pytest.mark.parametrize("name", ["edge_src", "edge_dst", "edge_pos"])
    def test_a_full_level_is_read_only(self, graphs, iteration, name):
        class Writer(PageRankApp):
            needs_edge_positions = True

            def process_level(self, edge_src, edge_dst, edge_pos=None):
                if self._iteration == iteration:
                    arrays = {"edge_src": edge_src, "edge_dst": edge_dst, "edge_pos": edge_pos}
                    arrays[name][0] = 0
                return super().process_level(edge_src, edge_dst, edge_pos)

        pipeline = TraversalPipeline(graphs["grid24"], SageScheduler())
        with pytest.raises(ValueError, match="read-only"):
            pipeline.run(Writer(max_iterations=8, tolerance=0.0))
