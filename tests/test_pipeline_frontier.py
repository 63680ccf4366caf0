"""Tests for the pipeline driver, its frontier array and run results."""

import numpy as np
import pytest

from repro.apps import BFSApp, PageRankApp
from repro.apps.base import App
from repro.core import SageScheduler, TraversalPipeline, run_app
from repro.core.pipeline import LevelPricer, run_levels
from repro.errors import ConvergenceError
from repro.graph import generators as gen
from repro.gpusim.streams import trace_seconds


class TestFrontierArray:
    """The double-buffered frontier is one int64 array the loop rebinds."""

    class Recorder(LevelPricer):
        def __init__(self):
            self.frontiers = []

        def price(self, graph, app, level, trace):
            self.frontiers.append(level.frontier)

    @pytest.mark.parametrize(
        "spell",
        [
            list,
            tuple,
            lambda f: np.asarray(f, dtype=np.int32),
            lambda f: np.asarray(f, dtype=np.uint32),
            lambda f: np.asarray(f, dtype=np.int16),
        ],
        ids=["list", "tuple", "int32", "uint32", "int16"],
    )
    def test_any_frontier_spelling_is_priced_as_int64(self, spell):
        class Spelled(BFSApp):
            def initial_frontier(self):
                return spell(super().initial_frontier().tolist())

            def process_level(self, edge_src, edge_dst, edge_pos=None):
                return spell(super().process_level(edge_src, edge_dst, edge_pos).tolist())

        graph = gen.grid_2d(6, 6)
        pricer = self.Recorder()
        result = run_levels(pricer, graph, Spelled(), 0, 100)
        expected = run_levels(self.Recorder(), graph, BFSApp(), 0, 100)
        assert result.iterations == len(pricer.frontiers) > 1
        assert [f.dtype for f in pricer.frontiers] == [np.dtype(np.int64)] * result.iterations
        np.testing.assert_array_equal(result.result["dist"], expected.result["dist"])

    def test_an_empty_initial_frontier_runs_no_level(self):
        class Idle(BFSApp):
            def initial_frontier(self):
                return []

        pricer = self.Recorder()
        result = TraversalPipeline(gen.grid_2d(6, 6), SageScheduler()).run(
            Idle(), source=0
        )
        assert run_levels(pricer, gen.grid_2d(6, 6), Idle(), 0, 100).iterations == 0
        assert pricer.frontiers == []
        assert result.iterations == result.edges_traversed == 0
        assert result.node_trace == []
        assert result.seconds == 0.0

    def test_a_commit_remaps_the_pending_frontier(self):
        graph = gen.power_law_configuration(
            500, 2.0, 10.0, seed=9, community_count=10, community_bias=0.9, scramble_ids=True
        )
        scheduler = SageScheduler(
            sampling_reorder=True, reorder_threshold_edges=graph.num_edges // 4
        )
        perms = []
        notify = scheduler.notify_reordered
        scheduler.notify_reordered = lambda perm, g: perms.append(perm) or notify(perm, g)
        seen = []

        class Spy(TraversalPipeline):
            def post_level(self, graph, app, frontier, level, trace):
                before = len(perms)
                next_graph, remapped = super().post_level(graph, app, frontier, level, trace)
                if len(perms) > before:
                    seen.append((frontier, remapped, perms[-1]))
                return next_graph, remapped

        result = Spy(graph, scheduler).run(BFSApp(), source=2)
        plain = run_app(graph, BFSApp(), SageScheduler(), source=2)
        assert result.reorder_commits == len(seen) >= 1
        for frontier, remapped, perm in seen:
            np.testing.assert_array_equal(remapped, perm[frontier])
        np.testing.assert_array_equal(result.result["dist"], plain.result["dist"])


class TestRunResult:
    def test_fields(self, skewed_graph):
        result = run_app(skewed_graph, BFSApp(), SageScheduler(), source=0)
        assert result.app_name == "bfs"
        assert result.scheduler_name == "sage+tp+rts"
        assert result.seconds > 0
        assert result.edges_traversed > 0
        assert result.teps == pytest.approx(
            result.edges_traversed / result.seconds
        )
        assert result.gteps == pytest.approx(result.teps / 1e9)

    def test_zero_seconds_teps(self):
        from repro.core.pipeline import RunResult
        from repro.gpusim.profiler import Profiler
        r = RunResult("x", "y", 0.0, 0, 0, {}, Profiler())
        assert r.teps == 0.0


class TestPipeline:
    def test_shared_device_accumulates(self, skewed_graph):
        pipeline = TraversalPipeline(skewed_graph, SageScheduler())
        profiler = pipeline.device.profiler
        r1 = pipeline.run(BFSApp(), source=0)
        cycles_after_first = profiler.total_cycles
        r2 = pipeline.run(BFSApp(), source=1)
        fresh = TraversalPipeline(skewed_graph, SageScheduler()).run(
            BFSApp(), source=1
        )
        # each run reports exactly its own trace...
        assert r2.node_trace == fresh.node_trace
        assert r2.seconds == fresh.seconds
        assert r1.seconds == trace_seconds(r1.node_trace)
        # ...while the shared device's profiler keeps accumulating
        assert r2.profiler is r1.profiler is profiler
        assert profiler.kernels == len(r1.node_trace) + len(r2.node_trace)
        assert profiler.total_cycles == pytest.approx(
            cycles_after_first + fresh.profiler.total_cycles
        )

    def test_iteration_guard(self):
        class NeverConverges(App):
            name = "loop"

            def setup(self, graph, source=None):
                self.graph = graph

            def initial_frontier(self):
                return np.array([0])

            def process_level(self, edge_src, edge_dst, edge_pos=None):
                return np.array([0])

            def result(self):
                return {}

        g = gen.cycle_graph(3)
        pipeline = TraversalPipeline(g, SageScheduler(), max_iterations=10)
        with pytest.raises(ConvergenceError):
            pipeline.run(NeverConverges())

    def test_profiler_matches_iterations(self, skewed_graph):
        result = run_app(skewed_graph, PageRankApp(max_iterations=4),
                         SageScheduler())
        assert result.profiler.kernels >= result.iterations
