"""Tests for the pipeline driver, frontier queue and run results."""

import numpy as np
import pytest

from repro.apps import BFSApp, PageRankApp
from repro.apps.base import App
from repro.core import SageScheduler, TraversalPipeline, run_app
from repro.core.frontier import FrontierQueue
from repro.errors import ConvergenceError
from repro.graph import generators as gen
from repro.gpusim.streams import trace_seconds


class TestFrontierQueue:
    def test_swap_cycle(self):
        q = FrontierQueue(np.array([1, 2]))
        assert not q.empty
        q.publish_next(np.array([3]))
        assert q.swap().tolist() == [3]

    def test_swap_without_publish_empties(self):
        q = FrontierQueue(np.array([1]))
        q.swap()
        assert q.empty

    def test_remap(self):
        q = FrontierQueue(np.array([0, 1]))
        q.publish_next(np.array([2]))
        perm = np.array([3, 2, 1, 0])
        q.remap(perm)
        assert q.current.tolist() == [3, 2]
        assert q.swap().tolist() == [1]


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
