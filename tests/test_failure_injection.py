"""Failure-injection tests: malformed inputs and broken components must
fail loudly with library exceptions, never silently corrupt results."""

import numpy as np
import pytest

from repro.apps import BFSApp, PageRankApp
from repro.apps.base import App
from repro.core import SageScheduler, TraversalPipeline, run_app
from repro.core.scheduler import Scheduler
from repro.errors import (
    ConvergenceError,
    GraphFormatError,
    ReproError,
    SchedulingError,
)
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.gpusim.cost import KernelStats
from repro.gpusim.device import Device


class TestCorruptGraphs:
    def test_truncated_targets(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(3, np.array([0, 2, 3, 4]), np.array([1, 2, 0]))

    def test_dangling_target(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(2, np.array([0, 1, 1]), np.array([7]))

    def test_all_library_errors_share_base(self):
        for exc in (GraphFormatError, ConvergenceError, SchedulingError):
            assert issubclass(exc, ReproError)


class _LyingScheduler(Scheduler):
    """Reports fewer issued lanes than active edges (impossible)."""

    name = "liar"

    def kernel_stats(self, frontier, degrees, edge_dst, graph, app):
        return KernelStats(
            active_edges=int(edge_dst.size),
            issued_lane_cycles=0,
            value_sector_touches=0,
            value_sector_unique=0,
        )


class _NegativeSectorScheduler(Scheduler):
    """Claims more unique sectors than touches (impossible)."""

    name = "negative"

    def kernel_stats(self, frontier, degrees, edge_dst, graph, app):
        return KernelStats(
            active_edges=int(edge_dst.size),
            issued_lane_cycles=int(edge_dst.size),
            value_sector_touches=1,
            value_sector_unique=10,
        )


class TestBrokenSchedulers:
    def test_inconsistent_lanes_rejected(self, skewed_graph):
        with pytest.raises(SchedulingError):
            run_app(skewed_graph, BFSApp(), _LyingScheduler(), source=0)

    def test_inconsistent_sectors_rejected(self, skewed_graph):
        with pytest.raises(SchedulingError):
            run_app(skewed_graph, BFSApp(), _NegativeSectorScheduler(),
                    source=0)

    def test_device_rejects_bad_stats_directly(self):
        device = Device()
        with pytest.raises(SchedulingError):
            device.run_kernel(KernelStats(active_edges=10,
                                          issued_lane_cycles=1))


class _OscillatingApp(App):
    """Alternates between two frontiers forever (a buggy filter)."""

    name = "oscillate"

    def setup(self, graph, source=None):
        self.graph = graph
        self._flip = False

    def initial_frontier(self):
        return np.array([0])

    def process_level(self, edge_src, edge_dst, edge_pos=None):
        self._flip = not self._flip
        return np.array([1]) if self._flip else np.array([0])

    def result(self):
        return {}


class TestRunawayApps:
    def test_oscillation_hits_iteration_guard(self):
        g = gen.complete_graph(4)
        pipeline = TraversalPipeline(g, SageScheduler(), max_iterations=25)
        with pytest.raises(ConvergenceError):
            pipeline.run(_OscillatingApp())

    def test_guard_is_configurable(self):
        g = gen.cycle_graph(100)
        pipeline = TraversalPipeline(g, SageScheduler(), max_iterations=5)
        with pytest.raises(ConvergenceError):
            pipeline.run(BFSApp(), source=0)
        # a run that raises scores nothing, and leaves nothing to the next
        assert pipeline.device.profiler.kernels == 0
        pipeline.max_iterations = 1000
        result = pipeline.run(BFSApp(), source=0)
        assert result.profiler.kernels == result.iterations == len(result.node_trace)


class TestNumericalRobustness:
    def test_pagerank_survives_zero_degree_majority(self):
        # 90% dangling nodes: mass redistribution must stay normalized
        g = CSRGraph.from_edges(50, np.array([0, 1]), np.array([1, 0]))
        result = run_app(
            g, PageRankApp(max_iterations=200, tolerance=1e-14),
            SageScheduler(),
        )
        pr = result.result["pagerank"]
        assert np.isfinite(pr).all()
        assert pr.sum() == pytest.approx(1.0)

    def test_bc_sigma_never_divides_by_zero(self, skewed_graph):
        from repro.apps import BCApp
        result = run_app(skewed_graph, BCApp(), SageScheduler(), source=0)
        assert np.isfinite(result.result["delta"]).all()

    def test_empty_graph_traversal(self):
        g = CSRGraph.from_edges(1, np.array([], dtype=int),
                                np.array([], dtype=int))
        result = run_app(g, BFSApp(), SageScheduler(), source=0)
        assert result.result["dist"].tolist() == [0]
        assert result.edges_traversed == 0


class TestServiceErrors:
    """The serving layer's failure taxonomy rides the library base
    class, and its broker surfaces worker faults structurally (the full
    fault-injection matrix lives in ``tests/serve/test_faults.py``)."""

    def test_serve_errors_share_base(self):
        from repro.errors import (
            AdmissionError,
            DeadlineExceededError,
            ServiceError,
            WorkerFailureError,
        )
        for exc in (AdmissionError, DeadlineExceededError,
                    WorkerFailureError):
            assert issubclass(exc, ServiceError)
            assert issubclass(exc, ReproError)

    def test_raise_for_status_maps_every_failure(self):
        from repro.errors import (
            AdmissionError,
            DeadlineExceededError,
            WorkerFailureError,
        )
        from repro.serve import (
            QueryResponse,
            QueryStatus,
            raise_for_status,
        )

        def response(status):
            return QueryResponse(request_id=0, app="bfs", status=status,
                                 error="injected", error_type="Boom")

        with pytest.raises(AdmissionError):
            raise_for_status(response(QueryStatus.SHED))
        with pytest.raises(DeadlineExceededError):
            raise_for_status(response(QueryStatus.TIMEOUT))
        with pytest.raises(WorkerFailureError, match="Boom"):
            raise_for_status(response(QueryStatus.ERROR))

    def test_closed_broker_rejects_submission(self, skewed_graph):
        from repro.core import SageScheduler
        from repro.errors import ServiceError
        from repro.serve import QueryRequest, ServingHandle

        broker = ServingHandle({"g": skewed_graph}, SageScheduler,
                               batch_window=0.0)
        broker.close()
        with pytest.raises(ServiceError):
            broker.submit(QueryRequest(app="bfs", graph="g", source=0))
