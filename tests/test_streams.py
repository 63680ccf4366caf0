"""Stream/event scheduler tests: DAG compilation and device replay.

Pins the three contracts the pipelined executor builds on:

* :class:`repro.gpusim.streams.BatchDag` only expresses schedulable
  (topologically ordered, validated) DAGs;
* a run's seconds are its ``node_trace``: the serial evaluator
  :func:`trace_seconds` computes **bit-exactly** what a lone one-stream
  :class:`StreamDevice` replay does, and every runner's
  ``RunResult.seconds`` is that value;
* concurrency never cheats: capacity is conserved (busy time is bounded
  by total work below and the critical path above), and prefetch may
  only ever shorten a timeline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import BFSApp, SSSPApp
from repro.core import SageScheduler, TraversalPipeline
from repro.core.hybrid import direction_optimized_bfs
from repro.errors import InvalidParameterError
from repro.gpusim.cost import KernelBatchTiming
from repro.gpusim.streams import (
    D2H,
    H2D,
    HOST,
    KERNEL,
    MIN_OCCUPANCY,
    BatchDag,
    StreamDevice,
    TraceNode,
    dag_from_run,
    kernel_occupancies,
    trace_seconds,
)
from repro.graph import generators
from repro.obs import MetricsRegistry
from repro.outofcore.runners import SubwayRunner
from tests.test_runner_golden import APPS, RUNNERS
from tests.test_runner_golden import _graph as golden_graph

GOLDEN_CASES = [(runner, app) for runner in RUNNERS for app in APPS]

pytestmark = pytest.mark.pipeline


def occupancy(cycles, compute, memory):
    """The occupancy of one kernel, scored as a batch of one."""
    timing = KernelBatchTiming(
        cycles=np.array([cycles]), compute_cycles=np.array([compute]),
        memory_cycles=np.array([memory]),
        overhead_cycles=np.array([cycles - max(compute, memory)]),
        launch_cycles=0.0, dram_bytes=np.zeros(1),
        memory_bound=np.array([compute < memory]),
    )
    return float(kernel_occupancies(timing)[0])


@pytest.fixture(scope="module")
def graph():
    return generators.rmat(8, edge_factor=8, seed=3)


class TestKernelOccupancy:
    def test_roofline_fraction_of_total_cycles(self):
        assert occupancy(100.0, 60.0, 40.0) == 0.6

    def test_memory_bound_kernel_uses_memory_cycles(self):
        assert occupancy(200.0, 40.0, 100.0) == 0.5

    def test_floor_and_ceiling(self):
        assert occupancy(1000.0, 1.0, 1.0) == MIN_OCCUPANCY
        assert occupancy(100.0, 100.0, 90.0) == 1.0

    def test_degenerate_zero_cycle_kernel(self):
        assert occupancy(0.0, 0.0, 0.0) == MIN_OCCUPANCY


class TestBatchDag:
    def test_ids_are_sequential_and_deps_normalized(self):
        dag = BatchDag()
        a = dag.add_node(KERNEL, 1.0)
        b = dag.add_node(H2D, 2.0, deps=[a, a])
        c = dag.add_node(HOST, 0.5, deps=[b, a])
        assert (a, b, c) == (0, 1, 2)
        assert dag.nodes[b].deps == (0,)
        assert dag.nodes[c].deps == (0, 1)

    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            BatchDag().add_node("dtoh", 1.0)

    def test_rejects_negative_duration(self):
        with pytest.raises(InvalidParameterError):
            BatchDag().add_node(KERNEL, -1e-9)

    def test_rejects_bad_occupancy(self):
        with pytest.raises(InvalidParameterError):
            BatchDag().add_node(KERNEL, 1.0, occupancy=0.0)
        with pytest.raises(InvalidParameterError):
            BatchDag().add_node(KERNEL, 1.0, occupancy=1.5)

    def test_rejects_forward_and_self_deps(self):
        dag = BatchDag()
        dag.add_node(KERNEL, 1.0)
        with pytest.raises(InvalidParameterError):
            dag.add_node(KERNEL, 1.0, deps=[1])
        with pytest.raises(InvalidParameterError):
            dag.add_node(KERNEL, 1.0, deps=[5])

    def test_aggregates(self):
        dag = BatchDag()
        a = dag.add_node(KERNEL, 1.0, lane=0)
        dag.add_node(H2D, 2.0, deps=[a], lane=1)
        dag.add_node(KERNEL, 4.0, lane=1)
        assert dag.num_nodes == 3
        assert dag.num_lanes == 2
        assert dag.total_seconds == 7.0
        # chain 1.0 -> 2.0 beats the lone 4.0 kernel? no: 4.0 > 3.0
        assert dag.critical_path_seconds() == 4.0

    def test_empty_dag(self):
        dag = BatchDag()
        assert dag.num_nodes == 0
        assert dag.num_lanes == 0
        assert dag.total_seconds == 0.0
        assert dag.critical_path_seconds() == 0.0


class _FakeRun:
    def __init__(self, trace):
        self.node_trace = trace


class TestDagFromRun:
    def test_serial_nodes_chain_and_iterations_barrier(self):
        run = _FakeRun([
            TraceNode(KERNEL, 1.0, iteration=0),
            TraceNode(KERNEL, 2.0, iteration=1),
            TraceNode(H2D, 3.0, iteration=1),
        ])
        dag = dag_from_run(run)
        assert dag.nodes[0].deps == ()
        assert dag.nodes[1].deps == (0,)
        # non-overlap transfer extends iteration 1's serial chain
        assert dag.nodes[2].deps == (1,)
        assert dag.critical_path_seconds() == 6.0

    def test_overlap_copy_anchors_to_previous_barrier(self):
        run = _FakeRun([
            TraceNode(KERNEL, 1.0, iteration=0),
            TraceNode(KERNEL, 2.0, iteration=1),
            TraceNode(H2D, 3.0, iteration=1, overlap=True),
        ])
        dag = dag_from_run(run)
        # the copy depends on iteration 0's barrier, not on the kernel
        assert dag.nodes[2].deps == (0,)
        assert dag.critical_path_seconds() == 4.0

    def test_prefetch_depth_reanchors_earlier(self):
        trace = [
            TraceNode(KERNEL, 1.0, iteration=0),
            TraceNode(KERNEL, 1.0, iteration=1),
            TraceNode(KERNEL, 1.0, iteration=2),
            TraceNode(H2D, 2.5, iteration=2, overlap=True),
        ]
        tight = dag_from_run(_FakeRun(trace))
        loose = dag_from_run(_FakeRun(trace), prefetch_depth=1)
        free = dag_from_run(_FakeRun(trace), prefetch_depth=5)
        assert tight.nodes[3].deps == (1,)
        assert loose.nodes[3].deps == (0,)
        assert free.nodes[3].deps == ()
        assert (free.critical_path_seconds()
                <= loose.critical_path_seconds()
                <= tight.critical_path_seconds())

    def test_rejects_negative_prefetch(self):
        with pytest.raises(InvalidParameterError):
            dag_from_run(_FakeRun([]), prefetch_depth=-1)

    def test_missing_trace_attribute_gives_empty_dag(self):
        assert dag_from_run(object()).num_nodes == 0


def replay_seconds(result, **kwargs):
    """Finish time of a lone DAG replay on a fresh device."""
    dag = dag_from_run(result, **kwargs)
    device = StreamDevice(num_streams=1)
    device.admit(dag, 0.0)
    done = device.drain()
    assert len(done) == 1
    return done[0].finish


class TestReplayEquality:
    """A run's seconds are its trace: a lone one-stream replay, the
    serial evaluator and ``RunResult.seconds`` agree bit-exactly — the
    property that makes pipelined device time comparable to the
    batch-at-a-time executor's at all."""

    @pytest.mark.parametrize("runner,app", GOLDEN_CASES)
    def test_every_runner(self, runner, app):
        result = RUNNERS[runner](golden_graph(), app, MetricsRegistry())
        assert result.node_trace
        assert (replay_seconds(result) == trace_seconds(result.node_trace)
                == result.seconds)

    def test_direction_optimized_bfs(self, graph):
        result, _ = direction_optimized_bfs(graph, SageScheduler, 0)
        assert result.node_trace
        assert (replay_seconds(result) == trace_seconds(result.node_trace)
                == result.seconds)

    @pytest.mark.parametrize("seed", range(40))
    def test_evaluator_matches_stream_device(self, seed):
        rng = np.random.default_rng(seed)
        kinds = (KERNEL, KERNEL, H2D, D2H, HOST)
        trace, iteration = [], 0
        for _ in range(int(rng.integers(1, 30))):
            # keys mostly advance, sometimes repeat or restart (as the
            # concatenated sweeps of an SCC run do)
            iteration = int(rng.choice([iteration, iteration + 1, 0]))
            trace.append(TraceNode(
                kinds[int(rng.integers(len(kinds)))],
                float(rng.choice([0.0, rng.random() * 1e-5])),
                occupancy=float(rng.uniform(MIN_OCCUPANCY, 1.0)),
                iteration=iteration,
                overlap=bool(rng.integers(2)),
            ))
        assert trace_seconds(trace) == replay_seconds(_FakeRun(trace))

    def test_empty_trace_takes_no_time(self):
        assert trace_seconds([]) == replay_seconds(_FakeRun([])) == 0.0

    def test_prefetch_only_shortens(self, graph):
        runner = SubwayRunner()
        result = runner.run(graph, BFSApp(), 0)
        base = trace_seconds(result.node_trace)
        for depth in (1, 2, 4):
            assert replay_seconds(result, prefetch_depth=depth) <= base


class TestStreamDevice:
    def test_rejects_bad_stream_count(self):
        with pytest.raises(InvalidParameterError):
            StreamDevice(num_streams=0)

    def test_rejects_admission_in_the_past(self):
        device = StreamDevice()
        dag = BatchDag()
        dag.add_node(KERNEL, 1.0)
        device.admit(dag, 0.0)
        device.drain()
        with pytest.raises(InvalidParameterError):
            device.admit(dag, 0.5)

    def test_empty_dag_completes_at_release(self):
        device = StreamDevice()
        handle = device.admit(BatchDag(), 3.0)
        done = device.drain()
        assert done == [type(done[0])(handle=handle, finish=3.0)]
        assert device.next_event_time() is None

    def test_single_stream_serializes_in_fifo_order(self):
        device = StreamDevice(num_streams=1)
        dag = BatchDag()
        dag.add_node(KERNEL, 1.0, occupancy=0.1)
        dag.add_node(KERNEL, 2.0, occupancy=0.1)
        device.admit(dag, 0.0)
        done = device.drain()
        # same stream => FIFO even though both would fit concurrently
        assert done[0].finish == 3.0

    def test_low_occupancy_kernels_corun_across_streams(self):
        device = StreamDevice(num_streams=2)
        dag = BatchDag()
        dag.add_node(KERNEL, 2.0, occupancy=0.4, lane=0)
        dag.add_node(KERNEL, 2.0, occupancy=0.4, lane=1)
        device.admit(dag, 0.0)
        done = device.drain()
        assert done[0].finish == 2.0
        assert device.max_concurrent_kernels == 2
        assert device.busy_seconds == 2.0
        assert device.overlap_saved_seconds == 2.0

    def test_saturating_kernels_serialize_even_across_streams(self):
        device = StreamDevice(num_streams=2)
        dag = BatchDag()
        dag.add_node(KERNEL, 2.0, occupancy=1.0, lane=0)
        dag.add_node(KERNEL, 2.0, occupancy=1.0, lane=1)
        device.admit(dag, 0.0)
        assert device.drain()[0].finish == 4.0
        assert device.max_concurrent_kernels == 1

    def test_transfer_rides_copy_engine_beside_compute(self):
        device = StreamDevice(num_streams=1)
        dag = BatchDag()
        dag.add_node(KERNEL, 2.0, occupancy=1.0)
        dag.add_node(H2D, 2.0)
        device.admit(dag, 0.0)
        assert device.drain()[0].finish == 2.0
        assert device.transfers_launched == 1

    def test_same_direction_transfers_serialize(self):
        device = StreamDevice(num_streams=1)
        dag = BatchDag()
        dag.add_node(H2D, 1.0)
        dag.add_node(H2D, 1.0)
        device.admit(dag, 0.0)
        assert device.drain()[0].finish == 2.0

    def test_opposite_direction_transfers_overlap(self):
        device = StreamDevice(num_streams=1)
        dag = BatchDag()
        dag.add_node(H2D, 1.0)
        dag.add_node(D2H, 1.0)
        device.admit(dag, 0.0)
        assert device.drain()[0].finish == 1.0

    def test_host_nodes_serialize_on_stream_but_hold_no_capacity(self):
        device = StreamDevice(num_streams=2)
        dag = BatchDag()
        dag.add_node(HOST, 1.0, lane=0)
        dag.add_node(KERNEL, 1.0, occupancy=1.0, lane=1)
        device.admit(dag, 0.0)
        # the host node and the saturating kernel run concurrently
        assert device.drain()[0].finish == 1.0

    def test_dependencies_gate_start(self):
        device = StreamDevice(num_streams=2)
        dag = BatchDag()
        a = dag.add_node(KERNEL, 1.0, occupancy=0.1, lane=0)
        dag.add_node(KERNEL, 1.0, occupancy=0.1, lane=1, deps=[a])
        device.admit(dag, 0.0)
        assert device.drain()[0].finish == 2.0

    def test_release_time_delays_start(self):
        device = StreamDevice()
        dag = BatchDag()
        dag.add_node(KERNEL, 1.0)
        device.admit(dag, 5.0)
        assert device.drain()[0].finish == 6.0

    def test_advance_to_is_inclusive_and_incremental(self):
        device = StreamDevice()
        dag = BatchDag()
        dag.add_node(KERNEL, 1.0)
        handle = device.admit(dag, 0.0)
        assert device.advance_to(0.5) == []
        assert device.next_event_time() == 1.0
        done = device.advance_to(1.0)
        assert [d.handle for d in done] == [handle]
        assert device.next_event_time() is None

    def test_batches_from_different_admissions_interleave(self):
        device = StreamDevice(num_streams=2)
        first = BatchDag()
        first.add_node(KERNEL, 4.0, occupancy=0.5)
        second = BatchDag()
        second.add_node(KERNEL, 1.0, occupancy=0.5)
        h0 = device.admit(first, 0.0)
        h1 = device.admit(second, 1.0)
        done = device.drain()
        assert [(d.handle, d.finish) for d in done] == [(h1, 2.0), (h0, 4.0)]
        # one contiguous busy interval: [0, 4]
        assert device.busy_seconds == 4.0
        assert device.overlap_saved_seconds == 1.0

    def test_work_conservation_bounds(self, graph):
        pipeline = TraversalPipeline(graph, SageScheduler())
        results = [pipeline.run(SSSPApp(), source=s) for s in (0, 1, 2, 3)]
        device = StreamDevice(num_streams=4)
        dag = BatchDag()
        for lane, result in enumerate(results):
            dag_from_run(result, dag=dag, lane=lane)
        device.admit(dag, 0.0)
        finish = device.drain()[0].finish
        assert finish >= dag.critical_path_seconds()
        assert device.busy_seconds <= finish
        assert device.busy_seconds <= device.work_seconds + 1e-15
        assert np.isclose(
            device.work_seconds, sum(r.seconds for r in results)
        )

    def test_determinism(self, graph):
        pipeline = TraversalPipeline(graph, SageScheduler())
        result = pipeline.run(SSSPApp(), source=5)

        def run_once():
            device = StreamDevice(num_streams=3)
            for i in range(3):
                device.admit(dag_from_run(result, lane=i), i * 1e-6)
            return [(d.handle, d.finish) for d in device.drain()]

        assert run_once() == run_once()
