"""Pipelined-executor tests: overlap moves time, never results.

The contract under test, end to end: enabling the stream/event pipeline
(`PipelineConfig`) may only change *virtual device time* — every
response stays bit-identical to the batch-at-a-time executor and to the
:func:`repro.serve.run_direct` oracle, total device work is unchanged,
and the stream devices' busy time never exceeds it (work conservation).
Also pins the event-ordering tie-break contract of
:func:`repro.serve.cluster.simulate_cluster_open_loop`.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import InvalidParameterError
from repro.gpusim.streams import BatchDag, KERNEL
from repro.obs import MetricsRegistry
from repro.serve import (
    EVENT_COMPLETION,
    EVENT_FLUSH,
    EVENT_UPDATE,
    AdmissionConfig,
    BatchExecution,
    BatchExecutor,
    PipelineConfig,
    QueryStatus,
    ReplicaPipeline,
    event_order,
    generate_queries,
    open_loop_arrivals,
    simulate_cluster_open_loop,
)
from tests.serve.conftest import (
    assert_bit_identical,
    assert_response_sound,
    scheduler_factory,
)
from tests.serve.test_properties import cached_rmat

pytestmark = pytest.mark.pipeline

#: Admission wide open + cache off: batch formation must be identical
#: between the batch-at-a-time and pipelined runs so the comparison is
#: execution-only.
WIDE_OPEN = dict(
    cache_capacity=0,
    admission=AdmissionConfig(max_concurrency=10**6),
)


def mixed_requests(graph, num, *, seed):
    return generate_queries(
        "g", graph.num_nodes, num, seed=seed,
        mix={"bfs": 0.4, "sssp": 0.4, "pr": 0.2},
    )


def bfs_batch(graph, num, *, seed):
    """A single compatible batch: BatchExecutor rejects mixed apps."""
    return generate_queries(
        "g", graph.num_nodes, num, seed=seed, mix={"bfs": 1.0}
    )


class TestPipelineConfig:
    def test_defaults_are_synchronous(self):
        assert not PipelineConfig().enabled

    @pytest.mark.parametrize("kwargs", [
        dict(in_flight=2), dict(num_streams=2), dict(prefetch_depth=1),
    ])
    def test_any_knob_enables(self, kwargs):
        assert PipelineConfig(**kwargs).enabled

    @pytest.mark.parametrize("kwargs", [
        dict(in_flight=0), dict(num_streams=0), dict(prefetch_depth=-1),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParameterError):
            PipelineConfig(**kwargs)


class TestEventOrderContract:
    """Completions < updates < flushes at equal virtual time.

    A graph update arriving at the same instant a batch completes must
    see the completion applied first (the response predates the new
    epoch), and a flush at the same instant must see the update (the
    batch executes against the newest graph).  The comparator below is
    the single place that contract lives; these tests keep anyone from
    reordering the constants without noticing.
    """

    def test_constants_are_ordered(self):
        assert EVENT_COMPLETION < EVENT_UPDATE < EVENT_FLUSH

    def test_comparator_breaks_ties_by_kind(self):
        when = 1.25
        events = [
            (event_order(when, EVENT_FLUSH), "flush"),
            (event_order(when, EVENT_COMPLETION), "completion"),
            (event_order(when, EVENT_UPDATE), "update"),
        ]
        events.sort()
        assert [name for _, name in events] == [
            "completion", "update", "flush",
        ]

    def test_time_dominates_kind(self):
        assert event_order(1.0, EVENT_FLUSH) < event_order(
            2.0, EVENT_COMPLETION
        )


class TestPipelinedExecutor:
    """``BatchExecutor.compile``: execute, then DAG the timeline."""

    def test_compile_results_match_execute(self):
        graph = cached_rmat(6, 8, 0)
        requests = bfs_batch(graph, 8, seed=3)
        plain = BatchExecutor(scheduler_factory).execute(graph, requests)
        compiled = BatchExecutor(scheduler_factory).compile(graph, requests)
        assert compiled.sim_seconds == plain.sim_seconds
        for a, b in zip(compiled.results, plain.results):
            assert_bit_identical(a, b)

    def test_dag_carries_the_batch_device_time(self):
        graph = cached_rmat(6, 8, 0)
        requests = bfs_batch(graph, 6, seed=5)
        compiled = BatchExecutor(scheduler_factory).compile(graph, requests)
        assert compiled.dag.num_nodes > 0
        assert compiled.dag.num_lanes == len(compiled.runs)
        assert compiled.dag.total_seconds == pytest.approx(
            compiled.sim_seconds
        )

    def test_compile_refuses_untraced_runs(self):
        from repro.errors import SimulationError

        class Untraced(BatchExecutor):
            def _run(self, graph, app, source=None):
                result = super()._run(graph, app, source)
                result.node_trace.clear()
                return result

        graph = cached_rmat(6, 8, 0)
        with pytest.raises(SimulationError):
            Untraced(scheduler_factory).compile(
                graph, bfs_batch(graph, 4, seed=3)
            )

    def test_compile_emits_registered_metrics(self):
        graph = cached_rmat(6, 8, 0)
        metrics = MetricsRegistry()
        BatchExecutor(scheduler_factory, metrics=metrics).compile(
            graph, bfs_batch(graph, 4, seed=7)
        )
        counters = metrics.report()["counters"]
        assert counters["pipeline.batches"] == 1
        assert counters["stream.kernel_nodes"] > 0


class TestReplicaPipeline:
    def kernel_batch(self, seconds=1.0, occupancy=0.25):
        dag = BatchDag()
        dag.add_node(KERNEL, seconds, occupancy=occupancy)
        return BatchExecution(results=[], sim_seconds=seconds, dag=dag)

    def test_submit_needs_a_compiled_batch(self):
        pipe = ReplicaPipeline(PipelineConfig(in_flight=2))
        with pytest.raises(InvalidParameterError):
            pipe.submit(BatchExecution(results=[], sim_seconds=1.0), 0.0)

    def test_window_admits_up_to_in_flight(self):
        pipe = ReplicaPipeline(PipelineConfig(in_flight=2, num_streams=4))
        metrics = MetricsRegistry()
        pipe.metrics = metrics
        for _ in range(5):
            pipe.submit(self.kernel_batch(), 0.0)
        assert pipe.inflight_peak == 2
        assert metrics.report()["counters"]["pipeline.queued_batches"] == 3

    def test_queued_batches_drain_in_fifo_order(self):
        pipe = ReplicaPipeline(PipelineConfig(in_flight=1, num_streams=1))
        handles = [pipe.submit(self.kernel_batch(), 0.0) for _ in range(3)]
        done = pipe.advance_to(10.0)
        assert [h for h, _ in done] == handles
        assert [finish for _, finish in done] == [1.0, 2.0, 3.0]
        assert pipe.next_event_time() is None

    def test_advance_respects_limit(self):
        pipe = ReplicaPipeline(PipelineConfig(in_flight=1, num_streams=1))
        pipe.submit(self.kernel_batch(seconds=2.0), 0.0)
        assert pipe.advance_to(1.0) == []
        assert pipe.next_event_time() == 2.0
        assert pipe.advance_to(2.0) == [(0, 2.0)]


def run_cluster(graph, requests, arrivals, *, pipeline=None, **kwargs):
    params = dict(WIDE_OPEN)
    params.update(kwargs)
    return simulate_cluster_open_loop(
        {"g": graph}, requests, arrivals, scheduler_factory,
        pipeline=pipeline, **params,
    )


class TestClusterDifferential:
    def test_pipelined_matches_batch_and_oracle(self):
        graph = cached_rmat(6, 8, 1)
        requests = mixed_requests(graph, 24, seed=11)
        arrivals = open_loop_arrivals(len(requests), rate_qps=2e5, seed=11)
        batch_responses, batch = run_cluster(
            graph, requests, arrivals, num_replicas=1,
            batch_window=1e-5,
        )
        pipe_responses, pipe = run_cluster(
            graph, requests, arrivals, num_replicas=1,
            batch_window=1e-5,
            pipeline=PipelineConfig(in_flight=4, num_streams=4),
        )
        assert pipe.pipeline_enabled
        assert pipe.sim_seconds_total == batch.sim_seconds_total
        assert pipe.pipeline_busy_seconds <= pipe.sim_seconds_total
        assert pipe.num_batches == batch.num_batches
        for request, a, b in zip(requests, batch_responses,
                                 pipe_responses):
            assert a.status is QueryStatus.OK
            assert b.status is QueryStatus.OK
            assert_bit_identical(b.result, a.result, label=request.app)
            assert_response_sound(b, graph, request)

    def test_default_config_is_the_synchronous_executor(self):
        """``PipelineConfig()`` must not even enter the pipelined path:
        reports (timings included) are equal to ``pipeline=None``."""
        graph = cached_rmat(6, 8, 1)
        requests = mixed_requests(graph, 12, seed=13)
        arrivals = open_loop_arrivals(len(requests), rate_qps=500, seed=13)
        _, plain = run_cluster(graph, requests, arrivals, num_replicas=2)
        _, defaulted = run_cluster(
            graph, requests, arrivals, num_replicas=2,
            pipeline=PipelineConfig(),
        )
        assert not defaulted.pipeline_enabled
        assert defaulted == plain

    def test_multiple_replicas_pipeline_independently(self):
        graph = cached_rmat(6, 8, 2)
        requests = mixed_requests(graph, 24, seed=17)
        arrivals = open_loop_arrivals(len(requests), rate_qps=2e5, seed=17)
        responses, report = run_cluster(
            graph, requests, arrivals, num_replicas=2,
            batch_window=1e-5,
            pipeline=PipelineConfig(in_flight=2, num_streams=2),
        )
        assert report.status_counts == {"ok": len(requests)}
        assert report.pipeline_busy_seconds <= report.sim_seconds_total
        for request, response in zip(requests, responses):
            assert_response_sound(response, graph, request)

    def test_pipeline_gauges_published(self):
        from repro.serve import publish_cluster_gauges

        graph = cached_rmat(6, 8, 1)
        requests = mixed_requests(graph, 8, seed=19)
        arrivals = open_loop_arrivals(len(requests), rate_qps=2e5, seed=19)
        metrics = MetricsRegistry()
        _, report = run_cluster(
            graph, requests, arrivals, num_replicas=1,
            batch_window=1e-5,
            pipeline=PipelineConfig(in_flight=2, num_streams=2),
            metrics=metrics,
        )
        publish_cluster_gauges(metrics, report)
        gauges = metrics.report()["gauges"]
        assert gauges["pipeline.busy_seconds"] == (
            report.pipeline_busy_seconds
        )
        assert gauges["pipeline.speedup_vs_serial"] >= 1.0


@st.composite
def pipelined_scenarios(draw):
    scale = draw(st.integers(min_value=4, max_value=6))
    graph = cached_rmat(scale, draw(st.sampled_from([4, 8])),
                        draw(st.integers(min_value=0, max_value=2)))
    num_queries = draw(st.integers(min_value=1, max_value=16))
    requests = mixed_requests(
        graph, num_queries,
        seed=draw(st.integers(min_value=0, max_value=5)),
    )
    arrivals = open_loop_arrivals(
        num_queries,
        rate_qps=draw(st.sampled_from([200.0, 2e4, 5e5])),
        seed=draw(st.integers(min_value=0, max_value=3)),
    )
    config = PipelineConfig(
        in_flight=draw(st.sampled_from([1, 2, 4, 8])),
        num_streams=draw(st.sampled_from([1, 2, 4])),
        prefetch_depth=draw(st.sampled_from([0, 1, 2])),
    )
    batch_window = draw(st.sampled_from([0.0, 1e-5, 0.05]))
    return graph, requests, arrivals, config, batch_window


class TestHypothesisDifferential:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.data_too_large])
    @given(scenario=pipelined_scenarios())
    def test_bit_identity_and_work_conservation(self, scenario):
        graph, requests, arrivals, config, batch_window = scenario
        batch_responses, batch = run_cluster(
            graph, requests, arrivals, num_replicas=1,
            batch_window=batch_window,
        )
        pipe_responses, pipe = run_cluster(
            graph, requests, arrivals, num_replicas=1,
            batch_window=batch_window, pipeline=config,
        )
        # identical batch formation => identical device work
        assert pipe.sim_seconds_total == batch.sim_seconds_total
        if config.enabled:
            # work conservation: overlap can hide time, never add it
            assert (pipe.pipeline_busy_seconds
                    <= pipe.sim_seconds_total)
        for request, a, b in zip(requests, batch_responses,
                                 pipe_responses):
            assert a.status is QueryStatus.OK
            assert b.status is QueryStatus.OK
            assert_bit_identical(b.result, a.result, label=request.app)
            assert_response_sound(b, graph, request)
