"""Fault injection for the serving layer.

Extends the repository's failure-injection discipline (see
``tests/test_failure_injection.py``) to the serving event loop: devices
that die mid-batch must yield retries or *structured* rejections —
affected queries never get wrong answers and unaffected queries complete
exactly.  The retry budget lives in the event loop, so the live handle
and the virtual-time replay share one fault path.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.errors import ReproError, WorkerFailureError
from repro.obs import MetricsRegistry
from repro.serve import (
    MAX_RETRIES,
    SINGLE_BROKER,
    BatchExecutor,
    QueryRequest,
    QueryStatus,
    ServingHandle,
    raise_for_status,
    run_direct,
    simulate_cluster_open_loop,
)
from tests.serve.conftest import assert_bit_identical, scheduler_factory


class DeviceLost(ReproError):
    """Simulated mid-batch device-worker failure."""


class FlakyExecutor(BatchExecutor):
    """Fails the first ``failures`` runs matching ``poison`` app kinds,
    then recovers.  Failure happens *inside* a batch run — after the
    broker committed the batch — like a device falling over mid-kernel.
    """

    def __init__(self, *args, failures=1, poison=("sssp",), **kwargs):
        super().__init__(*args, **kwargs)
        self.poison = set(poison)
        self.failures = failures
        self.attempts = 0
        self._lock = threading.Lock()

    def execute(self, graph, requests):
        if requests and requests[0].app in self.poison:
            with self._lock:
                self.attempts += 1
                if self.attempts <= self.failures:
                    raise DeviceLost(
                        f"device worker lost mid-batch "
                        f"(attempt {self.attempts})"
                    )
        return super().execute(graph, requests)


def submit_and_collect(broker, requests, timeout=120.0):
    pendings = broker.submit_many(requests)
    return [p.result(timeout=timeout) for p in pendings]


class TestRetries:
    def test_failed_batch_is_retried_and_answers_exactly(self, serve_graph):
        """One mid-batch device loss, ``max_retries=1``: every affected
        query is retried and the retry's answer is oracle-exact."""
        executor = FlakyExecutor(scheduler_factory, failures=1)
        metrics = MetricsRegistry()
        with ServingHandle(
            {"g": serve_graph}, scheduler_factory, **SINGLE_BROKER,
            batch_window=0.01, max_batch_size=8,
            max_retries=1, executor=executor, metrics=metrics,
        ) as broker:
            requests = [
                QueryRequest(app="sssp", graph="g", source=i)
                for i in range(4)
            ]
            responses = submit_and_collect(broker, requests)
        for request, response in zip(requests, responses):
            assert response.status is QueryStatus.OK, response
            assert response.retries == 1
            oracle = run_direct(serve_graph, request, scheduler_factory)
            assert_bit_identical(response.result, oracle.result)
        counters = metrics.report()["counters"]
        assert counters["serve.retries"] == len(requests)
        assert counters.get("serve.errors", 0) == 0

    def test_exhausted_retries_reject_with_structured_error(
        self, serve_graph
    ):
        """A device that never recovers: after ``max_retries`` the query
        is rejected with the original exception type, not served."""
        executor = FlakyExecutor(scheduler_factory, failures=10**9)
        metrics = MetricsRegistry()
        with ServingHandle(
            {"g": serve_graph}, scheduler_factory, **SINGLE_BROKER,
            batch_window=0.01, max_batch_size=8,
            max_retries=2, executor=executor, metrics=metrics,
        ) as broker:
            requests = [
                QueryRequest(app="sssp", graph="g", source=i)
                for i in range(3)
            ]
            responses = submit_and_collect(broker, requests)
        for response in responses:
            assert response.status is QueryStatus.ERROR
            assert response.result is None
            assert response.error_type == "DeviceLost"
            assert "mid-batch" in response.error
            assert response.retries == 2
            with pytest.raises(WorkerFailureError, match="DeviceLost"):
                raise_for_status(response)
        counters = metrics.report()["counters"]
        assert counters["serve.errors"] == len(requests)
        assert counters["serve.retries"] == 2 * len(requests)

    def test_zero_retries_fails_fast(self, serve_graph):
        executor = FlakyExecutor(scheduler_factory, failures=1)
        with ServingHandle(
            {"g": serve_graph}, scheduler_factory, **SINGLE_BROKER,
            batch_window=0.0, max_batch_size=8,
            max_retries=0, executor=executor,
        ) as broker:
            [response] = submit_and_collect(
                broker, [QueryRequest(app="sssp", graph="g", source=0)]
            )
        assert response.status is QueryStatus.ERROR
        assert response.retries == 0


class TestBlastRadius:
    def test_unaffected_batches_complete_exactly(self, serve_graph):
        """Poisoned SSSP batches fail; interleaved BFS/PR queries (other
        batches) must complete bit-identically, untouched by the fault."""
        executor = FlakyExecutor(scheduler_factory, failures=10**9)
        with ServingHandle(
            {"g": serve_graph}, scheduler_factory, **SINGLE_BROKER,
            batch_window=0.01, max_batch_size=8,
            max_retries=1, executor=executor,
        ) as broker:
            poisoned = [
                QueryRequest(app="sssp", graph="g", source=i)
                for i in range(3)
            ]
            healthy = [
                QueryRequest(app="bfs", graph="g", source=i)
                for i in range(3)
            ] + [QueryRequest(app="pr", graph="g",
                              params={"max_iterations": 5})]
            interleaved = [
                req
                for pair in zip(poisoned, healthy)
                for req in pair
            ] + healthy[len(poisoned):]
            pendings = broker.submit_many(interleaved)
            responses = [p.result(timeout=120.0) for p in pendings]
        by_request = dict(zip(interleaved, responses))
        for request in poisoned:
            assert by_request[request].status is QueryStatus.ERROR
        for request in healthy:
            response = by_request[request]
            assert response.status is QueryStatus.OK, response
            oracle = run_direct(serve_graph, request, scheduler_factory)
            assert_bit_identical(response.result, oracle.result,
                                 label=request.app)

    def test_partial_recovery_mid_stream(self, serve_graph):
        """The device heals after two failed attempts: earlier rejects
        stay rejected, later queries succeed — no cross-contamination."""
        executor = FlakyExecutor(scheduler_factory, failures=2)
        with ServingHandle(
            {"g": serve_graph}, scheduler_factory, **SINGLE_BROKER,
            batch_window=0.0, max_batch_size=1,
            max_retries=0, executor=executor,
        ) as broker:
            requests = [
                QueryRequest(app="sssp", graph="g", source=i)
                for i in range(4)
            ]
            # Serialize submissions so attempt order is deterministic.
            responses = [
                broker.submit(request).result(timeout=120.0)
                for request in requests
            ]
        statuses = [r.status for r in responses]
        assert statuses == [
            QueryStatus.ERROR, QueryStatus.ERROR,
            QueryStatus.OK, QueryStatus.OK,
        ]
        for request, response in zip(requests[2:], responses[2:]):
            oracle = run_direct(serve_graph, request, scheduler_factory)
            assert_bit_identical(response.result, oracle.result)


class TestReplayFaultPath:
    """The virtual-time replay has the handle's fault path: a failed
    batch re-admits its members at the dispatch time, so fault injection
    is deterministic."""

    @staticmethod
    def replay(graph, failures):
        executor = FlakyExecutor(scheduler_factory, failures=failures)
        metrics = MetricsRegistry()
        requests = [
            QueryRequest(app="sssp", graph="g", source=i) for i in range(4)
        ] + [QueryRequest(app="bfs", graph="g", source=i) for i in range(2)]
        arrivals = np.linspace(0.0, 0.004, len(requests))
        responses, report = simulate_cluster_open_loop(
            {"g": graph}, requests, arrivals, scheduler_factory,
            batch_window=0.01, max_batch_size=8, executor=executor,
            metrics=metrics, **SINGLE_BROKER,
        )
        return requests, responses, report, metrics.report()["counters"]

    def test_retried_queries_answer_exactly(self, serve_graph):
        requests, responses, report, counters = self.replay(
            serve_graph, failures=1
        )
        for request, response in zip(requests, responses):
            assert response.status is QueryStatus.OK, response
            assert response.retries == (request.app == "sssp")
            oracle = run_direct(serve_graph, request, scheduler_factory)
            assert_bit_identical(response.result, oracle.result)
        assert counters["serve.retries"] == 4
        assert counters.get("serve.errors", 0) == 0
        assert report.status_counts == {"ok": len(requests)}

    def test_exhausted_retries_answer_with_structured_errors(
        self, serve_graph
    ):
        requests, responses, report, counters = self.replay(
            serve_graph, failures=10**9
        )
        for request, response in zip(requests, responses):
            if request.app == "sssp":
                assert response.status is QueryStatus.ERROR
                assert response.result is None
                assert response.error_type == "DeviceLost"
                assert response.retries == MAX_RETRIES
            else:
                assert response.status is QueryStatus.OK
                oracle = run_direct(serve_graph, request, scheduler_factory)
                assert_bit_identical(response.result, oracle.result)
        assert counters["serve.errors"] == 4
        assert counters["serve.retries"] == 4 * MAX_RETRIES
        assert report.status_counts == {"ok": 2, "error": 4}

    @pytest.mark.parametrize("failures", [1, 10**9])
    def test_two_runs_give_equal_responses(self, serve_graph, failures):
        _, first, report_a, _ = self.replay(serve_graph, failures)
        _, second, report_b, _ = self.replay(serve_graph, failures)
        assert report_a == report_b
        for a, b in zip(first, second):
            assert (a.status, a.batch_id, a.retries, a.error) == (
                b.status, b.batch_id, b.retries, b.error
            )
            assert a.latency_seconds == b.latency_seconds
            if a.result is not None:
                assert_bit_identical(a.result, b.result)
