"""Differential harness for sampling workloads: batched == oracle, bitwise.

The tentpole claim of the sampling tier: because every draw is a pure
function of ``(seed, source, stream, step)`` coordinates, coalescing
walk/node2vec/khop/sppr queries into combined-app batches — across the
virtual-time simulator, the replica cluster and the stream-pipelined
executor, under randomized arrival orders — changes *device time only*,
never a single result bit.  The safety property from
:func:`tests.serve.conftest.assert_response_sound` holds everywhere:
under deadlines, shedding and injected device faults, a query is either
answered oracle-exactly or rejected with a structured error.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.graph import generators
from repro.obs import MetricsRegistry
from repro.serve import (
    BatchExecutor,
    PipelineConfig,
    ServingHandle,
    QueryRequest,
    QueryStatus,
    SINGLE_BROKER,
    generate_queries,
    open_loop_arrivals,
    run_direct,
    simulate_cluster_open_loop,
)
from tests.serve.conftest import (
    assert_bit_identical,
    assert_response_sound,
    scheduler_factory,
)

pytestmark = pytest.mark.sampling

#: >= 3 distinct batch-window / cap configurations, per the acceptance
#: criteria, keyed by their stable test ids.
SIM_CONFIGS = {
    "w1": dict(batch_window=0.05, max_batch_size=4),
    "w2": dict(batch_window=0.5, max_batch_size=16),
    "w4": dict(batch_window=2.0, max_batch_size=64),
}

SAMPLING_KINDS = ("walk", "node2vec", "khop", "sppr")

#: Small parameter presets so oracle replays stay fast under test.
TEST_PARAMS = {
    "walk": {"num_walks": 3, "walk_length": 6, "seed": 7},
    "node2vec": {"num_walks": 2, "walk_length": 4, "seed": 7,
                 "p": 2.0, "q": 0.5},
    "khop": {"fanouts": (3, 2), "seed": 7},
    "sppr": {"num_walks": 32, "max_steps": 16, "seed": 7},
}


def sampling_requests(graph, *, seed, num=16, deadline=None):
    """A deterministic sampling-kind query list in shuffled order."""
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(num):
        kind = SAMPLING_KINDS[i % len(SAMPLING_KINDS)]
        requests.append(QueryRequest(
            app=kind, graph="g",
            source=int(rng.integers(0, graph.num_nodes)),
            params=TEST_PARAMS[kind],
            deadline_seconds=deadline,
        ))
    rng.shuffle(requests)
    return requests


def oracle_results(graph, requests):
    return [run_direct(graph, r, scheduler_factory).result for r in requests]


class TestSimulatorDifferential:
    @pytest.mark.parametrize("config", SIM_CONFIGS.values(),
                             ids=SIM_CONFIGS.keys())
    @pytest.mark.parametrize("order_seed", [0, 1, 2])
    def test_every_response_matches_oracle(
        self, serve_graph, config, order_seed
    ):
        requests = sampling_requests(serve_graph, seed=order_seed)
        arrivals = open_loop_arrivals(len(requests), rate_qps=40.0,
                                      seed=order_seed)
        responses, report = simulate_cluster_open_loop(
            {"g": serve_graph}, requests, arrivals, scheduler_factory,
            **config, **SINGLE_BROKER,
        )
        oracles = oracle_results(serve_graph, requests)
        assert len(responses) == len(requests)
        for request, response, oracle in zip(requests, responses, oracles):
            assert response.status is QueryStatus.OK
            assert_bit_identical(response.result, oracle, label=request.app)
        assert report.status_counts == {"ok": len(requests)}

    def test_mixed_with_traversal_kinds_stays_exact(self, serve_graph):
        """Sampling queries interleaved with the classic serve kinds:
        per-kind batches form independently and all stay oracle-exact."""
        requests = generate_queries(
            "g", serve_graph.num_nodes, 24,
            mix={"bfs": 0.3, "walk": 0.3, "sppr": 0.2, "khop": 0.2},
            seed=5,
        )
        arrivals = open_loop_arrivals(len(requests), rate_qps=100.0, seed=5)
        responses, _ = simulate_cluster_open_loop(
            {"g": serve_graph}, requests, arrivals, scheduler_factory,
            batch_window=0.5, max_batch_size=32, **SINGLE_BROKER,
        )
        for request, response in zip(requests, responses):
            assert response.status is QueryStatus.OK
            assert_response_sound(response, serve_graph, request)

    def test_simulator_is_deterministic(self, serve_graph):
        requests = sampling_requests(serve_graph, seed=7)
        arrivals = open_loop_arrivals(len(requests), rate_qps=25.0, seed=7)
        runs = [
            simulate_cluster_open_loop(
                {"g": serve_graph}, requests, arrivals, scheduler_factory,
                batch_window=0.5, max_batch_size=16, **SINGLE_BROKER,
            )
            for _ in range(2)
        ]
        (res_a, rep_a), (res_b, rep_b) = runs
        assert rep_a == rep_b
        for a, b in zip(res_a, res_b):
            assert a.status is b.status
            assert_bit_identical(a.result, b.result)

    def test_walk_queries_coalesce_into_one_run(self, serve_graph):
        """Same-params walk queries inside one window share a single
        combined-app run; the sampling counters record the coalescing."""
        requests = [
            QueryRequest(app="walk", graph="g", source=i,
                         params=TEST_PARAMS["walk"])
            for i in range(8)
        ]
        arrivals = np.linspace(0.0, 0.01, len(requests))
        metrics = MetricsRegistry(enabled=True)
        executor = BatchExecutor(scheduler_factory, metrics=metrics)
        responses, report = simulate_cluster_open_loop(
            {"g": serve_graph}, requests, arrivals, scheduler_factory,
            batch_window=1.0, max_batch_size=64,
            executor=executor, **SINGLE_BROKER,
        )
        assert report.num_batches == 1
        counters = metrics.counters
        assert counters["sampling.coalesced_batches"] == 1
        assert counters["sampling.queries"] == len(requests)
        assert counters["sampling.batched_sources"] == len(requests)
        oracles = oracle_results(serve_graph, requests)
        for response, oracle in zip(responses, oracles):
            assert_bit_identical(response.result, oracle)

    def test_duplicate_sources_share_streams_exactly(self, serve_graph):
        """Two queries with the same (source, params) coalesce to one
        source group and both get the identical oracle answer."""
        request = QueryRequest(app="sppr", graph="g", source=3,
                               params=TEST_PARAMS["sppr"])
        requests = [request, request, request]
        arrivals = np.zeros(3)
        responses, _ = simulate_cluster_open_loop(
            {"g": serve_graph}, requests, arrivals, scheduler_factory,
            batch_window=1.0, max_batch_size=8, **SINGLE_BROKER,
        )
        oracle = run_direct(serve_graph, request, scheduler_factory).result
        for response in responses:
            assert_bit_identical(response.result, oracle)


class TestClusterDifferential:
    @pytest.mark.parametrize("routing", ["round_robin", "affinity",
                                         "least_outstanding"])
    def test_cluster_responses_match_oracle(self, serve_graph, routing):
        requests = sampling_requests(serve_graph, seed=3)
        arrivals = open_loop_arrivals(len(requests), rate_qps=200.0, seed=3)
        responses, report = simulate_cluster_open_loop(
            {"g": serve_graph}, requests, arrivals, scheduler_factory,
            num_replicas=3, routing=routing,
        )
        assert report.status_counts == {"ok": len(requests)}
        for request, response in zip(requests, responses):
            assert_response_sound(response, serve_graph, request)

    def test_pipelined_cluster_is_bit_identical(self, serve_graph):
        """Stream/event pipelining overlaps device work across batches;
        responses must not change by a single bit."""
        requests = sampling_requests(serve_graph, seed=9)
        arrivals = open_loop_arrivals(len(requests), rate_qps=300.0, seed=9)

        def run(pipeline):
            return simulate_cluster_open_loop(
                {"g": serve_graph}, requests, arrivals, scheduler_factory,
                num_replicas=2, routing="affinity", pipeline=pipeline,
            )

        plain, _ = run(None)
        piped, report = run(PipelineConfig(in_flight=4, num_streams=4))
        for request, a, b in zip(requests, plain, piped):
            assert a.status is QueryStatus.OK
            assert b.status is QueryStatus.OK
            assert_bit_identical(a.result, b.result, label=request.app)
            assert_response_sound(b, serve_graph, request)
        assert report.status_counts == {"ok": len(requests)}


graph_strategy = st.builds(
    lambda scale, seed: _cached_rmat(scale, seed),
    scale=st.integers(min_value=4, max_value=6),
    seed=st.integers(min_value=0, max_value=2),
)

_GRAPH_CACHE: dict[tuple[int, int], object] = {}


def _cached_rmat(scale: int, seed: int):
    key = (scale, seed)
    if key not in _GRAPH_CACHE:
        _GRAPH_CACHE[key] = generators.rmat(scale, edge_factor=8, seed=seed)
    return _GRAPH_CACHE[key]


@st.composite
def sampling_scenarios(draw):
    graph = draw(graph_strategy)
    num = draw(st.integers(min_value=1, max_value=10))
    rng = np.random.default_rng(draw(st.integers(0, 100)))
    requests = []
    for _ in range(num):
        kind = draw(st.sampled_from(SAMPLING_KINDS))
        requests.append(QueryRequest(
            app=kind, graph="g",
            source=int(rng.integers(0, graph.num_nodes)),
            params=TEST_PARAMS[kind],
        ))
    config = dict(
        batch_window=draw(st.sampled_from([0.0, 0.05, 1.0])),
        max_batch_size=draw(st.sampled_from([1, 3, 64])),
    )
    arrival_seed = draw(st.integers(min_value=0, max_value=5))
    return graph, requests, config, arrival_seed


class TestNeverWrongAnswers:
    @settings(max_examples=10, deadline=None)
    @given(scenario=sampling_scenarios())
    def test_random_scenarios_always_match_oracle(self, scenario):
        graph, requests, config, arrival_seed = scenario
        arrivals = open_loop_arrivals(
            len(requests), rate_qps=30.0, seed=arrival_seed
        )
        responses, report = simulate_cluster_open_loop(
            {"g": graph}, requests, arrivals, scheduler_factory,
            **config, **SINGLE_BROKER,
        )
        assert report.status_counts.get("ok", 0) == len(requests)
        for request, response in zip(requests, responses):
            assert_response_sound(response, graph, request)

    @settings(max_examples=6, deadline=None)
    @given(scenario=sampling_scenarios(),
           deadline_s=st.sampled_from([0.0, 1e-6, 0.5, None]))
    def test_deadlines_never_produce_wrong_answers(
        self, scenario, deadline_s
    ):
        graph, requests, config, arrival_seed = scenario
        requests = [
            QueryRequest(app=r.app, graph=r.graph, source=r.source,
                         params=r.params, deadline_seconds=deadline_s)
            for r in requests
        ]
        arrivals = open_loop_arrivals(
            len(requests), rate_qps=30.0, seed=arrival_seed
        )
        responses, _ = simulate_cluster_open_loop(
            {"g": graph}, requests, arrivals, scheduler_factory,
            **config, **SINGLE_BROKER,
        )
        for request, response in zip(requests, responses):
            assert response.status in (
                QueryStatus.OK, QueryStatus.TIMEOUT
            )
            assert_response_sound(response, graph, request)


class SamplingDeviceLost(ReproError):
    """Simulated device loss inside a sampling batch run."""


class FlakySamplingExecutor(BatchExecutor):
    """Fails the first ``failures`` sampling batches mid-run."""

    def __init__(self, *args, failures=1, **kwargs):
        super().__init__(*args, **kwargs)
        self.failures = failures
        self.attempts = 0
        self._lock = threading.Lock()

    def execute(self, graph, requests):
        if requests and requests[0].app in SAMPLING_KINDS:
            with self._lock:
                self.attempts += 1
                if self.attempts <= self.failures:
                    raise SamplingDeviceLost(
                        f"device lost mid-sampling-batch "
                        f"(attempt {self.attempts})"
                    )
        return super().execute(graph, requests)


class TestFaultInjection:
    def test_failed_sampling_batch_retries_to_exact_answers(
        self, serve_graph
    ):
        executor = FlakySamplingExecutor(scheduler_factory, failures=1)
        with ServingHandle(
            {"g": serve_graph}, scheduler_factory, **SINGLE_BROKER,
            batch_window=0.01, max_batch_size=8,
            max_retries=1, executor=executor,
        ) as broker:
            requests = [
                QueryRequest(app="walk", graph="g", source=i,
                             params=TEST_PARAMS["walk"])
                for i in range(4)
            ]
            pendings = broker.submit_many(requests)
            responses = [p.result(timeout=120.0) for p in pendings]
        for request, response in zip(requests, responses):
            assert response.status is QueryStatus.OK, response
            oracle = run_direct(serve_graph, request, scheduler_factory)
            assert_bit_identical(response.result, oracle.result,
                                 label=request.app)

    def test_permanent_failure_yields_structured_errors_only(
        self, serve_graph
    ):
        executor = FlakySamplingExecutor(
            scheduler_factory, failures=10**9
        )
        with ServingHandle(
            {"g": serve_graph}, scheduler_factory, **SINGLE_BROKER,
            batch_window=0.01, max_batch_size=8,
            max_retries=1, executor=executor,
        ) as broker:
            requests = [
                QueryRequest(app="sppr", graph="g", source=i,
                             params=TEST_PARAMS["sppr"])
                for i in range(3)
            ]
            pendings = broker.submit_many(requests)
            responses = [p.result(timeout=120.0) for p in pendings]
        for response in responses:
            assert response.status is QueryStatus.ERROR
            assert response.result is None
            assert response.error_type == "SamplingDeviceLost"
