"""Differential harness: batched serving == direct oracle, bit for bit.

Every test compares service responses against one-query-at-a-time
:func:`repro.serve.run_direct` runs over the identical request list.
Randomized arrival orders, multiple worker/batch-window configurations
and both execution modes (the single-broker virtual-time replay and the
real threaded broker) all have to agree with the oracle exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.serve import (
    SINGLE_BROKER,
    QueryRequest,
    QueryStatus,
    QueryBroker,
    open_loop_arrivals,
    run_direct,
    simulate_cluster_open_loop,
)
from tests.serve.conftest import assert_bit_identical, scheduler_factory

#: >= 3 distinct batch-window / cap configurations (and, for the
#: broker, worker pools), per the acceptance criteria.  Windows are
#: virtual seconds in simulator tests and wall seconds in broker tests.
#: The simulator configs are keyed by their stable test ids.
SIM_CONFIGS = {
    "w1": dict(batch_window=0.05, max_batch_size=4),
    "w2": dict(batch_window=0.5, max_batch_size=16),
    "w4": dict(batch_window=2.0, max_batch_size=64),
}
BROKER_CONFIGS = [
    dict(num_workers=1, batch_window=0.0, max_batch_size=4),
    dict(num_workers=2, batch_window=0.005, max_batch_size=8),
    dict(num_workers=3, batch_window=0.02, max_batch_size=64),
]


def mixed_requests(graph, *, seed, num=18, deadline=None):
    """A deterministic mixed-app query list in a shuffled arrival order."""
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(num):
        kind = ("bfs", "sssp", "pr", "ppr")[i % 4]
        source = None if kind == "pr" else int(
            rng.integers(0, graph.num_nodes)
        )
        params = {"max_iterations": 8} if kind in ("pr", "ppr") else {}
        requests.append(QueryRequest(
            app=kind, graph="g", source=source, params=params,
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
        requests = mixed_requests(serve_graph, seed=order_seed)
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
        assert report.num_batches >= 1

    def test_simulator_is_deterministic(self, serve_graph):
        requests = mixed_requests(serve_graph, seed=7)
        arrivals = open_loop_arrivals(len(requests), rate_qps=25.0, seed=7)
        runs = [
            simulate_cluster_open_loop(
                {"g": serve_graph}, requests, arrivals, scheduler_factory,
                batch_window=0.5, max_batch_size=16, **SINGLE_BROKER,
            )
            for _ in range(2)
        ]
        (res_a, rep_a), (res_b, rep_b) = runs
        assert rep_a.to_dict() == rep_b.to_dict()
        for a, b in zip(res_a, res_b):
            assert a.status is b.status
            assert a.batch_id == b.batch_id
            assert_bit_identical(a.result, b.result)

    def test_batching_actually_happens(self, serve_graph):
        """Same-app queries arriving inside one window share a batch."""
        requests = [
            QueryRequest(app="bfs", graph="g", source=i)
            for i in range(8)
        ]
        arrivals = np.linspace(0.0, 0.01, len(requests))
        responses, report = simulate_cluster_open_loop(
            {"g": serve_graph}, requests, arrivals, scheduler_factory,
            batch_window=1.0, max_batch_size=64, **SINGLE_BROKER,
        )
        assert report.num_batches == 1
        assert {r.batch_size for r in responses} == {8}
        oracles = oracle_results(serve_graph, requests)
        for response, oracle in zip(responses, oracles):
            assert_bit_identical(response.result, oracle)


class TestBrokerDifferential:
    @pytest.mark.parametrize("config", BROKER_CONFIGS,
                             ids=lambda c: f"w{c['num_workers']}")
    @pytest.mark.parametrize("order_seed", [3, 4])
    def test_threaded_broker_matches_oracle(
        self, serve_graph, config, order_seed
    ):
        requests = mixed_requests(serve_graph, seed=order_seed, num=16)
        metrics = MetricsRegistry()
        with QueryBroker(
            {"g": serve_graph}, scheduler_factory,
            queue_capacity=256, metrics=metrics, **config,
        ) as broker:
            pendings = broker.submit_many(requests)
            responses = [p.result(timeout=120.0) for p in pendings]
        oracles = oracle_results(serve_graph, requests)
        for request, response, oracle in zip(requests, responses, oracles):
            assert response.status is QueryStatus.OK, response
            assert_bit_identical(response.result, oracle, label=request.app)
        counters = metrics.report()["counters"]
        assert counters["serve.requests"] == len(requests)
        assert counters["serve.accepted"] == len(requests)
        assert counters["serve.responses"] == len(requests)
        assert counters["serve.batched_queries"] == len(requests)
        assert counters.get("serve.shed", 0) == 0

    def test_multi_graph_batches_never_mix(self, serve_graph, second_graph):
        """Queries against different graph handles are answered against
        the right graph, even when interleaved."""
        requests = (
            [QueryRequest(app="bfs", graph="a", source=i) for i in range(5)]
            + [QueryRequest(app="bfs", graph="b", source=i) for i in range(5)]
        )
        rng = np.random.default_rng(9)
        rng.shuffle(requests)
        graphs = {"a": serve_graph, "b": second_graph}
        with QueryBroker(
            graphs, scheduler_factory,
            batch_window=0.01, max_batch_size=64, num_workers=2,
        ) as broker:
            pendings = broker.submit_many(requests)
            responses = [p.result(timeout=120.0) for p in pendings]
        for request, response in zip(requests, responses):
            oracle = run_direct(
                graphs[request.graph], request, scheduler_factory
            )
            assert response.status is QueryStatus.OK
            assert_bit_identical(response.result, oracle.result,
                                 label=request.graph)

    def test_duplicate_sources_share_results_without_aliasing(
        self, serve_graph
    ):
        """Duplicate-source queries coalesce into one run but must get
        independent arrays (mutating one response can't corrupt another)."""
        requests = [QueryRequest(app="bfs", graph="g", source=3)
                    for _ in range(4)]
        with QueryBroker(
            {"g": serve_graph}, scheduler_factory,
            batch_window=0.02, max_batch_size=8, num_workers=1,
        ) as broker:
            responses = [p.result(timeout=120.0)
                         for p in broker.submit_many(requests)]
        oracle = run_direct(serve_graph, requests[0], scheduler_factory)
        for response in responses:
            assert_bit_identical(response.result, oracle.result)
        responses[0].result["dist"][:] = -77
        assert_bit_identical(responses[1].result, oracle.result)
