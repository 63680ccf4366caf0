"""Differential tests for the replica-pool cluster tier.

The contract is the serving contract, one level up: every ``OK``
response out of the cluster — routed, batched, cached, throttled or
raced by a graph update — is bit-for-bit identical to the single-query
``run_direct`` oracle on a consistent graph version, and every non-OK
response carries no result at all.  Never a wrong answer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SageScheduler
from repro.errors import InvalidParameterError
from repro.graph.dynamic import DynamicGraph
from repro.obs import MetricsRegistry
from repro.serve import (
    ROUTING_POLICIES,
    AdmissionConfig,
    ClusterPool,
    QueryRequest,
    QueryStatus,
    Router,
    generate_queries,
    open_loop_arrivals,
    run_direct,
    SINGLE_BROKER,
    simulate_cluster_open_loop,
    skew_sources,
)

from .conftest import assert_bit_identical, assert_response_sound

pytestmark = pytest.mark.cluster


def scheduler_factory() -> SageScheduler:
    return SageScheduler()


def _workload(graph, n=32, seed=3, rate=200.0, skew=False):
    requests = generate_queries(
        "g", graph.num_nodes, n, seed=seed,
        mix={"bfs": 0.5, "sssp": 0.4, "pr": 0.1},
    )
    if skew:
        requests = skew_sources(
            requests, hot_set_size=4, hot_fraction=0.8,
            num_nodes=graph.num_nodes, seed=seed,
        )
    arrivals = open_loop_arrivals(n, rate_qps=rate, seed=seed)
    return requests, arrivals


class TestSimulatorDifferential:
    @pytest.mark.parametrize("routing", ROUTING_POLICIES)
    def test_every_ok_response_matches_the_oracle(
        self, serve_graph, routing
    ):
        requests, arrivals = _workload(serve_graph, skew=True)
        responses, report = simulate_cluster_open_loop(
            {"g": serve_graph}, requests, arrivals, scheduler_factory,
            num_replicas=3, routing=routing,
        )
        assert len(responses) == len(requests)
        assert report.status_counts == {"ok": len(requests)}
        for request, response in zip(requests, responses):
            assert_response_sound(response, serve_graph, request)

    def test_cache_disabled_still_bit_identical(self, serve_graph):
        requests, arrivals = _workload(serve_graph, n=16, skew=True)
        cached, _ = simulate_cluster_open_loop(
            {"g": serve_graph}, requests, arrivals, scheduler_factory,
            num_replicas=2, cache_capacity=1024,
        )
        uncached, report = simulate_cluster_open_loop(
            {"g": serve_graph}, requests, arrivals, scheduler_factory,
            num_replicas=2, cache_capacity=0,
        )
        assert report.cache_hits == 0
        for request, a, b in zip(requests, cached, uncached):
            assert a.status is QueryStatus.OK
            assert b.status is QueryStatus.OK
            assert_bit_identical(a.result, b.result, label=request.app)

    def test_deterministic_across_reruns(self, serve_graph):
        requests, arrivals = _workload(serve_graph, skew=True)

        def run():
            return simulate_cluster_open_loop(
                {"g": serve_graph}, requests, arrivals,
                scheduler_factory, num_replicas=2, routing="affinity",
            )

        _, first = run()
        _, second = run()
        assert first.to_dict() == second.to_dict()

    def test_skewed_workload_hits_the_cache(self, serve_graph):
        requests, arrivals = _workload(
            serve_graph, n=48, rate=100.0, skew=True
        )
        metrics = MetricsRegistry()
        _, report = simulate_cluster_open_loop(
            {"g": serve_graph}, requests, arrivals, scheduler_factory,
            num_replicas=2, routing="affinity", metrics=metrics,
        )
        assert report.cache_hits > 0
        counters = metrics.report()["counters"]
        assert counters["cluster.cache_hits"] == report.cache_hits
        gauges = metrics.report()["gauges"]
        assert gauges["cluster.cache_hit_ratio"] == pytest.approx(
            report.cache_hit_ratio
        )

    def test_forced_sheds_never_carry_results(self, serve_graph):
        """A starved admission controller sheds; survivors stay exact."""
        requests, arrivals = _workload(serve_graph, n=32, rate=500.0)
        responses, report = simulate_cluster_open_loop(
            {"g": serve_graph}, requests, arrivals, scheduler_factory,
            num_replicas=2,
            admission=AdmissionConfig(rate_qps=20.0, burst=2.0),
        )
        assert report.throttled > 0
        shed = [r for r in responses if r.status is QueryStatus.SHED]
        assert shed, "rate limit never tripped"
        for request, response in zip(requests, responses):
            assert_response_sound(response, serve_graph, request)

    def test_concurrency_cap_sheds_and_backs_off(self, serve_graph):
        requests, arrivals = _workload(serve_graph, n=32, rate=2000.0)
        responses, report = simulate_cluster_open_loop(
            {"g": serve_graph}, requests, arrivals, scheduler_factory,
            num_replicas=1,
            admission=AdmissionConfig(max_concurrency=2),
        )
        assert report.shed > 0
        for request, response in zip(requests, responses):
            assert_response_sound(response, serve_graph, request)

    def test_speedup_vs_single_broker_at_equal_load(self, serve_graph):
        """The bench-tier configuration: same requests, same arrivals."""
        requests, arrivals = _workload(
            serve_graph, n=48, rate=100.0, skew=True
        )
        _, single = simulate_cluster_open_loop(
            {"g": serve_graph}, requests, arrivals, scheduler_factory,
            batch_window=0.05, max_batch_size=64, **SINGLE_BROKER,
        )
        _, report = simulate_cluster_open_loop(
            {"g": serve_graph}, requests, arrivals, scheduler_factory,
            num_replicas=2, routing="affinity",
            batch_window=0.05, max_batch_size=64,
            baseline_seconds=single.sim_seconds_total,
        )
        assert report.speedup_vs_baseline > 1.0

    def test_batch_cap_of_one_answers_every_query(self, serve_graph):
        """A cap-1 batch is full at open and dispatches at once; a later
        same-key arrival inside the window must not displace it."""
        requests, arrivals = _workload(serve_graph, n=16, skew=True)
        responses, report = simulate_cluster_open_loop(
            {"g": serve_graph}, requests, arrivals, scheduler_factory,
            batch_window=1.0, max_batch_size=1, **SINGLE_BROKER,
        )
        assert report.status_counts == {"ok": len(requests)}
        assert report.num_batches == len(requests)
        for request, response in zip(requests, responses):
            assert_response_sound(response, serve_graph, request)


class TestMidStreamUpdates:
    def _dynamic(self, serve_graph):
        return DynamicGraph(serve_graph)

    def test_updates_invalidate_and_results_stay_consistent(
        self, serve_graph
    ):
        """Mid-stream edge inserts: every OK response matches the oracle
        on one of the known graph versions (pre/post each update)."""
        dynamic = self._dynamic(serve_graph)
        n = 24
        requests = generate_queries(
            "g", serve_graph.num_nodes, n, seed=5,
            mix={"bfs": 0.6, "sssp": 0.4},
        )
        requests = skew_sources(
            requests, hot_set_size=3, hot_fraction=0.9,
            num_nodes=serve_graph.num_nodes, seed=5,
        )
        arrivals = [0.05 * (i + 1) for i in range(n)]
        updates = [
            (0.375, "g", [0], [serve_graph.num_nodes - 1]),
            (0.775, "g", [1], [serve_graph.num_nodes - 2]),
        ]
        responses, report = simulate_cluster_open_loop(
            {"g": dynamic}, requests, arrivals, scheduler_factory,
            num_replicas=2, routing="affinity", updates=updates,
        )
        assert report.graph_updates == 2
        assert report.status_counts == {"ok": n}

        # Materialize every graph version the cluster could have seen.
        versions = [serve_graph]
        replay = DynamicGraph(serve_graph)
        for _, _, src, dst in updates:
            replay.insert_edges(np.asarray(src), np.asarray(dst))
            replay.flush()
            versions.append(replay.graph)

        for request, response in zip(requests, responses):
            assert response.status is QueryStatus.OK
            matched = False
            for version in versions:
                oracle = run_direct(version, request, scheduler_factory)
                try:
                    assert_bit_identical(response.result, oracle.result)
                    matched = True
                    break
                except AssertionError:
                    continue
            assert matched, (
                f"{request.app} source={request.source} matches no "
                f"graph version"
            )

    def test_late_queries_see_the_updated_graph(self, serve_graph):
        """A query arriving well after an insert must reflect it —
        the cache is not allowed to serve the stale epoch."""
        dynamic = self._dynamic(serve_graph)
        source = int(np.argmax(serve_graph.out_degrees()))
        far = int(np.argmin(serve_graph.out_degrees()))
        request = QueryRequest("bfs", "g", source)
        requests = [request, request]
        arrivals = [0.0, 10.0]
        updates = [(5.0, "g", [source], [far])]
        responses, report = simulate_cluster_open_loop(
            {"g": dynamic}, requests, arrivals, scheduler_factory,
            num_replicas=1, updates=updates,
        )
        assert report.cache_hits == 0  # epoch bump defeats the cache
        before = run_direct(serve_graph, request, scheduler_factory)
        replay = DynamicGraph(serve_graph)
        replay.insert_edges(np.asarray([source]), np.asarray([far]))
        after = run_direct(replay.graph, request, scheduler_factory)
        assert_bit_identical(responses[0].result, before.result)
        assert_bit_identical(responses[1].result, after.result)

    def test_updates_on_static_handle_raise(self, serve_graph):
        requests = [QueryRequest("bfs", "g", 0)]
        with pytest.raises(InvalidParameterError):
            simulate_cluster_open_loop(
                {"g": serve_graph}, requests, [0.0], scheduler_factory,
                updates=[(0.0, "g", [0], [1])],
            )


class TestRouter:
    def test_round_robin_cycles(self):
        router = Router("round_robin", 3)
        request = QueryRequest("bfs", "g", 0)
        picks = [router.route(request, {}) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_outstanding_picks_min_then_lowest_index(self):
        router = Router("least_outstanding", 3)
        request = QueryRequest("bfs", "g", 0)
        assert router.route(request, {0: 4, 1: 1, 2: 9}) == 1
        assert router.route(request, {0: 2, 1: 2, 2: 2}) == 0

    def test_affinity_is_stable_and_batch_key_scoped(self):
        router = Router("affinity", 4)
        a = QueryRequest("bfs", "g", 1)
        assert router.route(a, {}) == router.route(a, {0: 99})
        # Affinity hashes the batch key (graph, app, params), NOT the
        # source: two BFS sources land on the same replica so the
        # MS-BFS batcher can merge them...
        b = QueryRequest("bfs", "g", 2)
        assert router.route(a, {}) == router.route(b, {})
        # ...while distinct batch keys (apps / graphs / params) spread.
        targets = {
            router.route(QueryRequest(app, handle, 1), {})
            for app in ("bfs", "sssp", "pr", "ppr")
            for handle in ("g", "h", "k")
        }
        assert len(targets) > 1

    def test_unknown_policy_rejected(self):
        with pytest.raises(InvalidParameterError):
            Router("random", 2)


class TestThreadedPool:
    def test_pool_serves_and_caches(self, serve_graph):
        requests = generate_queries(
            "g", serve_graph.num_nodes, 12, seed=9,
            mix={"bfs": 0.7, "sssp": 0.3},
        )
        with ClusterPool(
            {"g": serve_graph}, scheduler_factory,
            num_replicas=2, batch_window=0.005,
        ) as pool:
            first = [p.result() for p in pool.submit_many(requests)]
            second = [p.result() for p in pool.submit_many(requests)]
        for request, response in zip(requests, first + second):
            assert response.status is QueryStatus.OK
            assert_response_sound(response, serve_graph, request)
        assert pool.cache.hits >= len(requests)
        cached = [r for r in second if r.extras.get("cached")]
        assert cached

    def test_pool_propagates_dynamic_updates(self, serve_graph):
        dynamic = DynamicGraph(serve_graph)
        source = int(np.argmax(serve_graph.out_degrees()))
        far = int(np.argmin(serve_graph.out_degrees()))
        request = QueryRequest("bfs", "g", source)
        with ClusterPool(
            {"g": dynamic}, scheduler_factory,
            num_replicas=2, batch_window=0.001,
        ) as pool:
            before = pool.submit(request).result()
            dynamic.insert_edges(
                np.asarray([source]), np.asarray([far])
            )
            dynamic.flush()
            after = pool.submit(request).result()
        assert pool.graph_updates == 1
        oracle_before = run_direct(
            serve_graph, request, scheduler_factory
        )
        replay = DynamicGraph(serve_graph)
        replay.insert_edges(np.asarray([source]), np.asarray([far]))
        oracle_after = run_direct(
            replay.graph, request, scheduler_factory
        )
        assert_bit_identical(before.result, oracle_before.result)
        assert_bit_identical(after.result, oracle_after.result)

    def test_pool_sheds_without_results(self, serve_graph):
        requests = generate_queries(
            "g", serve_graph.num_nodes, 16, seed=2
        )
        with ClusterPool(
            {"g": serve_graph}, scheduler_factory,
            num_replicas=1, batch_window=0.001,
            admission=AdmissionConfig(rate_qps=1.0, burst=1.0),
        ) as pool:
            responses = [p.result() for p in pool.submit_many(requests)]
        shed = [r for r in responses if r.status is QueryStatus.SHED]
        assert shed
        for response in shed:
            assert response.result is None
            assert response.error_type
