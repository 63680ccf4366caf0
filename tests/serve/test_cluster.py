"""Differential tests for the replica-pool cluster tier.

The contract is the serving contract, one level up: every ``OK``
response out of the cluster — routed, batched, cached, throttled or
raced by a graph update — is bit-for-bit identical to the single-query
``run_direct`` oracle on a consistent graph version, and every non-OK
response carries no result at all.  Never a wrong answer.

The live handle and the virtual-time replay drive one event loop;
:class:`TestOnePolicyTwoDrivers` holds them to the same batches on the
same trace.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.core import SageScheduler
from repro.errors import InvalidParameterError
from repro.graph.dynamic import DynamicGraph
from repro.obs import MetricsRegistry
from repro.serve import (
    ROUTING_POLICIES,
    AdmissionConfig,
    BatchExecutor,
    GraphStore,
    ManualClock,
    QueryRequest,
    QueryStatus,
    Router,
    ServingHandle,
    generate_queries,
    open_loop_arrivals,
    run_direct,
    SINGLE_BROKER,
    WallClock,
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
        assert (report.cache_hits, report.cache_misses) == (0, 0)
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
        assert first == second

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

    def test_a_replay_leaves_a_shared_store_when_it_ends(self, serve_graph):
        """A store reused across replays keeps no finished replay
        subscribed: a later merge reaches none of its caches."""
        store = GraphStore({"g": DynamicGraph(serve_graph)})
        metrics = MetricsRegistry()
        simulate_cluster_open_loop(
            store, [QueryRequest("bfs", "g", 0)], [0.0], scheduler_factory,
            updates=[(0.0, "g", [0], [1])], metrics=metrics,
        )
        assert metrics.report()["counters"]["cluster.graph_updates"] == 1
        store.apply_edges("g", [1], [2])
        assert metrics.report()["counters"]["cluster.graph_updates"] == 1


class _ScriptedTimeExecutor(BatchExecutor):
    """Real results, scripted device time: a batch of app ``a`` takes
    ``seconds[a]``, so a test can place finish times exactly."""

    def __init__(self, seconds):
        super().__init__(scheduler_factory)
        self.seconds = seconds

    def execute(self, graph, requests):
        execution = super().execute(graph, requests)
        execution.sim_seconds = self.seconds[requests[0].app]
        return execution


class TestReplayEventOrder:
    """The pinned same-instant order, played by the replay itself:
    completions (in dispatch order), then graph updates, then window
    flushes, then the arrival."""

    def test_zero_window_same_instant_arrivals_form_two_batches(
        self, serve_graph
    ):
        request = QueryRequest("bfs", "g", 0)
        responses, report = simulate_cluster_open_loop(
            {"g": serve_graph}, [request, request], [1.0, 1.0],
            scheduler_factory, batch_window=0.0, **SINGLE_BROKER,
        )
        assert report.num_batches == 2
        assert [r.batch_id for r in responses] == [0, 1]

    def test_update_at_a_finish_finds_the_result_cached(self, serve_graph):
        """The completion lands first, under the pre-update epoch; the
        update then re-keys or purges that entry."""
        neighbors = set(serve_graph.neighbors(0).tolist())
        absent = next(
            v for v in range(1, serve_graph.num_nodes) if v not in neighbors
        )
        metrics = MetricsRegistry()
        responses, report = simulate_cluster_open_loop(
            {"g": DynamicGraph(serve_graph)},
            [QueryRequest("bfs", "g", 0)], [0.0], scheduler_factory,
            num_replicas=1, batch_window=0.0,
            executor=_ScriptedTimeExecutor({"bfs": 1.0}),
            updates=[(1.0, "g", [0], [absent])], metrics=metrics,
        )
        assert responses[0].latency_seconds == 1.0
        assert report.graph_updates == 1
        counters = metrics.report()["counters"]
        assert counters.get("delta.cache_entries_kept", 0) + counters.get(
            "cluster.cache_invalidations", 0
        ) == 1

    def test_update_at_a_window_close_reaches_the_batch(self, serve_graph):
        request = QueryRequest("bfs", "g", 0)
        before = run_direct(serve_graph, request, scheduler_factory).result
        far = next(
            v for v in range(1, serve_graph.num_nodes)
            if before["dist"][v] != 1
        )
        responses, _ = simulate_cluster_open_loop(
            {"g": DynamicGraph(serve_graph)}, [request], [0.0],
            scheduler_factory, num_replicas=1, batch_window=1.0,
            updates=[(1.0, "g", [0], [far])],
        )
        updated = DynamicGraph(serve_graph)
        updated.insert_edges(np.asarray([0]), np.asarray([far]))
        updated.flush()
        after = run_direct(updated.graph, request, scheduler_factory).result
        assert after["dist"][far] == 1
        assert_bit_identical(responses[0].result, after)

    def test_same_instant_completions_land_in_dispatch_order(
        self, serve_graph
    ):
        """Replica 1 dispatches first and replica 0 second; both finish
        at t=2, so a one-entry cache ends up holding replica 0's result,
        which the probe at t=5 hits."""
        router = Router("affinity", 2)
        first = QueryRequest("bfs", "g", 0)
        second = QueryRequest("pr", "g", params={"max_iterations": 5})
        assert [router.route(r, [0, 0]) for r in (first, second)] == [1, 0]
        responses, _ = simulate_cluster_open_loop(
            {"g": serve_graph}, [first, second, second], [0.0, 1.0, 5.0],
            scheduler_factory, num_replicas=2, routing="affinity",
            batch_window=0.0, cache_capacity=1,
            executor=_ScriptedTimeExecutor({"bfs": 2.0, "pr": 1.0}),
        )
        assert [r.batch_id for r in responses[:2]] == [0, 1]
        assert [r.latency_seconds for r in responses[:2]] == [2.0, 1.0]
        assert responses[2].extras.get("cached") == 1.0


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
        with ServingHandle(
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
        with ServingHandle(
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
        with ServingHandle(
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


class TestLiveHandle:
    """The handle's own contract: timeouts, closing without a drain,
    merges from outside the event loop, and callers on several
    threads."""

    @staticmethod
    def handle(graphs, clock, **kwargs):
        return ServingHandle(
            graphs, scheduler_factory, **SINGLE_BROKER,
            max_batch_size=8, clock=clock, **kwargs,
        )

    def test_result_times_out_on_the_handle_clock(self, serve_graph):
        clock = ManualClock()
        with self.handle({"g": serve_graph}, clock, batch_window=10.0) as h:
            pending = h.submit(QueryRequest("bfs", "g", 0))
            with pytest.raises(TimeoutError):
                pending.result(timeout=1.0)
            assert clock.time == 1.0
            assert pending.result().status is QueryStatus.OK

    def test_negative_retry_budget_is_rejected(self, serve_graph):
        with pytest.raises(InvalidParameterError, match="max_retries"):
            ServingHandle({"g": serve_graph}, scheduler_factory, max_retries=-1)

    def test_close_without_drain_sheds_queued_queries(self, serve_graph):
        clock = ManualClock()
        h = self.handle({"g": serve_graph}, clock, batch_window=10.0)
        pendings = h.submit_many(
            [QueryRequest("bfs", "g", i) for i in range(3)]
        )
        clock.time = 2.0
        h.close(drain=False)
        h.close()  # a second close is a no-op
        for pending in pendings:
            response = pending.result()
            assert response.status is QueryStatus.SHED
            assert response.result is None
            assert response.latency_seconds == 2.0
        assert clock.time == 2.0

    def test_update_runs_batches_closed_before_it_on_the_old_graph(
        self, serve_graph
    ):
        from repro import api

        dynamic = DynamicGraph(serve_graph)
        source = int(np.argmax(serve_graph.out_degrees()))
        request = QueryRequest("bfs", "g", source)
        old = run_direct(serve_graph, request, scheduler_factory)
        unreached = int(np.flatnonzero(old.result["dist"] < 0)[0])
        clock = ManualClock()
        with self.handle({"g": dynamic}, clock, batch_window=0.5) as h:
            before = h.submit(request)
            clock.time = 1.0  # the window closed at 0.5, unplayed
            api.update(h, "g", insert=([source], [unreached]))
            after = h.submit(request)
        assert h.graph_updates == 1
        assert_bit_identical(before.result().result, old.result)
        new = run_direct(dynamic.graph, request, scheduler_factory)
        assert_bit_identical(after.result().result, new.result)
        assert new.result["dist"][unreached] == 1

    def test_caller_threads_share_one_handle_without_loss(
        self, serve_graph
    ):
        """More caller threads than cores, a short switch interval and a
        wall clock: every query is answered once, exactly, and the
        handle's books balance."""
        requests = generate_queries(
            "g", serve_graph.num_nodes, 48, seed=7,
            mix={"bfs": 0.6, "sssp": 0.4},
        )
        metrics = MetricsRegistry()
        handle = ServingHandle(
            {"g": serve_graph}, scheduler_factory, **SINGLE_BROKER,
            batch_window=0.001, max_batch_size=4, metrics=metrics,
        )
        responses: dict[int, object] = {}

        def caller(offset):
            for index in range(offset, len(requests), 6):
                pending = handle.submit(requests[index])
                responses[index] = pending.result(timeout=60)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=caller, args=(i,)) for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        handle.close()
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(responses) == list(range(len(requests)))
        for index, response in responses.items():
            assert response.status is QueryStatus.OK, response
            assert_response_sound(response, serve_graph, requests[index])
        counters = metrics.report()["counters"]
        assert counters["serve.responses"] == len(requests)
        assert counters["serve.batched_queries"] == len(requests)
        sizes = Counter(r.batch_id for r in responses.values())
        assert all(r.batch_size == sizes[r.batch_id]
                   for r in responses.values())

    def test_done_never_moves_the_clock(self, serve_graph):
        clock = ManualClock()
        with self.handle({"g": serve_graph}, clock, batch_window=0.5) as h:
            pending = h.submit(QueryRequest("bfs", "g", 0))
            assert not pending.done()
            assert clock.time == 0.0
            clock.time = 0.5  # the window closes; the batch is running
            assert not pending.done()
            clock.time = 100.0
            assert pending.done()
            assert clock.time == 100.0
            assert pending.result().status is QueryStatus.OK

    def test_a_handle_leaves_a_shared_store_when_it_closes(self, serve_graph):
        """A closed handle is unsubscribed: a merge into the store it
        shared reaches only the handles still open."""
        from repro import api

        store = GraphStore({"g": DynamicGraph(serve_graph)})
        first = self.handle(store, ManualClock())
        second = self.handle(store, ManualClock())
        api.update(first, "g", insert=([0], [1]))
        first.advance()
        assert first.graph_updates == 1
        first.close()
        api.update(second, "g", insert=([1], [2]))
        first.advance()
        second.close()
        assert first.graph_updates == 1
        assert second.graph_updates == 2

    def test_a_merge_flushed_inside_a_dispatch_reaches_the_cache(
        self, serve_graph
    ):
        """Inserts left pending in a ``DynamicGraph`` flush when the
        dispatch reads the graph; the store's fan-out must not wait on
        the handle's lock, which the dispatching call holds."""
        dynamic = DynamicGraph(serve_graph)
        request = QueryRequest("bfs", "g", 0)
        with self.handle({"g": dynamic}, ManualClock(), batch_window=0.5) as h:
            pending = h.submit(request)
            dynamic.insert_edges(np.asarray([0]), np.asarray([1]))
            response = pending.result()
        assert h.graph_updates == 1
        oracle = run_direct(dynamic.graph, request, scheduler_factory)
        assert_bit_identical(response.result, oracle.result)


    @pytest.mark.parametrize("merge_at", range(8))
    def test_a_merge_between_store_reads_never_caches_a_stale_result(
        self, serve_graph, merge_at
    ):
        """A merge from another thread can land between any two of the
        store's reads (here: at the ``merge_at``-th one).  A later hit
        must still equal the oracle on the graph current at its lookup,
        so a batch run on the old graph is never keyed by the new
        epoch."""
        dynamic = DynamicGraph(serve_graph)
        store = GraphStore({"g": dynamic})
        source = int(np.argmax(serve_graph.out_degrees()))
        request = QueryRequest("bfs", "g", source)
        old = run_direct(serve_graph, request, scheduler_factory)
        unreached = int(np.flatnonzero(old.result["dist"] < 0)[0])
        reads = iter(range(10**6))
        check = store._check

        def check_then_merge(handle):
            if next(reads) == merge_at:
                dynamic.insert_edges(
                    np.asarray([source]), np.asarray([unreached])
                )
                dynamic.flush()
            check(handle)

        store._check = check_then_merge
        clock = ManualClock()
        handle = ServingHandle(
            store, scheduler_factory, num_replicas=1, cache_capacity=16,
            batch_window=0.5, max_batch_size=8, clock=clock,
        )
        with handle:
            first = handle.submit(request).result()
            clock.time = 10.0
            second = handle.submit(request).result()
        new = run_direct(dynamic.graph, request, scheduler_factory)
        assert first.status is second.status is QueryStatus.OK
        assert_bit_identical(second.result, new.result)

    def test_a_dropped_future_drops_its_response(self, serve_graph):
        """A live handle keeps no response whose future is gone: not one
        submitted and dropped, nor one a caller gave up on."""
        clock = ManualClock()
        with self.handle({"g": serve_graph}, clock, batch_window=0.5) as h:
            h.submit(QueryRequest("bfs", "g", 0))
            abandoned = h.submit(QueryRequest("bfs", "g", 1))
            with pytest.raises(TimeoutError):
                abandoned.result(timeout=0.1)
            del abandoned
            kept = h.submit(QueryRequest("bfs", "g", 2))
        assert kept.result().status is QueryStatus.OK
        assert h._replay.responses == {}
        assert len(h._pending) == 0


class TestClocks:
    def test_manual_clock_waits_forward_only(self):
        clock = ManualClock()
        clock.time = 2.0
        clock.sleep_until(1.0)
        assert clock.now() == 2.0
        clock.sleep_until(3.5)
        assert clock.now() == 3.5

    def test_wall_clock_sleeps_until_the_deadline(self):
        clock = WallClock()
        start = clock.now()
        assert start >= 0.0
        clock.sleep_until(start + 0.01)
        assert clock.now() >= start + 0.01
        clock.sleep_until(0.0)  # a past deadline returns at once
        assert clock.now() >= start + 0.01


#: Batching knobs of the differential trace: wide enough that some
#: batches fill and some close on their window mid-trace.
DIFF_WINDOW = 0.02
DIFF_CAP = 3


def _driver_config(replicas):
    """The single broker, or a two-replica round-robin pool without a
    cache (so every admitted query rides replica ``i % 2``)."""
    if replicas == 1:
        return dict(SINGLE_BROKER)
    return {
        "num_replicas": 2, "routing": "round_robin",
        "cache_capacity": 0,
        "admission": SINGLE_BROKER["admission"],
    }


def _play_on_handle(graphs, requests, arrivals, *, updates=(), apply=None,
                    **kwargs):
    """Submit each request to a handle on a manual clock set to its
    arrival; each ``(t, handle, src, dst)`` update is applied with
    ``apply(handle, graph, insert=(src, dst))`` at the clock time ``t``.
    Returns the responses after a draining close, and the handle."""
    clock = ManualClock()
    handle = ServingHandle(graphs, scheduler_factory, clock=clock, **kwargs)
    pending_updates = list(updates)
    pendings = []
    for request, t in zip(requests, arrivals):
        while pending_updates and pending_updates[0][0] <= t:
            when, graph, src, dst = pending_updates.pop(0)
            clock.time = when
            apply(handle, graph, insert=(src, dst))
        clock.time = float(t)
        pendings.append(handle.submit(request))
    assert not pending_updates
    handle.close(drain=True)
    return [p.result(timeout=30) for p in pendings], handle


def _assert_same_responses(handled, replayed):
    assert len(handled) == len(replayed)
    for want, got in zip(replayed, handled):
        assert (
            got.status, got.error, got.error_type, got.batch_id,
            got.batch_size, got.retries, got.latency_seconds, got.extras,
        ) == (
            want.status, want.error, want.error_type, want.batch_id,
            want.batch_size, want.retries, want.latency_seconds, want.extras,
        )
        if want.result is None:
            assert got.result is None
        else:
            assert_bit_identical(got.result, want.result)


def _batches(responses, replica_of):
    """The partition of query indices into batches, per replica."""
    groups: dict[tuple[int, int], list[int]] = {}
    for index, response in enumerate(responses):
        groups.setdefault(
            (replica_of[index], response.batch_id), []
        ).append(index)
    partition: dict[int, set[tuple[int, ...]]] = {}
    for (replica, _), members in groups.items():
        partition.setdefault(replica, set()).add(tuple(members))
    return partition


class TestOnePolicyTwoDrivers:
    """The handle drives the replay's event loop: on a manual clock set
    to each arrival, it forms the same batches and returns the same
    responses as the replay of that trace."""

    def test_full_batch_does_not_wait_behind_another_keys_window(
        self, serve_graph
    ):
        """On the wall clock: the full pair is answered at once, and the
        draining close serves the bfs without waiting out its window."""
        clock = WallClock()
        with ServingHandle(
            {"g": serve_graph}, scheduler_factory, **SINGLE_BROKER,
            batch_window=30.0, max_batch_size=2, clock=clock,
        ) as broker:
            bfs = broker.submit(QueryRequest("bfs", "g", 0))
            pair = broker.submit_many([
                QueryRequest("sssp", "g", 1), QueryRequest("sssp", "g", 2),
            ])
            responses = [p.result(timeout=5) for p in pair]
            assert not bfs.done()
        assert clock.now() < 10.0
        assert [r.status for r in responses] == [QueryStatus.OK] * 2
        assert {(r.batch_id, r.batch_size) for r in responses} == {
            (responses[0].batch_id, 2)
        }
        assert bfs.result(timeout=5).status is QueryStatus.OK

    def test_result_moves_a_manual_clock_to_the_window_close(
        self, serve_graph
    ):
        """``result()`` on a query in an open window waits on the clock:
        a manual clock moves to the window's close, then to the batch's
        completion, and the query is answered."""
        clock = ManualClock()
        clock.time = 1.0
        with ServingHandle(
            {"g": serve_graph}, scheduler_factory, **SINGLE_BROKER,
            batch_window=0.5, max_batch_size=8, clock=clock,
        ) as broker:
            pending = broker.submit(QueryRequest("bfs", "g", 3))
            assert not pending.done()
            response = pending.result()
            assert response.status is QueryStatus.OK
            # The batch closed at 1.5 and finished sim_seconds later.
            assert clock.time == pytest.approx(1.5 + response.sim_seconds)
        assert clock.time > 1.5
        assert response.latency_seconds == pytest.approx(
            0.5 + response.sim_seconds
        )
        oracle = run_direct(serve_graph, pending.request, scheduler_factory)
        assert_bit_identical(response.result, oracle.result)

    @pytest.mark.parametrize("seed", [5, 12, 17])
    @pytest.mark.parametrize("replicas", [1, 2], ids=["broker", "pool"])
    def test_handle_matches_the_replay(self, serve_graph, replicas, seed):
        requests, arrivals = _workload(serve_graph, n=32, seed=seed)
        config = _driver_config(replicas)
        replayed, _ = simulate_cluster_open_loop(
            {"g": serve_graph}, requests, arrivals, scheduler_factory,
            batch_window=DIFF_WINDOW, max_batch_size=DIFF_CAP, **config,
        )
        handled, _ = _play_on_handle(
            {"g": serve_graph}, requests, arrivals,
            batch_window=DIFF_WINDOW, max_batch_size=DIFF_CAP, **config,
        )

        for want, got in zip(replayed, handled):
            assert want.status is QueryStatus.OK, want
            assert got.status is QueryStatus.OK, got
        _assert_same_responses(handled, replayed)
        # Every admitted query is routed round-robin (one replica for
        # the broker), so query i rides replica i % replicas.
        replica_of = [i % replicas for i in range(len(requests))]
        partition = _batches(replayed, replica_of)
        assert _batches(handled, replica_of) == partition
        batches = [b for groups in partition.values() for b in groups]
        assert any(len(b) == DIFF_CAP for b in batches)
        assert any(
            len(b) < DIFF_CAP and arrivals[b[0]] + DIFF_WINDOW < arrivals[-1]
            for b in batches
        )

    @pytest.mark.parametrize("replicas", [1, 2], ids=["broker", "pool"])
    def test_handle_matches_the_replay_through_faults(
        self, serve_graph, replicas
    ):
        """One retry budget in the event loop: a flaky device gives the
        handle the same retries, errors and batches as the replay."""
        from .test_faults import FlakyExecutor

        requests, arrivals = _workload(serve_graph, n=24, seed=9)
        config = _driver_config(replicas)
        replayed, _ = simulate_cluster_open_loop(
            {"g": serve_graph}, requests, arrivals, scheduler_factory,
            batch_window=DIFF_WINDOW, max_batch_size=DIFF_CAP,
            executor=FlakyExecutor(scheduler_factory, failures=3), **config,
        )
        handled, _ = _play_on_handle(
            {"g": serve_graph}, requests, arrivals,
            batch_window=DIFF_WINDOW, max_batch_size=DIFF_CAP,
            executor=FlakyExecutor(scheduler_factory, failures=3), **config,
        )
        _assert_same_responses(handled, replayed)
        assert any(r.retries and r.status is QueryStatus.OK for r in handled)
        assert any(r.status is QueryStatus.ERROR for r in handled)
        for request, response in zip(requests, handled):
            assert_response_sound(response, serve_graph, request)

    @pytest.mark.parametrize("replicas", [1, 2], ids=["broker", "pool"])
    def test_handle_matches_the_replay_under_admission(
        self, serve_graph, replicas
    ):
        """A pinned concurrency limit under a burst sheds the same
        queries on both drivers."""
        requests, arrivals = _workload(serve_graph, n=32, seed=4, rate=5000.0)
        config = dict(
            _driver_config(replicas),
            admission=AdmissionConfig(max_concurrency=3, min_concurrency=3),
        )
        replayed, _ = simulate_cluster_open_loop(
            {"g": serve_graph}, requests, arrivals, scheduler_factory,
            batch_window=DIFF_WINDOW, max_batch_size=DIFF_CAP, **config,
        )
        handled, _ = _play_on_handle(
            {"g": serve_graph}, requests, arrivals,
            batch_window=DIFF_WINDOW, max_batch_size=DIFF_CAP, **config,
        )
        _assert_same_responses(handled, replayed)
        statuses = Counter(r.status for r in handled)
        assert statuses[QueryStatus.SHED] and statuses[QueryStatus.OK]

    @pytest.mark.parametrize("replicas", [1, 2], ids=["broker", "pool"])
    def test_handle_matches_the_replay_across_updates(
        self, serve_graph, replicas
    ):
        """Merges made through ``api.update`` at a handle's clock time
        land where the replay's scheduled updates do: same batches,
        same cache hits and the same graph version per response."""
        from repro import api

        requests, arrivals = _workload(serve_graph, n=32, seed=6, skew=True)
        rng = np.random.default_rng(6)
        times = [(arrivals[i] + arrivals[i + 1]) / 2 for i in (10, 20)]
        updates = [
            (float(t), "g",
             rng.integers(0, serve_graph.num_nodes, 8),
             rng.integers(0, serve_graph.num_nodes, 8))
            for t in times
        ]
        config = dict(_driver_config(replicas), cache_capacity=256)
        replay_graph = DynamicGraph(serve_graph)
        replayed, report = simulate_cluster_open_loop(
            {"g": replay_graph}, requests, arrivals, scheduler_factory,
            batch_window=DIFF_WINDOW, max_batch_size=DIFF_CAP,
            updates=updates, **config,
        )
        handle_graph = DynamicGraph(serve_graph)
        handled, handle = _play_on_handle(
            {"g": handle_graph}, requests, arrivals,
            batch_window=DIFF_WINDOW, max_batch_size=DIFF_CAP,
            updates=updates, apply=api.update, **config,
        )
        _assert_same_responses(handled, replayed)
        assert handle.graph_updates == 2
        assert handle_graph.epoch == replay_graph.epoch
        assert any(r.extras.get("cached") for r in handled)
