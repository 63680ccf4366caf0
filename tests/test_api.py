"""The unified ``repro.api`` facade: one import, five verbs.

These tests pin the public surface (``import repro; repro.api``), the
facade's equivalence with the lower layers it wraps, and the ``api.*``
session counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.apps import BFSApp
from repro.core import SageScheduler, TraversalPipeline
from repro.errors import InvalidParameterError
from repro.graph import generators
from repro.obs import MetricsRegistry
from repro.serve import (
    ClusterBenchReport,
    ServingHandle,
    QueryRequest,
    QueryStatus,
)


@pytest.fixture(scope="module")
def graph():
    return generators.rmat(7, edge_factor=8, seed=11)


class TestSurface:
    def test_import_repro_exposes_the_facade(self):
        import repro

        for name in ("load_graph", "run", "serve", "cluster", "bench"):
            assert callable(getattr(repro.api, name)), name
        assert "api" in repro.__all__

    def test_registries_cover_cli_names(self):
        assert set(api.APPS) == {
            "bfs", "bc", "pr", "cc", "sssp", "lp",
            "walk", "node2vec", "khop", "sppr",
        }
        assert api.SOURCE_APPS <= set(api.APPS)
        assert set(api.SCHEDULERS) == {
            "sage", "sage-sr", "tpn", "b40c", "tigr", "gunrock",
        }


class TestLoadGraph:
    def test_by_name(self):
        graph = api.load_graph("twitter", scale=0.05)
        assert graph.num_nodes > 0

    def test_by_path(self, tmp_path):
        edges = tmp_path / "tiny.txt"
        edges.write_text("0 1\n1 2\n2 0\n", encoding="utf-8")
        graph = api.load_graph(path=str(edges))
        assert graph.num_nodes == 3

    def test_requires_name_or_path(self):
        with pytest.raises(InvalidParameterError):
            api.load_graph()


class TestRun:
    def test_matches_the_pipeline(self, graph):
        source = int(np.argmax(graph.out_degrees()))
        result = api.run(graph, "bfs", source=source)
        pipeline = TraversalPipeline(graph, SageScheduler())
        want = pipeline.run(BFSApp(), source)
        assert result.app == "bfs"
        assert result.seconds == want.seconds
        assert result.iterations == want.iterations
        np.testing.assert_array_equal(
            result.values["dist"], want.result["dist"]
        )
        assert result.raw is not None
        assert result.checks is None and result.clean

    def test_default_source_is_highest_degree(self, graph):
        auto = api.run(graph, "bfs")
        explicit = api.run(
            graph, "bfs", source=int(np.argmax(graph.out_degrees()))
        )
        np.testing.assert_array_equal(
            auto.values["dist"], explicit.values["dist"]
        )

    def test_checks_attach_a_clean_sanitizer(self, graph):
        result = api.run(graph, "bfs", checks=True)
        assert result.checks is not None
        assert result.checks.kernels_checked > 0
        assert result.clean

    def test_accepts_app_and_scheduler_objects(self, graph):
        result = api.run(graph, BFSApp(), scheduler=SageScheduler())
        assert result.app == "bfs"
        assert result.scheduler

    def test_result_is_frozen(self, graph):
        result = api.run(graph, "bfs")
        with pytest.raises(AttributeError):
            result.gteps = 0.0

    def test_unknown_names_rejected(self, graph):
        with pytest.raises(InvalidParameterError):
            api.run(graph, "dijkstra")
        with pytest.raises(InvalidParameterError):
            api.run(graph, "bfs", scheduler="cub")

    def test_counts_api_runs(self, graph):
        metrics = MetricsRegistry()
        api.run(graph, "bfs", metrics=metrics)
        assert metrics.report()["counters"]["api.runs"] == 1


class TestServeAndCluster:
    def test_serve_returns_a_live_broker(self, graph):
        metrics = MetricsRegistry()
        with api.serve(graph, batch_window=0.005,
                       metrics=metrics) as broker:
            assert isinstance(broker, ServingHandle)
            response = broker.submit(
                QueryRequest("bfs", "default", 0)
            ).result()
        assert response.status is QueryStatus.OK
        counters = metrics.report()["counters"]
        assert counters["api.serve_sessions"] == 1

    def test_cluster_returns_a_live_pool(self, graph):
        metrics = MetricsRegistry()
        with api.cluster(
            graph, num_replicas=2, batch_window=0.005, metrics=metrics
        ) as pool:
            assert isinstance(pool, ServingHandle)
            response = pool.submit(
                QueryRequest("bfs", "default", 0)
            ).result()
        assert response.status is QueryStatus.OK
        counters = metrics.report()["counters"]
        assert counters["api.cluster_sessions"] == 1


    def test_serve_pins_queue_capacity_as_its_concurrency_limit(self, graph):
        """Queries beyond ``queue_capacity`` outstanding are shed at the
        door; the ones admitted are answered exactly."""
        broker = api.serve(graph, batch_window=30.0, queue_capacity=2,
                           profile=None)
        pendings = broker.submit_many(
            [QueryRequest("bfs", "default", i) for i in range(5)]
        )
        shed = [p.result() for p in pendings[2:]]
        assert [r.status for r in shed] == [QueryStatus.SHED] * 3
        assert all("concurrency limit (2)" in r.error for r in shed)
        assert not any(p.done() for p in pendings[:2])
        broker.close(drain=False)
        queued = [p.result() for p in pendings[:2]]
        assert [r.error for r in queued] == [
            "service closed before execution"
        ] * 2

    def test_serve_rejects_an_empty_queue(self, graph):
        with pytest.raises(InvalidParameterError, match="queue_capacity"):
            api.serve(graph, queue_capacity=0)

    @pytest.mark.parametrize("verb, argument", [
        ("serve", "num_workers"), ("serve", "race_check"),
        ("cluster", "num_workers"), ("cluster", "race_check"),
        ("cluster", "queue_capacity"),
    ])
    def test_thread_era_arguments_are_gone(self, graph, verb, argument):
        """The handle starts no worker and has no race checker, and a
        cluster's admission limit is its only bound on outstanding
        work."""
        with pytest.raises(TypeError, match=argument):
            getattr(api, verb)(graph, **{argument: 1})


class TestBench:
    def test_single_broker_report(self, graph):
        report = api.bench(graph, num_queries=12, seed=3)
        assert isinstance(report, ClusterBenchReport)
        assert report.num_replicas == 1
        assert report.status_counts.get("ok") == 12
        assert report.baseline_seconds > 0  # the sequential oracle
        assert report.speedup_vs_baseline > 0

    def test_cluster_report_is_baselined(self, graph):
        report = api.bench(graph, num_queries=12, replicas=2, seed=3)
        assert isinstance(report, ClusterBenchReport)
        assert report.baseline_seconds > 0
        assert report.speedup_vs_baseline > 0

    @pytest.mark.parametrize("replicas, oracle_runs", [(0, 12), (1, 0)])
    def test_sequential_oracle_runs_only_where_reported(
        self, graph, monkeypatch, replicas, oracle_runs
    ):
        """The one-query-at-a-time oracle is the baseline of the single
        broker only; a cluster run is baselined on the single-broker
        replay and must not pay for the oracle."""
        from repro.serve import loadgen

        calls = []

        def counting_run_direct(*args, **kwargs):
            calls.append(args)
            return run_direct(*args, **kwargs)

        run_direct = loadgen.run_direct
        monkeypatch.setattr(loadgen, "run_direct", counting_run_direct)
        api.bench(graph, num_queries=12, replicas=replicas, seed=3)
        assert len(calls) == oracle_runs

    def test_deterministic(self, graph):
        a = api.bench(graph, num_queries=12, replicas=2, seed=3)
        b = api.bench(graph, num_queries=12, replicas=2, seed=3)
        assert a.to_dict() == b.to_dict()


class TestOneFrontDoor:
    """``serve`` is ``cluster``'s single-broker preset and ``bench``
    carries every knob of the two CLI bench commands."""

    def test_serve_counts_a_serve_and_a_cluster_session(self, graph):
        metrics = MetricsRegistry()
        with api.serve(graph, metrics=metrics, profile=None):
            pass
        counters = metrics.report()["counters"]
        assert counters["api.serve_sessions"] == 1
        assert counters["api.cluster_sessions"] == 1

    def test_negative_replicas_are_refused(self, graph):
        with pytest.raises(InvalidParameterError, match="replicas"):
            api.bench(graph, num_queries=4, replicas=-1)

    def test_hot_set_skew_reaches_the_cache(self, graph):
        plain = api.bench(graph, num_queries=32, replicas=2, seed=3)
        hot = api.bench(graph, num_queries=32, replicas=2, seed=3,
                        hot_set=1, hot_fraction=1.0)
        assert hot.cache_hits > plain.cache_hits

    def test_deadline_reaches_every_query(self, graph):
        report = api.bench(graph, num_queries=12, seed=3, deadline=1e-9)
        assert report.status_counts.get("ok", 0) < 12

    @pytest.mark.parametrize(
        "scheduler", ["sage", "sage-sr", "tigr", "gunrock"]
    )
    def test_audited_oracle_runs_are_the_baseline(self, scheduler):
        """At ``replicas=0`` the sanitized oracle runs sum to
        ``sequential_baseline``'s seconds bit for bit, so an audit never
        moves the baseline."""
        from repro.analysis import Sanitizer
        from repro.graph import datasets
        from repro.serve import generate_queries, sequential_baseline

        twitter = datasets.by_name("twitter", 0.05).graph
        factory = api.SCHEDULERS[scheduler]
        requests = generate_queries(
            "bench", twitter.num_nodes, 12, seed=0
        )
        sanitizer = Sanitizer()
        audited = sequential_baseline(
            twitter, requests, factory, sanitizer=sanitizer
        )
        assert audited == sequential_baseline(twitter, requests, factory)
        assert sanitizer.clean and sanitizer.levels_checked > len(requests)
        report = api.bench(twitter, num_queries=12, scheduler=scheduler,
                           sanitizer=Sanitizer())
        assert report.baseline_seconds == audited
