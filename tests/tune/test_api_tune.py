"""The facade: ``api.tune`` plus profile auto-loading in serve/cluster."""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.obs import MetricsRegistry
from repro.serve import GraphStore
from repro.tune import ProfileStore, get_workload

pytestmark = pytest.mark.tune

BUDGET = 6


@pytest.fixture(scope="module")
def workload():
    return get_workload("rmat_small")


@pytest.fixture(scope="module")
def tuned(workload, tmp_path_factory):
    """One committed-style profile in a temp store, plus its graph."""
    out = tmp_path_factory.mktemp("profiles")
    profile = api.tune(workload.name, budget=BUDGET, seed=0, out=str(out))
    return profile, out, workload.build_graph()


class TestTune:
    def test_writes_profile_and_trace(self, tmp_path, workload):
        metrics = MetricsRegistry()
        trace_path = tmp_path / "trace.json"
        profile = api.tune(
            workload.name,
            budget=BUDGET,
            seed=0,
            out=str(tmp_path),
            trace=str(trace_path),
            metrics=metrics,
        )
        stored = ProfileStore(tmp_path).load(tmp_path / "rmat_small.json")
        assert stored.canonical_json() == profile.canonical_json()
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        assert trace["workload"] == "rmat_small"
        assert trace["budget"] == BUDGET
        assert len(trace["rollouts"]) == BUDGET
        assert metrics.report()["counters"]["api.tune_runs"] == 1

    def test_equal_inputs_regenerate_byte_identically(self, workload):
        a = api.tune(workload.name, budget=BUDGET, seed=0)
        b = api.tune(workload.name, budget=BUDGET, seed=0)
        assert a.canonical_json() == b.canonical_json()


class TestAutoLoad:
    def test_serve_picks_up_a_matching_profile(self, tuned, monkeypatch):
        profile, out, graph = tuned
        monkeypatch.setenv("REPRO_PROFILE_DIR", str(out))
        metrics = MetricsRegistry()
        with api.serve(graph, metrics=metrics) as broker:
            assert broker.batch_window == profile.point.batch_window
            assert broker.max_batch_size == profile.point.max_batch_size
        counters = metrics.report()["counters"]
        assert counters["api.profiles_applied"] == 1

    @pytest.mark.parametrize("wrap", [
        lambda graph: graph,
        lambda graph: GraphStore({"default": graph}),
    ], ids=["graph", "store"])
    def test_cluster_picks_up_a_matching_profile(
        self, tuned, monkeypatch, wrap
    ):
        profile, out, graph = tuned
        monkeypatch.setenv("REPRO_PROFILE_DIR", str(out))
        metrics = MetricsRegistry()
        with api.cluster(wrap(graph), metrics=metrics) as pool:
            assert pool.routing == profile.point.routing
        assert metrics.report()["counters"]["api.profiles_applied"] == 1

    def test_explicit_arguments_beat_the_profile(self, tuned, monkeypatch):
        profile, out, graph = tuned
        monkeypatch.setenv("REPRO_PROFILE_DIR", str(out))
        with api.serve(graph, batch_window=0.3) as broker:
            assert broker.batch_window == 0.3
            # Unset knobs still come from the profile.
            assert broker.max_batch_size == profile.point.max_batch_size

    def test_profile_none_disables_auto_load(self, tuned, monkeypatch):
        _, out, graph = tuned
        monkeypatch.setenv("REPRO_PROFILE_DIR", str(out))
        metrics = MetricsRegistry()
        with api.serve(graph, profile=None, metrics=metrics) as broker:
            assert broker.batch_window == 0.01
        assert "api.profiles_applied" not in metrics.report()["counters"]

    def test_unmatched_graph_falls_back_to_defaults(
        self, tuned, monkeypatch
    ):
        _, out, _ = tuned
        monkeypatch.setenv("REPRO_PROFILE_DIR", str(out))
        from repro.graph.generators import grid_2d

        metrics = MetricsRegistry()
        with api.serve(grid_2d(5, 5), metrics=metrics) as broker:
            assert broker.batch_window == 0.01
        assert "api.profiles_applied" not in metrics.report()["counters"]

    def test_profile_path_loads_that_file(self, tuned):
        profile, out, graph = tuned
        path = str(out / "rmat_small.json")
        with api.serve(graph, profile=path) as broker:
            assert broker.batch_window == profile.point.batch_window

    def test_profile_instance_used_as_is(self, tuned):
        profile, _, graph = tuned
        with api.cluster(graph, profile=profile) as pool:
            assert pool.routing == profile.point.routing
