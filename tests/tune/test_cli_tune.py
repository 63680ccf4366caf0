"""The ``repro tune`` subcommand: generate, verify, and the CI contract."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main
from repro.serve.cache import graph_fingerprint
from repro.tune import BENCH_WORKLOADS, ProfileStore, TuningPoint, get_workload

pytestmark = pytest.mark.tune

PROFILES_DIR = pathlib.Path(__file__).resolve().parents[2] / "profiles"


class TestGenerate:
    def test_single_workload_writes_a_profile(self, tmp_path, capsys):
        code = main(["tune", "--workload", "rmat_small", "--budget", "6",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "tuned rmat_small (rmat)" in out
        assert "speedup" in out
        profile = ProfileStore(tmp_path).load(tmp_path / "rmat_small.json")
        assert profile.budget == 6
        assert profile.workload == "rmat_small"

    def test_trace_flag_writes_per_workload_traces(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        assert main(["tune", "--workload", "rmat_small", "--budget", "4",
                     "--trace", str(trace_dir)]) == 0
        payload = json.loads(
            (trace_dir / "rmat_small.trace.json").read_text("utf-8")
        )
        assert len(payload["rollouts"]) == 4

    def test_emit_metrics(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert main(["tune", "--workload", "rmat_small", "--budget", "4",
                     "--emit-metrics", str(metrics_path)]) == 0
        counters = json.loads(metrics_path.read_text("utf-8"))["counters"]
        assert counters["tune.searches"] == 1
        assert counters["tune.rollouts"] == 4


class TestVerify:
    def test_verify_matches_after_generate(self, tmp_path, capsys):
        assert main(["tune", "--workload", "rmat_small", "--budget", "6",
                     "--out", str(tmp_path)]) == 0
        assert main(["tune", "--verify", str(tmp_path)]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_verify_detects_a_tampered_profile(self, tmp_path, capsys):
        assert main(["tune", "--workload", "rmat_small", "--budget", "6",
                     "--out", str(tmp_path)]) == 0
        path = tmp_path / "rmat_small.json"
        data = json.loads(path.read_text("utf-8"))
        data["point"]["batch_window"] = 123.0
        path.write_text(
            json.dumps(data, sort_keys=True, indent=2) + "\n", "utf-8"
        )
        assert main(["tune", "--verify", str(tmp_path)]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_verify_empty_dir_is_an_error(self, tmp_path, capsys):
        assert main(["tune", "--verify", str(tmp_path)]) == 2


class TestCommittedProfiles:
    """The repo's own profiles/ directory stays loadable and fresh."""

    def test_one_committed_profile_per_bench_workload(self):
        store = ProfileStore(PROFILES_DIR)
        names = {path.stem for path in store.list()}
        assert names == {w.name for w in BENCH_WORKLOADS}

    def test_committed_fingerprints_match_the_workload_graphs(self):
        # A failure here means a graph generator changed: rerun
        # `python -m repro tune --out profiles` and commit the result.
        store = ProfileStore(PROFILES_DIR)
        for path in store.list():
            profile = store.load(path)
            workload = get_workload(profile.workload)
            assert profile.graph_fingerprint == graph_fingerprint(
                workload.build_graph()
            ), path.name

    def test_committed_profiles_claim_a_real_speedup(self):
        store = ProfileStore(PROFILES_DIR)
        for path in store.list():
            profile = store.load(path)
            assert profile.speedup > 1.0, path.name
            assert profile.point != TuningPoint(), path.name
