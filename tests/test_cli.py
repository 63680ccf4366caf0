"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.errors import InvalidParameterError
from repro.graph import datasets, io


class TestInfo:
    def test_dataset_info(self, capsys):
        assert main(["info", "--dataset", "brain", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "avg degree" in out
        assert "sector span" in out

    def test_file_info(self, tmp_path, capsys, tiny_graph):
        path = tmp_path / "g.txt"
        io.write_edge_list(tiny_graph, path)
        assert main(["info", "--file", str(path)]) == 0
        assert "|V|=4" in capsys.readouterr().out


class TestGenerate:
    def test_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "twitter.txt"
        assert main(["generate", "--dataset", "twitter", "--scale", "0.05",
                     "--out", str(out)]) == 0
        graph = io.read_edge_list(out)
        expected = datasets.by_name("twitter", 0.05).graph
        assert graph.num_edges == expected.num_edges


class TestRun:
    @pytest.mark.parametrize("app", ["bfs", "pr", "cc"])
    def test_apps(self, app, capsys):
        assert main(["run", "--dataset", "ljournal", "--scale", "0.05",
                     "--app", app]) == 0
        out = capsys.readouterr().out
        assert "traversal speed" in out

    @pytest.mark.parametrize("scheduler", ["sage", "tpn", "gunrock",
                                           "ligra"])
    def test_schedulers(self, scheduler, capsys):
        assert main(["run", "--dataset", "brain", "--scale", "0.05",
                     "--app", "bfs", "--scheduler", scheduler]) == 0

    def test_explicit_source(self, capsys):
        assert main(["run", "--dataset", "brain", "--scale", "0.05",
                     "--app", "bfs", "--source", "3"]) == 0
        assert "source 3" in capsys.readouterr().out

    def test_reorder_commits_reported(self, capsys):
        assert main(["run", "--dataset", "twitter", "--scale", "0.1",
                     "--app", "pr", "--scheduler", "sage-sr"]) == 0


class TestReorder:
    @pytest.mark.parametrize("method", ["rcm", "degree", "random", "sage"])
    def test_methods(self, method, capsys):
        assert main(["reorder", "--dataset", "twitter", "--scale", "0.05",
                     "--method", method, "--rounds", "2"]) == 0
        assert "sector span" in capsys.readouterr().out


class TestSCCCommand:
    def test_scc(self, capsys):
        assert main(["scc", "--dataset", "ljournal", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "components" in out


class TestExperiment:
    def test_table1(self, capsys):
        assert main(["experiment", "table1", "--scale", "0.05"]) == 0
        assert "dataset" in capsys.readouterr().out

    def test_unknown_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table99"])


class TestServeBench:
    def test_open_loop_deterministic(self, capsys):
        args = ["serve-bench", "--dataset", "twitter", "--scale", "0.05",
                "--queries", "16", "--rate", "300", "--seed", "7",
                "--batch-window", "0.05"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first  # virtual time: exact
        assert "speedup vs 1-at-a-time" in first
        assert "ok=16" in first

    def test_open_loop_emits_serve_gauges(self, tmp_path, capsys):
        import json

        out = tmp_path / "serve.json"
        assert main(["serve-bench", "--dataset", "twitter", "--scale",
                     "0.05", "--queries", "12", "--rate", "500",
                     "--mix", "bfs=1.0", "--emit-metrics", str(out)]) == 0
        gauges = json.loads(out.read_text())["gauges"]
        # The open loop is the single-broker replay of the cluster tier.
        assert gauges["cluster.speedup_vs_baseline"] > 0.0
        assert gauges["cluster.latency_p50"] > 0.0
        assert gauges["cluster.cache_hit_ratio"] == 0.0

    @pytest.mark.parametrize("command", ["serve-bench", "cluster-bench"])
    def test_nan_rate_is_rejected(self, command):
        """``--rate nan`` is refused before any arrival is drawn."""
        with pytest.raises(InvalidParameterError, match="rate_qps"):
            main([command, "--dataset", "twitter", "--scale", "0.05",
                  "--queries", "4", "--rate", "nan"])


    @pytest.mark.parametrize("flag", [
        ["--mode", "closed"], ["--concurrency", "4"], ["--workers", "2"],
        ["--race-check"], ["--race-report", "races.json"],
    ], ids=lambda flag: flag[0])
    def test_thread_era_flags_are_gone(self, flag, capsys):
        """The bench replays an open loop in virtual time only: the
        closed-loop and race-checking flags are refused."""
        with pytest.raises(SystemExit) as exit_info:
            main(["serve-bench", "--dataset", "twitter", "--scale", "0.05",
                  "--queries", "4", *flag])
        assert exit_info.value.code == 2
        assert flag[0] in capsys.readouterr().err


class TestClusterBench:
    def test_deterministic_and_reports_speedup(self, capsys):
        args = ["cluster-bench", "--dataset", "twitter", "--scale",
                "0.05", "--queries", "16", "--rate", "100",
                "--replicas", "2", "--seed", "7"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first  # virtual time: exact
        assert "speedup vs single broker" in first
        assert "ok=16" in first
        assert "cache" in first

    def test_emits_cluster_gauges(self, tmp_path):
        import json

        out = tmp_path / "cluster.json"
        assert main(["cluster-bench", "--dataset", "twitter", "--scale",
                     "0.05", "--queries", "12", "--rate", "100",
                     "--emit-metrics", str(out)]) == 0
        report = json.loads(out.read_text())
        gauges = report["gauges"]
        assert gauges["cluster.speedup_vs_baseline"] > 0.0
        assert 0.0 <= gauges["cluster.cache_hit_ratio"] <= 1.0
        assert report["counters"]["cluster.requests"] == 12

    def test_rate_limit_throttles(self, capsys):
        assert main(["cluster-bench", "--dataset", "twitter", "--scale",
                     "0.05", "--queries", "16", "--rate", "400",
                     "--rate-limit", "10", "--burst", "2"]) == 0
        out = capsys.readouterr().out
        assert "throttled" in out
        assert "ok=16" not in out  # some queries were shed

    def test_sanitize_audits_the_oracle(self, capsys):
        assert main(["cluster-bench", "--dataset", "twitter", "--scale",
                     "0.05", "--queries", "8", "--sanitize"]) == 0
        assert "sanitizer (oracle runs): clean" in capsys.readouterr().out


class TestSharedFlagFamily:
    """``run``/``serve-bench``/``cluster-bench`` share one flag parent.

    The parser is the contract: every command in the family accepts the
    same spelling of the shared flags, so scripts can swap subcommands
    without re-learning the options.
    """

    FAMILY = ("run", "serve-bench", "cluster-bench")
    SHARED = ("--emit-metrics", "--sanitize", "--sanitize-report",
              "--seed")

    def _options(self, command):
        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if hasattr(a, "choices") and command in (a.choices or {})
        )
        return {
            opt
            for action in sub.choices[command]._actions
            for opt in action.option_strings
        }

    @pytest.mark.parametrize("command", FAMILY)
    def test_every_family_member_accepts_the_shared_flags(self, command):
        options = self._options(command)
        for flag in self.SHARED:
            assert flag in options, f"{command} lacks {flag}"

    def test_seed_changes_the_run_source(self, capsys):
        assert main(["run", "--dataset", "brain", "--scale", "0.05",
                     "--app", "bfs", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["run", "--dataset", "brain", "--scale", "0.05",
                     "--app", "bfs", "--seed", "3"]) == 0
        assert capsys.readouterr().out == first  # seeded => reproducible

    def test_sanitize_report_implies_sanitize(self, tmp_path):
        import json

        report = tmp_path / "findings.json"
        assert main(["run", "--dataset", "brain", "--scale", "0.05",
                     "--app", "bfs", "--sanitize-report",
                     str(report)]) == 0
        assert json.loads(report.read_text())["clean"] is True
