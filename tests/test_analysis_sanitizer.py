"""Kernel hazard sanitizer tests.

Two halves of the contract:

* **detection** — every seeded hazard class is flagged with the right
  structured finding code;
* **cleanliness** — every workload of the perf-trajectory smoke suite
  passes with zero findings, and enabling the sanitizer leaves the
  simulated timing and the non-sanitizer metrics bit-identical.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.analysis import FINDING_CODES, Finding, Sanitizer
from repro.analysis.sanitizer import MAX_FINDINGS
from repro.apps import BFSApp, PageRankApp
from repro.cli import main
from repro.core import SageScheduler, TraversalPipeline
from repro.graph.generators import rmat
from repro.gpusim.cost import KernelBatch, KernelStats
from repro.obs import MetricsRegistry
from tests.conftest import load_bench_trajectory


def _run(graph, app, scheduler, **kwargs):
    return TraversalPipeline(graph, scheduler, **kwargs).run(app, 0)


def _begin(graph, app) -> Sanitizer:
    sanitizer = Sanitizer()
    sanitizer.begin_run(graph, app)
    return sanitizer


def _codes(findings: list[Finding]) -> list[str]:
    return [finding.code for finding in findings]


class TestSeededHazards:
    """Each hazard class, seeded directly into a check call."""

    def test_write_write_hazard_in_nonatomic_app(self, tiny_graph):
        sanitizer = _begin(tiny_graph, BFSApp())
        frontier = np.array([0, 1], dtype=np.int64)
        degrees = np.array([3, 2], dtype=np.int64)
        # destination 2 written twice inside node 0's work unit
        edge_dst = np.array([1, 2, 2, 3, 0], dtype=np.int64)
        found = sanitizer.check_level(0, frontier, degrees, edge_dst)
        assert "write_write_hazard" in _codes(found)
        hazard = next(f for f in found if f.code == "write_write_hazard")
        assert hazard.work_unit == 0
        assert hazard.details["destinations"] == [2]

    def test_cross_unit_duplicates_are_legitimate(self, tiny_graph):
        sanitizer = _begin(tiny_graph, BFSApp())
        frontier = np.array([0, 1], dtype=np.int64)
        degrees = np.array([2, 2], dtype=np.int64)
        # both units write 2 — concurrent units, not a hazard
        edge_dst = np.array([1, 2, 2, 3], dtype=np.int64)
        assert sanitizer.check_level(0, frontier, degrees, edge_dst) == []

    def test_atomic_app_tolerates_duplicates(self, tiny_graph):
        sanitizer = _begin(tiny_graph, PageRankApp())
        frontier = np.array([0], dtype=np.int64)
        degrees = np.array([3], dtype=np.int64)
        edge_dst = np.array([2, 2, 2], dtype=np.int64)
        assert sanitizer.check_level(0, frontier, degrees, edge_dst) == []

    def test_oob_vertex_index(self, tiny_graph):
        sanitizer = _begin(tiny_graph, BFSApp())
        frontier = np.array([0], dtype=np.int64)
        degrees = np.array([2], dtype=np.int64)
        edge_dst = np.array([1, 99], dtype=np.int64)  # 99 >= num_nodes
        found = sanitizer.check_level(0, frontier, degrees, edge_dst)
        assert "oob_vertex_index" in _codes(found)
        oob = next(f for f in found if f.code == "oob_vertex_index")
        assert 99 in oob.details["examples"]

    def test_oob_edge_index(self, tiny_graph):
        sanitizer = _begin(tiny_graph, BFSApp())
        frontier = np.array([0], dtype=np.int64)
        degrees = np.array([1], dtype=np.int64)
        edge_dst = np.array([1], dtype=np.int64)
        edge_pos = np.array([tiny_graph.num_edges + 5], dtype=np.int64)
        found = sanitizer.check_level(0, frontier, degrees, edge_dst, edge_pos)
        assert "oob_edge_index" in _codes(found)

    def test_dtype_overflow_on_narrowed_batch(self):
        # 16384 nodes: byte addresses at 4 B/value exceed int16's 32767
        graph = rmat(14, edge_factor=2, seed=3)
        sanitizer = Sanitizer()
        sanitizer.begin_run(graph, BFSApp())
        frontier = np.array([0], dtype=np.int64)
        degrees = np.array([1], dtype=np.int64)
        edge_dst = np.array([100], dtype=np.int16)
        found = sanitizer.check_level(0, frontier, degrees, edge_dst)
        assert "dtype_overflow" in _codes(found)

    def test_wide_dtype_does_not_overflow(self):
        graph = rmat(14, edge_factor=2, seed=3)
        sanitizer = Sanitizer()
        sanitizer.begin_run(graph, BFSApp())
        frontier = np.array([0], dtype=np.int64)
        degrees = np.array([1], dtype=np.int64)
        edge_dst = np.array([100], dtype=np.int64)
        assert sanitizer.check_level(0, frontier, degrees, edge_dst) == []

    def test_frontier_duplicates(self, tiny_graph):
        sanitizer = _begin(tiny_graph, BFSApp())
        frontier = np.array([1, 1, 2], dtype=np.int64)
        degrees = np.array([1, 1, 2], dtype=np.int64)
        edge_dst = np.array([2, 2, 0, 3], dtype=np.int64)
        found = sanitizer.check_level(0, frontier, degrees, edge_dst)
        assert "frontier_duplicates" in _codes(found)

    def test_nonmonotone_level_revisit(self, tiny_graph):
        sanitizer = _begin(tiny_graph, BFSApp())
        one = np.array([1], dtype=np.int64)
        sanitizer.check_level(0, np.array([0], dtype=np.int64), one, one)
        # node 0 settled at level 0; re-entering the frontier is flagged
        found = sanitizer.check_level(
            1, np.array([0], dtype=np.int64), one, one
        )
        assert "nonmonotone_level" in _codes(found)

    def test_invalid_permutation(self, tiny_graph):
        sanitizer = _begin(tiny_graph, BFSApp())
        sanitizer.check_commit(np.array([0, 0, 1, 2]), tiny_graph.num_nodes)
        assert _codes(sanitizer.findings) == ["invalid_permutation"]
        sanitizer.check_commit(np.array([3, 2, 1, 0]), tiny_graph.num_nodes)
        assert len(sanitizer.findings) == 1  # valid perm adds nothing

    def test_work_unit_gap(self, tiny_graph):
        sanitizer = _begin(tiny_graph, BFSApp())
        sanitizer.check_work_units(5, total_edges=6)
        assert _codes(sanitizer.findings) == ["work_unit_gap"]

    def test_kernel_stats_inconsistent(self, tiny_graph):
        sanitizer = _begin(tiny_graph, BFSApp())
        good = KernelStats(active_edges=4, issued_lane_cycles=4, concurrency_warps=1.0)
        bad = KernelStats(active_edges=10, issued_lane_cycles=5, concurrency_warps=1.0)
        sanitizer.check_kernel_batch(KernelBatch.of([good, bad, good]))
        assert sanitizer.kernels_checked == 3
        assert [(f.code, f.message) for f in sanitizer.findings] == [
            ("kernel_stats_inconsistent", "issued lanes (5) < active edges (10)")
        ]

    def test_scheduler_stack_audits_batches(self, tiny_graph):
        sanitizer = _begin(tiny_graph, BFSApp())
        scheduler = SageScheduler()
        scheduler.set_sanitizer(sanitizer)
        scheduler.stack([
            KernelStats(active_edges=4, issued_lane_cycles=8,
                        concurrency_warps=0.0)
        ])
        assert sanitizer.kernels_checked == 1
        assert "kernel_stats_inconsistent" in _codes(sanitizer.findings)

    def test_max_findings_caps_storage_not_counting(self, tiny_graph):
        sanitizer = Sanitizer()
        sanitizer.begin_run(tiny_graph, BFSApp())
        for _ in range(MAX_FINDINGS + 3):
            sanitizer.check_commit(np.array([0]), tiny_graph.num_nodes)
        assert len(sanitizer.findings) == MAX_FINDINGS
        assert sanitizer.total_findings == MAX_FINDINGS + 3
        assert not sanitizer.clean


class TestCleanRuns:
    """The real pipeline and suite produce zero findings."""

    def test_every_smoke_workload_is_clean(self):
        """Every traversal row of the smoke suite (the rows ``--sanitize``
        audits) runs clean."""
        bench = load_bench_trajectory()
        sanitizer = Sanitizer()
        graphs: dict = {}
        for tier in bench.TIERS:
            if not isinstance(tier, bench.TraversalTier):
                continue
            tier.run(True, graphs, sanitizer)
            assert sanitizer.clean, (
                f"{tier.name}: {sanitizer.format_summary()}"
            )
        assert sanitizer.levels_checked > 0
        assert sanitizer.kernels_checked > 0

    def test_reordering_run_is_clean(self, skewed_graph):
        sanitizer = Sanitizer()
        result = _run(
            skewed_graph, PageRankApp(max_iterations=10),
            SageScheduler(sampling_reorder=True), sanitizer=sanitizer,
        )
        assert sanitizer.clean, sanitizer.format_summary()
        assert result.iterations > 0

    @pytest.mark.parametrize("runner", ["sage-ooc", "subway"])
    @pytest.mark.parametrize("app", ["bfs", "pr"])
    def test_out_of_core_run_is_clean(self, skewed_graph, runner, app):
        """Each level's kernel is audited once, by the scheduler that
        built it."""
        from repro.outofcore.runners import SageOutOfCoreRunner, SubwayRunner

        sanitizer = Sanitizer()
        pricer = (SageOutOfCoreRunner(device_fraction=0.25) if runner == "sage-ooc"
                  else SubwayRunner())
        pricer.set_sanitizer(sanitizer)
        result = pricer.run(
            skewed_graph, BFSApp() if app == "bfs" else PageRankApp(max_iterations=5), 0
        )
        assert sanitizer.clean, sanitizer.format_summary()
        assert sanitizer.levels_checked > 0
        assert sanitizer.kernels_checked == result.iterations


class TestZeroPerturbation:
    """--sanitize must not move a single simulated number."""

    def test_timing_and_metrics_bit_identical(self, skewed_graph):
        plain = MetricsRegistry()
        sanitized = MetricsRegistry()
        # Each run gets its own (equal) graph object, so both start with
        # no cached node table and count the same table builds.
        r1 = _run(dataclasses.replace(skewed_graph), BFSApp(),
                  SageScheduler(), metrics=plain)
        r2 = _run(dataclasses.replace(skewed_graph), BFSApp(),
                  SageScheduler(), metrics=sanitized, sanitizer=Sanitizer())
        assert r1.seconds == r2.seconds
        assert r1.iterations == r2.iterations
        assert r1.edges_traversed == r2.edges_traversed
        np.testing.assert_array_equal(r1.result["dist"], r2.result["dist"])
        c1 = plain.report()["counters"]
        c2 = {k: v for k, v in sanitized.report()["counters"].items()
              if not k.startswith("sanitizer.")}
        assert c1 == c2

    def test_sanitizer_counters_flow_into_obs(self, skewed_graph):
        metrics = MetricsRegistry()
        _run(skewed_graph, BFSApp(), SageScheduler(),
             metrics=metrics, sanitizer=Sanitizer())
        counters = metrics.report()["counters"]
        assert counters["sanitizer.levels_checked"] > 0
        assert counters["sanitizer.edges_checked"] > 0
        assert counters["sanitizer.kernels_checked"] > 0

    def test_finding_counters_by_code(self, tiny_graph):
        metrics = MetricsRegistry()
        sanitizer = Sanitizer(metrics=metrics)
        sanitizer.begin_run(tiny_graph, BFSApp())
        sanitizer.check_commit(np.array([0]), tiny_graph.num_nodes)
        counters = metrics.report()["counters"]
        assert counters["sanitizer.findings"] == 1.0
        assert counters["sanitizer.invalid_permutation"] == 1.0


class TestReporting:
    def test_report_schema_and_json(self, tiny_graph, tmp_path):
        sanitizer = _begin(tiny_graph, BFSApp())
        sanitizer.check_commit(np.array([0]), tiny_graph.num_nodes)
        report = sanitizer.report()
        assert report["schema_version"] == 1
        assert report["clean"] is False
        assert report["counts_by_code"] == {"invalid_permutation": 1}
        path = sanitizer.write_json(tmp_path / "findings.json")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["findings"][0]["code"] == "invalid_permutation"

    def test_every_code_is_documented(self):
        for code, meaning in FINDING_CODES.items():
            assert code.replace("_", "").isalnum()
            assert meaning

    def test_format_summary_mentions_codes(self, tiny_graph):
        sanitizer = _begin(tiny_graph, BFSApp())
        sanitizer.check_commit(np.array([0]), tiny_graph.num_nodes)
        summary = sanitizer.format_summary()
        assert "FINDINGS" in summary
        assert "invalid_permutation" in summary


class TestCLI:
    def test_run_sanitize_clean(self, capsys):
        assert main(["run", "--dataset", "brain", "--scale", "0.05",
                     "--app", "bfs", "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "sanitizer:" in out
        assert "clean" in out

    def test_run_sanitize_report_written(self, tmp_path, capsys):
        report = tmp_path / "sanitizer.json"
        assert main(["run", "--dataset", "brain", "--scale", "0.05",
                     "--app", "bfs", "--sanitize-report",
                     str(report)]) == 0
        loaded = json.loads(report.read_text(encoding="utf-8"))
        assert loaded["clean"] is True
        assert loaded["levels_checked"] > 0

    def test_ligra_rejects_sanitize(self, capsys):
        assert main(["run", "--dataset", "brain", "--scale", "0.05",
                     "--app", "bfs", "--scheduler", "ligra",
                     "--sanitize"]) == 2

    def test_bench_trajectory_sanitize_flag(self, smoke_suite):
        assert smoke_suite.exit_code == 0, smoke_suite.output
        (line,) = [
            line
            for line in smoke_suite.output.splitlines()
            if line.startswith("sanitizer: clean")
        ]
        assert line.startswith(
            "sanitizer: clean on bfs_rmat, pagerank_rmat, sssp_rmat, "
            "bfs_rmat_outofcore, bfs_rmat_100k, pagerank_rmat_100k ("
        )
