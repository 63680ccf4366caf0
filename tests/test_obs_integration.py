"""Cross-layer observability integration tests.

The contract under test: one run yields one hierarchical report whose
kernel-level totals match the simulator's :class:`Profiler` *exactly* —
the registry is a view over the same accounting, never a second
bookkeeper that can drift.  Covers the pipeline, the out-of-core and
multi-GPU runners, the CLI ``--emit-metrics`` golden path, and the
perf-trajectory harness CI gates on.
"""

import json

import numpy as np
import pytest

from repro import cli
from repro.apps import BFSApp
from repro.core import SageScheduler, run_app
from repro.graph import datasets
from repro.multigpu import MultiGpuRunner, chunk_partition
from repro.obs import (
    NULL_REGISTRY,
    PROFILER_COUNTER_FIELDS,
    MetricsRegistry,
    report_from_json,
)
from repro.outofcore.runners import SageOutOfCoreRunner
from tests.conftest import BENCH_DIR
from tests.test_runner_golden import RUNNERS
from tests.test_runner_golden import _graph as golden_graph


class TestPipelineInstrumentation:
    def test_kernel_totals_match_profiler_exactly(self, skewed_graph):
        metrics = MetricsRegistry()
        result = run_app(
            skewed_graph, BFSApp(), SageScheduler(), source=0,
            metrics=metrics,
        )
        profiler = result.profiler
        for name in PROFILER_COUNTER_FIELDS:
            assert metrics.counters[f"gpusim.{name}"] == float(
                getattr(profiler, name)
            ), name
        # The span tree carries the same cycles, kernel by kernel.
        run_span = metrics.roots[0]
        kernel_cycles = sum(
            span.values["cycles"]
            for _, span in run_span.walk()
            if span.name == "kernel"
        )
        assert kernel_cycles == pytest.approx(profiler.total_cycles)

    def test_span_hierarchy_shape(self, skewed_graph):
        metrics = MetricsRegistry()
        result = run_app(
            skewed_graph, BFSApp(), SageScheduler(), source=0,
            metrics=metrics,
        )
        run_span = metrics.roots[0]
        assert run_span.name == "run"
        assert run_span.attributes["app"] == "bfs"
        iterations = [
            child for child in run_span.children
            if child.name == "iteration"
        ]
        assert len(iterations) == result.iterations
        assert all(
            any(kernel.name == "kernel" for kernel in it.children)
            for it in iterations
        )

    def test_disabled_registry_changes_nothing(self, skewed_graph):
        observed = run_app(
            skewed_graph, BFSApp(), SageScheduler(), source=0,
            metrics=MetricsRegistry(),
        )
        plain = run_app(
            skewed_graph, BFSApp(), SageScheduler(), source=0,
            metrics=None,
        )
        np.testing.assert_array_equal(
            observed.result["dist"], plain.result["dist"]
        )
        assert observed.seconds == pytest.approx(plain.seconds)
        assert NULL_REGISTRY.roots == []

    def test_scheduler_counters_recorded(self, skewed_graph):
        metrics = MetricsRegistry()
        run_app(
            skewed_graph, BFSApp(), SageScheduler(), source=0,
            metrics=metrics,
        )
        assert metrics.counters["sage.tiles"] > 0
        assert (
            metrics.counters["sage.tiles_expanded"]
            + metrics.counters["sage.tiles_stolen_resident"]
            == metrics.counters["sage.tiles"]
        )


class TestOutOfCoreInstrumentation:
    def test_transfer_counters_match_extras(self, skewed_graph):
        metrics = MetricsRegistry()
        runner = SageOutOfCoreRunner(device_fraction=0.3, metrics=metrics)
        result = runner.run(skewed_graph, BFSApp(), 0)
        assert metrics.counters["ooc.bytes_transferred"] == result.extras[
            "bytes_transferred"
        ]
        assert metrics.counters["ooc.requests"] == result.extras["requests"]
        assert metrics.counters["gpusim.kernels"] == float(
            result.profiler.kernels
        )
        run_span = metrics.roots[-1]
        assert run_span.name == "ooc.run"
        per_iter = sum(
            span.values["transfer_bytes"]
            for _, span in run_span.walk()
            if span.name == "iteration"
        )
        assert per_iter == result.extras["bytes_transferred"]


class TestLevelTiming:
    """The loop reads every span's simulated time off the node trace."""

    # LigraRunner and direction_optimized_bfs take no registry, so they
    # record no spans.
    @pytest.mark.parametrize("runner", sorted(set(RUNNERS) - {"ligra", "dirop"}))
    def test_spans_carry_the_trace_times(self, runner):
        metrics = MetricsRegistry()
        result = RUNNERS[runner](golden_graph(), "bfs", metrics)
        run_span = metrics.roots[-1]
        assert run_span.values["simulated_seconds"] == result.seconds
        levels = [
            span for _, span in run_span.walk() if span.name == "iteration"
        ]
        assert len(levels) == result.iterations
        assert sum(
            span.values["iteration_seconds"] for span in levels
        ) == pytest.approx(result.seconds)
        transfers = [span.values.get("transfer_seconds") for span in levels]
        if "transfer_seconds" in result.extras:
            assert sum(transfers) == pytest.approx(
                result.extras["transfer_seconds"]
            )
        else:
            assert transfers == [None] * len(levels)


class TestMultiGpuRegistryMerge:
    def test_merged_counters_match_merged_profiler(self, skewed_graph):
        metrics = MetricsRegistry()
        runner = MultiGpuRunner(
            SageScheduler,
            chunk_partition(skewed_graph.num_nodes, 2),
            num_gpus=2,
            metrics=metrics,
        )
        result = runner.run(skewed_graph, BFSApp(), 0)
        merged = result.profiler
        # The per-device registries were folded and merged under gpu<i>.*
        per_gpu = [
            metrics.counters.get(f"gpu{gpu}.gpusim.total_cycles", 0.0)
            for gpu in range(2)
        ]
        assert sum(per_gpu) == pytest.approx(merged.total_cycles)
        assert all(cycles > 0 for cycles in per_gpu)
        # ... and the combined leaf fold matches the merged profiler.
        for name in PROFILER_COUNTER_FIELDS:
            assert metrics.counters[f"gpusim.{name}"] == float(
                getattr(merged, name)
            ), name
        assert metrics.counters["multigpu.iterations"] == result.iterations


class TestCliGolden:
    """``repro run --emit-metrics`` exports the gpusim counters that
    tests/test_scheduler_accounting.py pins at the scheduler level."""

    ARGS = ["--dataset", "twitter", "--scale", "0.05", "--app", "bfs"]

    def test_emit_metrics_matches_equivalent_run(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        rc = cli.main(
            ["run", *self.ARGS, "--emit-metrics", str(out)]
        )
        assert rc == 0
        assert "metrics exported" in capsys.readouterr().out
        report = report_from_json(out.read_text(encoding="utf-8"))

        # Re-run the identical (fully deterministic) configuration
        # through the API and demand exact counter equality.
        graph = datasets.by_name("twitter", 0.05).graph
        source = int(np.argmax(graph.out_degrees()))
        result = run_app(graph, BFSApp(), SageScheduler(), source=source)
        profiler = result.profiler
        counters = report["counters"]
        for name in PROFILER_COUNTER_FIELDS:
            assert counters[f"gpusim.{name}"] == float(
                getattr(profiler, name)
            ), name
        # The identities the accounting tests rely on hold in the export.
        assert counters["gpusim.active_edges"] <= counters[
            "gpusim.issued_lane_cycles"
        ]
        assert report["gauges"]["gpusim.lane_efficiency"] == pytest.approx(
            counters["gpusim.active_edges"]
            / counters["gpusim.issued_lane_cycles"]
        )
        assert counters["pipeline.iterations"] == result.iterations

    def test_report_subcommand_renders(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        cli.main(["run", *self.ARGS, "--emit-metrics", str(out)])
        capsys.readouterr()
        rc = cli.main(["report", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "gpusim.total_cycles" in text
        assert "run [app=bfs" in text


def _simulated(payload):
    """Every row value except wall time (host timing, never gated)."""
    return {
        name: {k: v for k, v in row.items() if k != "wall_seconds"}
        for name, row in payload["workloads"].items()
    }


class TestBenchTrajectory:
    @pytest.fixture
    def suite(self, smoke_suite):
        assert smoke_suite.exit_code == 0, smoke_suite.output
        return smoke_suite.payload

    @pytest.fixture
    def tiers(self, smoke_suite):
        return {
            tier.name: tier for tier in smoke_suite.bench.TIERS
            if tier.floor_key is not None
        }

    def _floor_holds(self, suite, tiers, name):
        tier = tiers[name]
        row = suite["workloads"][name]
        assert row[tier.floor_key] >= tier.floor
        return row

    def test_smoke_suite_is_deterministic(self, smoke_suite, suite):
        """A plain re-run equals the sanitized session run, value for
        value: the suite is deterministic and auditing moves nothing."""
        bench = smoke_suite.bench
        assert _simulated(bench.run_suite(smoke=True)) == _simulated(suite)
        assert set(suite["workloads"]) == {
            "bfs_rmat", "pagerank_rmat", "sssp_rmat", "bfs_rmat_outofcore",
            "bfs_rmat_100k", "pagerank_rmat_100k", "serve_openloop",
            "sampling_openloop", "cluster_openloop", "pipeline_openloop",
            "dynamic_stream", "tuned_vs_default",
        }
        for row in suite["workloads"].values():
            # The serving row carries only the metrics that exist for a
            # batched service (no per-kernel cycle counts).
            for metric in ("total_cycles", "simulated_seconds", "dram_bytes", "kernels"):
                if metric in row:
                    assert row[metric] > 0

    def test_serving_tier_meets_speedup_floor(self, suite, tiers):
        row = self._floor_holds(suite, tiers, "serve_openloop")
        assert row["serve_batch_occupancy_mean"] >= 8.0
        assert row["simulated_seconds"] > 0

    def test_sampling_tier_meets_speedup_floor(self, suite, tiers):
        row = self._floor_holds(suite, tiers, "sampling_openloop")
        assert row["sampling_batch_occupancy_mean"] >= 2.0
        assert row["simulated_seconds"] > 0

    def test_cluster_tier_meets_speedup_floor(self, suite, tiers):
        row = self._floor_holds(suite, tiers, "cluster_openloop")
        assert row["cluster_cache_hit_ratio"] > 0.5
        assert row["simulated_seconds"] > 0

    def test_dynamic_tier_meets_speedup_floor(self, suite, tiers):
        row = self._floor_holds(suite, tiers, "dynamic_stream")
        assert row["dynamic_repairs"] > 0
        assert row["simulated_seconds"] > 0

    def test_floor_gate_trips_on_every_tier(self, smoke_suite, suite, tiers):
        bench = smoke_suite.bench
        assert bench.check_floors(suite) == []
        assert set(tiers) == {
            "serve_openloop", "sampling_openloop", "cluster_openloop",
            "pipeline_openloop", "dynamic_stream", "tuned_vs_default",
        }
        for tier in tiers.values():
            below = json.loads(json.dumps(suite))
            below["workloads"][tier.name][tier.floor_key] = tier.floor / 2
            failures = bench.check_floors(below)
            assert len(failures) == 1
            assert failures[0].startswith(f"{tier.name}:")

    def test_committed_baseline_is_current(self, suite):
        # The committed BENCH_repro.json must match what this revision
        # produces in every simulated value — CI's perf gate depends on
        # it being fresh.  Deterministic metrics are compared at float
        # noise, not within the gate's tolerance.
        baseline_path = BENCH_DIR.parent / "BENCH_repro.json"
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        assert baseline["suite"] == suite["suite"]
        committed, current = _simulated(baseline), _simulated(suite)
        assert set(committed) == set(current)
        for name, row in committed.items():
            assert set(row) == set(current[name]), name
            for key, value in row.items():
                assert current[name][key] == pytest.approx(
                    value, rel=1e-9, abs=0.0
                ), f"{name}.{key}"

    def test_gate_detects_regression(self, smoke_suite, suite):
        bench = smoke_suite.bench
        slower = json.loads(json.dumps(suite))
        slower["workloads"]["bfs_rmat"]["total_cycles"] *= 1.5
        failures = bench.check_regression(slower, suite, tolerance=0.20)
        assert len(failures) == 1
        assert "bfs_rmat.total_cycles" in failures[0]

    def test_gate_rejects_suite_mismatch(self, smoke_suite, suite):
        bench = smoke_suite.bench
        other = {"suite": "full", "workloads": {}}
        failures = bench.check_regression(suite, other, tolerance=0.20)
        assert failures and "suite mismatch" in failures[0]
