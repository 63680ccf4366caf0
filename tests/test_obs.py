"""Unit tests for the observability layer (repro.obs).

Covers span nesting and exception safety, counter/gauge semantics,
thread safety, registry merging, the profiler fold contract, and the
JSON / line-protocol exporters.
"""

import dataclasses
import json
import threading

import numpy as np
import pytest

from repro.gpusim.cost import KernelBatch, KernelBatchTiming, KernelStats
from repro.gpusim.profiler import Profiler
from repro.obs import (
    NULL_REGISTRY,
    NULL_SPAN,
    PROFILER_COUNTER_FIELDS,
    MetricsRegistry,
    format_report,
    report_from_json,
    report_to_dict,
    to_json,
    to_line_protocol,
    write_json,
)


def make_profiler(cycles: float = 100.0, kernels: int = 2) -> Profiler:
    profiler = Profiler()
    stats = KernelStats(
        active_edges=10, issued_lane_cycles=10,
        value_sector_touches=4, value_sector_unique=4,
        csr_sector_touches=2, concurrency_warps=8.0,
    )
    def column(value: float) -> np.ndarray:
        return np.full(kernels, value)

    timing = KernelBatchTiming(
        cycles=column(cycles), compute_cycles=column(cycles / 2),
        memory_cycles=column(cycles / 2), overhead_cycles=column(0.0),
        launch_cycles=0.0, dram_bytes=column(256.0),
        memory_bound=np.ones(kernels, dtype=bool),
    )
    profiler.record_batch(KernelBatch.of([stats] * kernels), timing)
    return profiler


class TestSpans:
    def test_nesting_builds_tree(self):
        registry = MetricsRegistry()
        with registry.span("run", app="bfs"):
            with registry.span("iteration", index=0):
                with registry.span("kernel") as kernel:
                    kernel.set("cycles", 42.0)
            with registry.span("iteration", index=1):
                pass
        roots = registry.roots
        assert len(roots) == 1
        run = roots[0]
        assert run.name == "run"
        assert [child.name for child in run.children] == [
            "iteration", "iteration",
        ]
        assert run.children[0].children[0].values["cycles"] == 42.0

    def test_walk_paths(self):
        registry = MetricsRegistry()
        with registry.span("run"):
            with registry.span("iteration"):
                with registry.span("kernel"):
                    pass
        paths = [path for path, _ in registry.roots[0].walk()]
        assert paths == ["run", "run/iteration", "run/iteration/kernel"]

    def test_exception_safety(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="boom"):
            with registry.span("run"):
                with registry.span("iteration"):
                    raise ValueError("boom")
        roots = registry.roots
        assert len(roots) == 1
        assert "error" in roots[0].attributes
        assert roots[0].children[0].attributes["error"] == "ValueError: boom"
        # The stack fully unwound: a new span is again a root.
        with registry.span("after"):
            pass
        assert [r.name for r in registry.roots] == ["run", "after"]

    def test_values_add_and_set(self):
        registry = MetricsRegistry()
        with registry.span("s") as span:
            span.add("bytes", 10)
            span.add("bytes", 5)
            span.set("cycles", 7)
            span.set("cycles", 9)
        assert registry.roots[0].values == {"bytes": 15.0, "cycles": 9.0}

    def test_wall_duration_measured(self):
        registry = MetricsRegistry()
        with registry.span("s"):
            pass
        assert registry.roots[0].duration_s >= 0.0


class TestRegistryScalars:
    def test_count_accumulates(self):
        registry = MetricsRegistry()
        registry.count("x")
        registry.count("x", 4)
        assert registry.counters["x"] == 5.0

    def test_set_counter_snapshots(self):
        registry = MetricsRegistry()
        registry.set_counter("x", 3.0)
        registry.set_counter("x", 3.0)
        assert registry.counters["x"] == 3.0

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("g", 1.0)
        registry.set_gauge("g", 2.0)
        assert registry.gauges["g"] == 2.0

    def test_thread_safety(self):
        registry = MetricsRegistry()

        def work():
            for _ in range(500):
                registry.count("hits")
            with registry.span("root"):
                with registry.span("child"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counters["hits"] == 8 * 500
        roots = registry.roots
        # Per-thread stacks: each thread publishes its own intact tree.
        assert len(roots) == 8
        assert all(len(root.children) == 1 for root in roots)


class TestDisabledRegistry:
    def test_span_is_shared_null_object(self):
        registry = MetricsRegistry(enabled=False)
        # Structural zero-cost: no allocation, the same object every time.
        assert registry.span("a") is NULL_SPAN
        assert registry.span("b", attr=1) is NULL_SPAN

    def test_null_span_is_inert_context_manager(self):
        with NULL_REGISTRY.span("x") as span:
            span.set("k", 1.0)
            span.add("k", 1.0)
        assert NULL_REGISTRY.roots == []
        assert NULL_REGISTRY.counters == {}

    def test_scalars_not_recorded(self):
        registry = MetricsRegistry(enabled=False)
        registry.count("x")
        registry.set_gauge("g", 1.0)
        registry.fold_profiler(make_profiler())
        assert registry.counters == {}
        assert registry.gauges == {}


class TestProfilerFold:
    def test_fold_matches_profiler_exactly(self):
        profiler = make_profiler(cycles=123.0, kernels=3)
        registry = MetricsRegistry()
        registry.fold_profiler(profiler)
        for name in PROFILER_COUNTER_FIELDS:
            assert registry.counters[f"gpusim.{name}"] == float(
                getattr(profiler, name)
            ), name
        assert registry.gauges["gpusim.lane_efficiency"] == pytest.approx(
            profiler.lane_efficiency
        )

    def test_fold_is_idempotent(self):
        profiler = make_profiler()
        registry = MetricsRegistry()
        registry.fold_profiler(profiler)
        once = dict(registry.counters)
        registry.fold_profiler(profiler)
        assert registry.counters == once

    def test_field_list_tracks_profiler_dataclass(self):
        # Guards PROFILER_COUNTER_FIELDS against drift when Profiler
        # grows a counter: every non-event field must be mirrored.
        fields = {field.name for field in dataclasses.fields(Profiler)}
        assert set(PROFILER_COUNTER_FIELDS) == fields - {"events"}


class TestMerge:
    def test_merge_sums_counters(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.count("x", 1)
        b.count("x", 2)
        b.count("y", 5)
        a.merge(b)
        assert a.counters == {"x": 3.0, "y": 5.0}

    def test_merge_with_prefix_namespaces(self):
        main = MetricsRegistry()
        gpu = MetricsRegistry()
        gpu.count("gpusim.kernels", 4)
        gpu.set_gauge("gpusim.lane_efficiency", 0.5)
        with gpu.span("kernel"):
            pass
        main.merge(gpu, prefix="gpu0.")
        assert main.counters["gpu0.gpusim.kernels"] == 4.0
        assert main.gauges["gpu0.gpusim.lane_efficiency"] == 0.5
        assert [root.name for root in main.roots] == ["kernel"]

    def test_merge_into_disabled_is_noop(self):
        main = MetricsRegistry(enabled=False)
        other = MetricsRegistry()
        other.count("x")
        main.merge(other)
        assert main.counters == {}


class TestExporters:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.count("pipeline.runs")
        registry.set_gauge("gpusim.lane_efficiency", 0.75)
        with registry.span("run", app="bfs") as run:
            run.set("iterations", 3)
            with registry.span("iteration", index=0) as it:
                it.set("kernel_cycles", 10.5)
        return registry

    def test_json_round_trip(self):
        registry = self._populated()
        report = report_from_json(to_json(registry))
        assert report == json.loads(json.dumps(report_to_dict(registry)))
        assert report["counters"]["pipeline.runs"] == 1.0
        assert report["spans"][0]["children"][0]["values"][
            "kernel_cycles"
        ] == 10.5
        assert report["schema_version"] == 1

    def test_write_json(self, tmp_path):
        registry = self._populated()
        path = write_json(registry, tmp_path / "metrics.json")
        on_disk = report_from_json(path.read_text(encoding="utf-8"))
        assert on_disk == report_to_dict(registry)

    def test_line_protocol(self):
        lines = to_line_protocol(self._populated())
        assert "repro_counter,name=pipeline.runs value=1.0" in lines
        assert any(
            line.startswith("repro_span,path=run/iteration ")
            and "kernel_cycles=10.5" in line
            for line in lines
        )

    def test_format_report_renders(self):
        text = format_report(report_to_dict(self._populated()))
        assert "pipeline.runs" in text
        assert "run [app=bfs]" in text
        assert "iteration" in text
