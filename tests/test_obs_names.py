"""Metric-name drift tests: one canonical registry, zero drift.

The :mod:`repro.obs.names` registry is the single source of truth for
every counter/gauge/span name the library emits.  These tests pin it
from three directions: the actual emit sites in ``src/repro`` (via the
SAGE002 lint rule), the derived name sets (sanitizer finding codes, the
bench carry-list), and the documentation.
"""

import ast
import pathlib
import re

from repro.analysis.lint import lint_paths
from repro.analysis.sanitizer import FINDING_CODES
from repro.obs import names

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


class TestEmitSitesResolve:
    def test_no_sage002_violations_in_src(self):
        """Every literal metric/span name in the library resolves."""
        violations = [
            v for v in lint_paths([SRC], ROOT) if v.rule == "SAGE002"
        ]
        assert violations == [], "\n".join(str(v) for v in violations)

    def test_engine_emits_exactly_the_sage_counters(self):
        """The engine's ``sage.*`` literals == the canonical list.

        A counter added to the engine without registering it (or
        registered without an emit site) is drift either way.
        """
        tree = ast.parse(
            (SRC / "core" / "engine.py").read_text(encoding="utf-8")
        )
        emitted = {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.startswith("sage.")
        }
        assert emitted == set(names.SAGE_COUNTERS)

    def test_sanitizer_counters_track_finding_codes(self):
        expected = {f"sanitizer.{code}" for code in FINDING_CODES} | {
            "sanitizer.findings",
            "sanitizer.levels_checked",
            "sanitizer.edges_checked",
            "sanitizer.kernels_checked",
        }
        assert set(names.SANITIZER_COUNTERS) == expected

    def test_serve_emits_exactly_the_registered_serve_names(self):
        """The service's emit sites == the ``serve.*`` registry, per kind.

        Only literal first arguments of metric-method calls are
        collected (``count``/``set_counter``/``set_gauge``/``span``), so
        docstrings mentioning metric names can't satisfy the test.
        """
        emitted: dict[str, set[str]] = {
            "count": set(), "set_counter": set(),
            "set_gauge": set(), "span": set(),
        }
        for path in sorted((SRC / "serve").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in emitted
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                    and node.args[0].value.startswith("serve.")
                ):
                    emitted[node.func.attr].add(node.args[0].value)
        counters = emitted["count"] | emitted["set_counter"]
        serve_spans = {s for s in names.SPANS if s.startswith("serve.")}
        assert counters == set(names.SERVE_COUNTERS)
        # The service reports its gauges under ``cluster.*``.
        assert emitted["set_gauge"] == set()
        assert emitted["span"] == serve_spans

    def test_cluster_emits_exactly_the_registered_cluster_names(self):
        """The cluster tier's emit sites == the ``cluster.*`` registry.

        Same AST collection as the serve drift test, scanned across all
        of ``repro/serve`` (the admission and cache collaborators emit
        cluster-namespaced counters too).
        """
        emitted: dict[str, set[str]] = {
            "count": set(), "set_counter": set(),
            "set_gauge": set(), "span": set(),
        }
        for path in sorted((SRC / "serve").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in emitted
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                    and node.args[0].value.startswith("cluster.")
                ):
                    emitted[node.func.attr].add(node.args[0].value)
        counters = emitted["count"] | emitted["set_counter"]
        cluster_spans = {s for s in names.SPANS if s.startswith("cluster.")}
        assert counters == set(names.CLUSTER_COUNTERS)
        assert emitted["set_gauge"] == set(names.CLUSTER_GAUGES)
        assert emitted["span"] == cluster_spans

    def test_tune_emits_exactly_the_registered_tune_names(self):
        """The tuner's emit sites == the ``tune.*`` registry, per kind.

        Same AST collection as the serve/cluster drift tests, scanned
        across all of ``repro/tune``.
        """
        emitted: dict[str, set[str]] = {
            "count": set(), "set_counter": set(),
            "set_gauge": set(), "span": set(),
        }
        for path in sorted((SRC / "tune").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in emitted
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                    and node.args[0].value.startswith("tune.")
                ):
                    emitted[node.func.attr].add(node.args[0].value)
        counters = emitted["count"] | emitted["set_counter"]
        tune_spans = {s for s in names.SPANS if s.startswith("tune.")}
        assert counters == set(names.TUNE_COUNTERS)
        assert emitted["set_gauge"] == set(names.TUNE_GAUGES)
        assert emitted["span"] == tune_spans

    def test_pipeline_emits_exactly_the_registered_pipeline_names(self):
        """The stream pipeline's emit sites == its registry slices.

        Scans all of ``repro/serve`` for ``pipeline.*`` / ``stream.*``
        literals (the core traversal pipeline owns the other
        ``pipeline.*`` counters and is pinned by SAGE002), so an
        executor/cluster metric added without registration — or
        registered without an emit site — fails either way.
        """
        emitted: dict[str, set[str]] = {
            "count": set(), "set_counter": set(),
            "set_gauge": set(), "span": set(),
        }
        for path in sorted((SRC / "serve").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in emitted
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                    and node.args[0].value.startswith(
                        ("pipeline.", "stream.")
                    )
                ):
                    emitted[node.func.attr].add(node.args[0].value)
        counters = emitted["count"] | emitted["set_counter"]
        pipeline_spans = {
            s for s in names.SPANS if s.startswith("pipeline.")
        }
        assert counters == set(
            names.PIPELINE_EXEC_COUNTERS | names.STREAM_COUNTERS
        )
        assert emitted["set_gauge"] == set(names.PIPELINE_GAUGES)
        assert emitted["span"] == pipeline_spans

    def test_sampling_emits_exactly_the_registered_sampling_names(self):
        """The executor's ``sampling.*`` literals == the registry.

        Same AST collection as the serve/cluster drift tests, scanned
        across all of ``repro/serve`` (the batch executor is the only
        emitter — the sampling apps themselves have no metrics handle).
        """
        emitted: dict[str, set[str]] = {
            "count": set(), "set_counter": set(),
            "set_gauge": set(), "span": set(),
        }
        for path in sorted((SRC / "serve").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in emitted
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                    and node.args[0].value.startswith("sampling.")
                ):
                    emitted[node.func.attr].add(node.args[0].value)
        counters = emitted["count"] | emitted["set_counter"]
        assert counters == set(names.SAMPLING_COUNTERS)
        assert emitted["set_gauge"] == set()
        assert emitted["span"] == set()

    def test_delta_emits_exactly_the_registered_delta_counters(self):
        """The delta plumbing's ``delta.*`` literals == the registry.

        Scans ``repro/serve`` and ``repro/graph`` — the store fan-out,
        the selective cache invalidation and the replica patcher are
        the only emitters (``DynamicGraph`` itself has no metrics
        handle; it reports through its store).
        """
        emitted = set()
        paths = sorted((SRC / "serve").glob("*.py")) + sorted(
            (SRC / "graph").glob("*.py")
        )
        for path in paths:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("count", "set_counter")
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                    and node.args[0].value.startswith("delta.")
                ):
                    emitted.add(node.args[0].value)
        assert emitted == set(names.DELTA_COUNTERS)

    def test_incremental_emits_exactly_the_registered_names(self):
        """The incremental engines' emit sites == the registry slices."""
        emitted: dict[str, set[str]] = {
            "count": set(), "set_counter": set(), "span": set(),
        }
        for path in sorted((SRC / "apps" / "incremental").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in emitted
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                    and node.args[0].value.startswith("incremental.")
                ):
                    emitted[node.func.attr].add(node.args[0].value)
        counters = emitted["count"] | emitted["set_counter"]
        incremental_spans = {
            s for s in names.SPANS if s.startswith("incremental.")
        }
        assert counters == set(names.INCREMENTAL_COUNTERS)
        assert emitted["span"] == incremental_spans

    def test_api_emits_exactly_the_registered_api_counters(self):
        """The facade's ``api.*`` literals == the canonical list."""
        tree = ast.parse((SRC / "api.py").read_text(encoding="utf-8"))
        emitted = {
            node.args[0].value
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "count"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        }
        assert emitted == set(names.API_COUNTERS)

    def test_bench_carry_list_is_registered(self):
        """The trajectory benchmark only carries registered counters."""
        source = (ROOT / "benchmarks" / "bench_trajectory.py").read_text(
            encoding="utf-8"
        )
        carried = set(re.findall(r'"((?:sage|ooc)\.[a-z_]+)"', source))
        assert carried, "carry-list not found in bench_trajectory.py"
        assert carried <= set(names.COUNTERS)


class TestRegistryStructure:
    def test_counters_is_the_union_of_subsystem_sets(self):
        union = (
            names.SAGE_COUNTERS
            | names.PIPELINE_COUNTERS
            | names.PIPELINE_EXEC_COUNTERS
            | names.STREAM_COUNTERS
            | names.REORDER_COUNTERS
            | names.OOC_COUNTERS
            | names.MULTIGPU_COUNTERS
            | names.SANITIZER_COUNTERS
            | names.SERVE_COUNTERS
            | names.CLUSTER_COUNTERS
            | names.SAMPLING_COUNTERS
            | names.DELTA_COUNTERS
            | names.INCREMENTAL_COUNTERS
            | names.API_COUNTERS
            | names.TUNE_COUNTERS
        )
        assert names.COUNTERS == union

    def test_gauges_is_the_union_of_subsystem_sets(self):
        assert names.GAUGES == (
            names.RUN_GAUGES
            | names.CLUSTER_GAUGES
            | names.TUNE_GAUGES
            | names.PIPELINE_GAUGES
        )

    def test_kinds_do_not_overlap(self):
        assert not names.COUNTERS & names.GAUGES

    def test_registered_names_report(self):
        report = names.registered_names()
        assert report["counters"] == names.COUNTERS
        assert report["gauges"] == names.GAUGES
        assert report["spans"] == names.SPANS


class TestPredicates:
    def test_static_lookups(self):
        assert names.is_counter("sage.tiles")
        assert names.is_counter("sanitizer.findings")
        assert names.is_gauge("run.gteps")
        assert names.is_span("iteration")
        assert not names.is_counter("sage.tiles_exploded")
        assert not names.is_gauge("sage.tiles")
        assert not names.is_span("iterashun")

    def test_dynamic_gpusim_family(self):
        assert names.is_counter("gpusim.kernels")
        assert names.is_counter("gpusim.event.steal_rounds")
        assert names.is_gauge("gpusim.lane_efficiency")

    def test_merge_namespace_is_stripped(self):
        assert names.is_counter("gpu0.sage.tiles")
        assert names.is_counter("gpu13.gpusim.kernels")
        assert not names.is_counter("gpu0.sage.tiles_exploded")
        # only one namespace level is stripped
        assert not names.is_counter("gpu0.gpu1.sage.tiles")

    def test_is_metric_union(self):
        assert names.is_metric("sage.tiles")
        assert names.is_metric("run.gteps")
        assert not names.is_metric("iteration")


class TestDocumentation:
    def test_design_documents_every_finding_code(self):
        design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
        for code in FINDING_CODES:
            assert code in design, f"{code} missing from DESIGN.md"

    def test_readme_documents_the_tools(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        assert "--sanitize" in readme
        assert "repro.analysis.lint" in readme
