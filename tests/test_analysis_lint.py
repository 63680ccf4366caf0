"""SAGE lint tests: rules fire on synthetic fixtures, stay quiet on the
repo, and the committed baseline ratchets monotonically."""

import json
import pathlib
import textwrap

import pytest

from repro.analysis.lint import (
    RULES,
    Violation,
    apply_baseline,
    counts_by_key,
    lint_file,
    lint_paths,
    load_baseline,
    main,
    write_baseline,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _lint_source(tmp_path, relpath: str, source: str):
    """Write a fixture module at ``relpath`` and lint it."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_file(path, tmp_path)


def _rules(violations: list[Violation]) -> list[str]:
    return [v.rule for v in violations]


class TestSAGE001:
    HOT = "src/repro/core/engine.py"

    def test_for_over_arrayish_name(self, tmp_path):
        found = _lint_source(tmp_path, self.HOT, """\
            import numpy as np

            def expand(frontier):
                degrees = np.asarray(frontier).ravel()
                for degree in degrees:
                    print(degree)
        """)
        assert _rules(found) == ["SAGE001"]
        assert found[0].line == 5

    def test_range_len_and_tolist(self, tmp_path):
        found = _lint_source(tmp_path, self.HOT, """\
            import numpy as np

            def expand(batch: np.ndarray):
                for i in range(len(batch)):
                    batch[i] += 1
                for j in range(batch.size):
                    batch[j] += 1
                return batch.tolist()
        """)
        assert _rules(found) == ["SAGE001", "SAGE001", "SAGE001"]

    def test_reference_scopes_exempt(self, tmp_path):
        found = _lint_source(tmp_path, self.HOT, """\
            import numpy as np

            class ReferenceEngine:
                def expand(self, batch: np.ndarray):
                    for x in batch:
                        yield x

            def expand_reference(batch: np.ndarray):
                return [x for x in batch.tolist()]
        """)
        assert found == []

    def test_inline_allow_comment(self, tmp_path):
        found = _lint_source(tmp_path, self.HOT, """\
            import numpy as np

            def expand(batch: np.ndarray):
                for x in batch:  # sage: allow(SAGE001)
                    print(x)
        """)
        assert found == []

    def test_non_hot_module_not_flagged(self, tmp_path):
        found = _lint_source(tmp_path, "src/repro/bench/tables.py", """\
            import numpy as np

            def rows(values: np.ndarray):
                return [f"{v}" for v in values.tolist()]
        """)
        assert found == []

    def test_plain_iteration_is_fine(self, tmp_path):
        found = _lint_source(tmp_path, self.HOT, """\
            def expand(tiles):
                for tile in tiles:
                    yield tile
        """)
        assert found == []


class TestSAGE002:
    MOD = "src/repro/gpusim/device.py"

    def test_unknown_counter_and_span(self, tmp_path):
        found = _lint_source(tmp_path, self.MOD, """\
            def run(metrics):
                metrics.count("sage.tiles_exploded")
                with metrics.span("iterashun"):
                    pass
        """)
        assert _rules(found) == ["SAGE002", "SAGE002"]
        assert "sage.tiles_exploded" in found[0].message

    def test_registered_names_pass(self, tmp_path):
        found = _lint_source(tmp_path, self.MOD, """\
            def run(metrics):
                metrics.count("sage.tiles")
                metrics.count("sanitizer.findings")
                metrics.set_gauge("run.gteps", 1.0)
                with metrics.span("kernel"):
                    pass
        """)
        assert found == []

    def test_dynamic_prefixes_pass(self, tmp_path):
        found = _lint_source(tmp_path, self.MOD, """\
            def fold(metrics):
                metrics.set_counter("gpusim.kernels", 3)
                metrics.count("gpu0.sage.tiles")
        """)
        assert found == []

    def test_nonliteral_names_skipped(self, tmp_path):
        found = _lint_source(tmp_path, self.MOD, """\
            def fold(metrics, name):
                metrics.count(name)
                metrics.count(f"gpusim.event.{name}")
        """)
        assert found == []

    def test_non_registry_receiver_skipped(self, tmp_path):
        found = _lint_source(tmp_path, self.MOD, """\
            def tally(votes):
                votes.count("definitely.not.a.metric")
        """)
        assert found == []


class TestSAGE003:
    def test_legacy_global_state_api(self, tmp_path):
        found = _lint_source(tmp_path, "src/repro/reorder/llp.py", """\
            import numpy as np

            def shuffle(x):
                np.random.shuffle(x)
                return np.random.permutation(10)
        """)
        assert _rules(found) == ["SAGE003", "SAGE003"]

    def test_unseeded_default_rng(self, tmp_path):
        found = _lint_source(tmp_path, "src/repro/reorder/llp.py", """\
            import numpy as np

            def make():
                return np.random.default_rng()
        """)
        assert _rules(found) == ["SAGE003"]

    def test_seeded_rng_passes(self, tmp_path):
        found = _lint_source(tmp_path, "src/repro/reorder/llp.py", """\
            import numpy as np

            def make(seed):
                rng = np.random.default_rng(7)
                return np.random.default_rng(seed=seed), rng
        """)
        assert found == []


class TestSAGE004:
    def test_bare_except_anywhere(self, tmp_path):
        found = _lint_source(tmp_path, "src/repro/bench/tables.py", """\
            def load():
                try:
                    return 1
                except:
                    return 0
        """)
        assert _rules(found) == ["SAGE004"]

    def test_swallowed_exception_in_simulator_layer(self, tmp_path):
        found = _lint_source(tmp_path, "src/repro/gpusim/device.py", """\
            def run(kernel):
                try:
                    kernel()
                except Exception:
                    pass
        """)
        assert _rules(found) == ["SAGE004"]

    def test_handled_exception_passes(self, tmp_path):
        found = _lint_source(tmp_path, "src/repro/gpusim/device.py", """\
            def run(kernel, log):
                try:
                    kernel()
                except Exception as exc:
                    log.append(exc)
                    raise
        """)
        assert found == []

    def test_swallow_outside_simulator_layer_tolerated(self, tmp_path):
        found = _lint_source(tmp_path, "src/repro/bench/tables.py", """\
            def probe():
                try:
                    import scipy  # noqa: F401
                except Exception:
                    pass
        """)
        assert found == []


class TestBaseline:
    def _fixture_tree(self, tmp_path) -> pathlib.Path:
        src = tmp_path / "src/repro/core"
        src.mkdir(parents=True)
        (src / "engine.py").write_text(textwrap.dedent("""\
            import numpy as np

            def expand(batch: np.ndarray):
                for x in batch:
                    print(x)
        """), encoding="utf-8")
        return tmp_path

    def test_update_then_pass(self, tmp_path, capsys):
        root = self._fixture_tree(tmp_path)
        baseline = root / "baseline.json"
        assert main([str(root / "src"), "--root", str(root),
                     "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        loaded = json.loads(baseline.read_text(encoding="utf-8"))
        assert loaded == {
            "version": 1,
            "rules": {"src/repro/core/engine.py::SAGE001": 1},
        }
        assert main([str(root / "src"), "--root", str(root),
                     "--baseline", str(baseline)]) == 0

    def test_new_violation_beyond_baseline_fails(self, tmp_path, capsys):
        root = self._fixture_tree(tmp_path)
        baseline = root / "baseline.json"
        main([str(root / "src"), "--root", str(root),
              "--baseline", str(baseline), "--update-baseline"])
        engine = root / "src/repro/core/engine.py"
        engine.write_text(
            engine.read_text(encoding="utf-8")
            + "\n\ndef more(batch: np.ndarray):\n"
              "    for y in batch:\n        print(y)\n",
            encoding="utf-8",
        )
        capsys.readouterr()
        assert main([str(root / "src"), "--root", str(root),
                     "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "SAGE001" in out

    def test_fixed_violation_emits_ratchet_note(self, tmp_path, capsys):
        root = self._fixture_tree(tmp_path)
        baseline = root / "baseline.json"
        main([str(root / "src"), "--root", str(root),
              "--baseline", str(baseline), "--update-baseline"])
        (root / "src/repro/core/engine.py").write_text(
            "import numpy as np\n", encoding="utf-8"
        )
        capsys.readouterr()
        assert main([str(root / "src"), "--root", str(root),
                     "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "ratchet down" in out

    def test_apply_baseline_forgives_up_to_count(self):
        violations = [
            Violation("a.py", 1, "SAGE001", "x"),
            Violation("a.py", 9, "SAGE001", "y"),
            Violation("b.py", 2, "SAGE003", "z"),
        ]
        new, notes = apply_baseline(violations, {"a.py::SAGE001": 1})
        assert [(v.path, v.line) for v in new] == [("a.py", 9), ("b.py", 2)]
        assert notes == []

    def test_counts_and_write_round_trip(self, tmp_path):
        violations = [
            Violation("a.py", 1, "SAGE001", "x"),
            Violation("a.py", 2, "SAGE001", "y"),
        ]
        assert counts_by_key(violations) == {"a.py::SAGE001": 2}
        path = tmp_path / "b.json"
        write_baseline(path, violations)
        assert load_baseline(path) == {"a.py::SAGE001": 2}

    def test_unsupported_baseline_version_rejected(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text('{"version": 99, "rules": {}}', encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported baseline"):
            load_baseline(path)


class TestCLI:
    def test_missing_baseline_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "m.py").write_text("x = 1\n", encoding="utf-8")
        assert main([str(tmp_path / "m.py"), "--root", str(tmp_path),
                     "--baseline", str(tmp_path / "missing.json")]) == 2

    def test_update_baseline_requires_baseline(self, tmp_path, capsys):
        (tmp_path / "m.py").write_text("x = 1\n", encoding="utf-8")
        assert main([str(tmp_path / "m.py"), "--root", str(tmp_path),
                     "--update-baseline"]) == 2

    def test_syntax_error_reported_as_sage000(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n", encoding="utf-8")
        assert main([str(bad), "--root", str(tmp_path)]) == 1
        assert "SAGE000" in capsys.readouterr().out


class TestRepoIsClean:
    def test_src_passes_with_committed_baseline(self):
        assert main([str(ROOT / "src"), "--root", str(ROOT),
                     "--baseline", str(ROOT / "lint_baseline.json")]) == 0

    def test_committed_baseline_matches_reality(self):
        """The baseline must exactly describe today's violations: no
        slack a regression could hide inside, no stale keys."""
        violations = lint_paths([ROOT / "src"], ROOT)
        assert counts_by_key(violations) == load_baseline(
            ROOT / "lint_baseline.json"
        )

    def test_baseline_is_empty(self):
        """The ratchet has reached zero: the last grandfathered
        violation, a per-access LRU loop in gpusim/memory.py, left the
        hot-path modules with the exact LRU, which now lives beside its
        one caller in gpusim/trace.py.  Any future hot-path loop must be
        fixed, not baselined."""
        assert load_baseline(ROOT / "lint_baseline.json") == {}

    def test_hot_paths_have_no_violations_at_all(self):
        """Stronger than baseline-matching: the library is lint-clean,
        so a new violation fails even if the baseline file is edited."""
        assert lint_paths([ROOT / "src"], ROOT) == []

    def test_rule_table_is_documented(self):
        design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
        for rule in RULES:
            assert rule in design, f"{rule} missing from DESIGN.md"
