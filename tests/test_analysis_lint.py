"""SAGE lint tests: rules fire on synthetic fixtures and stay quiet on the
repo."""

import pathlib
import textwrap

import pytest

from repro.analysis.lint import (
    RULES,
    Violation,
    lint_file,
    lint_paths,
    main,
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


class TestCLI:
    def test_syntax_error_reported_as_sage000(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n", encoding="utf-8")
        assert main([str(bad), "--root", str(tmp_path)]) == 1
        assert "SAGE000" in capsys.readouterr().out

    def test_a_finding_fails_the_cli(self, tmp_path, capsys):
        _lint_source(tmp_path, TestSAGE001.HOT, """\
            import numpy as np

            def expand(batch: np.ndarray):
                return batch.tolist()
        """)
        assert main([str(tmp_path / "src"), "--root", str(tmp_path)]) == 1
        out = capsys.readouterr()
        assert "SAGE001" in out.out
        assert "1 violation(s)" in out.err

    @pytest.mark.parametrize(
        "flags",
        [["--baseline", "lint_baseline.json"], ["--update-baseline"]],
        ids=["baseline", "update-baseline"],
    )
    def test_no_file_can_waive_a_finding(self, tmp_path, capsys, flags):
        """The CLI takes no waiver file: a flag naming one is a usage error."""
        (tmp_path / "lint_baseline.json").write_text(
            '{"version": 1, "rules": {"SAGE001": {"src": 9}}}', encoding="utf-8"
        )
        with pytest.raises(SystemExit) as exit_:
            main([str(tmp_path), "--root", str(tmp_path), *flags])
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestRepoIsClean:
    def test_src_passes_the_cli(self):
        assert main([str(ROOT / "src"), "--root", str(ROOT)]) == 0

    def test_hot_paths_have_no_violations_at_all(self):
        """The library is lint-clean: no file can waive a finding, only a
        ``# sage: allow(...)`` comment on the flagged line."""
        assert lint_paths([ROOT / "src"], ROOT) == []

    def test_rule_table_is_documented(self):
        design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
        for rule in RULES:
            assert rule in design, f"{rule} missing from DESIGN.md"
