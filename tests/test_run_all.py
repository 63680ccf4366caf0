"""Tests for the experiment runner, ``python -m repro.bench.run_all``."""

import dataclasses

from repro.bench.experiments import EXPERIMENTS
from repro.bench.experiments_md import MARKER
from repro.bench.run_all import main


class TestRunAll:
    def test_subset_run_writes_results(self, tmp_path, capsys):
        results = tmp_path / "results"
        md = tmp_path / "EXPERIMENTS.md"
        md.write_text(f"old\n{MARKER}\nhand-written tail\n")
        rc = main(["--scale", "0.05", "--only", "fig8", "ablation_alignment",
                   "--results", str(results),
                   "--experiments-md", str(md)])
        assert rc == 0
        assert (results / "fig8.txt").exists()
        assert (results / "ablation_alignment.txt").exists()
        assert not (results / "fig6.txt").exists()
        text = md.read_text()
        assert "paper vs. measured" in text
        assert text.endswith(f"{MARKER}\nhand-written tail\n")
        out = capsys.readouterr().out
        assert "regenerated" in out

    def test_failed_claim_exits_nonzero_naming_it(self, tmp_path, monkeypatch,
                                                  capsys):
        planted = [{"gpus": 1, "gteps": 1.0}, {"gpus": 8, "gteps": 8.0}]
        monkeypatch.setitem(EXPERIMENTS, "sweep_gpu_scaling", dataclasses.replace(
            EXPERIMENTS["sweep_gpu_scaling"], run=lambda scale: planted))
        rc = main(["--only", "sweep_gpu_scaling", "--results",
                   str(tmp_path / "results"),
                   "--experiments-md", str(tmp_path / "EXPERIMENTS.md")])
        assert rc == 1
        # the rows are still written, and the run names the failed claim
        assert (tmp_path / "results" / "sweep_gpu_scaling.txt").exists()
        captured = capsys.readouterr()
        assert "CLAIM FAILED sweep_gpu_scaling: " in captured.out
        assert "claims failed: sweep_gpu_scaling" in captured.err
