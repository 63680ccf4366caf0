"""The experiment table: one record per results file, each with a claim.

Every name of ``EXPERIMENTS`` must be a committed results file, an
EXPERIMENTS.md section and a choice of ``repro experiment``; every
claim must reject a planted violation, under ``python -O`` too.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.bench.experiments_md import MARKER, generate
from repro.bench.session import SessionTrace
from repro.cli import build_parser
from repro.errors import GuardError

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"
DATASETS = ("uk-2002", "brain", "ljournal", "twitter", "friendster")
APPS = ("bfs", "bc", "pr")


def _cells(**values) -> list[dict]:
    """Fifteen dataset/app rows holding the same values."""
    return [{"dataset": d, "app": a, **values} for d in DATASETS for a in APPS]


def _set(rows: list[dict], dataset: str, app: str, **values) -> list[dict]:
    for row in rows:
        if row["dataset"] == dataset and row["app"] == app:
            row.update(values)
    return rows


#: One outcome per experiment that breaks exactly one part of its claim.
PLANTED: dict[str, object] = {
    "table1": [  # brain's degree Gini is not below 0.05
        {"dataset": d, "avg_degree": 9.0 if d == "brain" else 5.0,
         "degree_gini": 0.5 if d == "twitter" else 0.1}
        for d in DATASETS
    ],
    "table2": [  # Gorder cheaper than RCM on a social graph
        {"dataset": "twitter", "rcm_s": 1.0, "llp_s": 2.0, "gorder_s": 0.5,
         "sage_per_round_s": 0.01},
    ],
    "table3": [  # PR's TP share above 35 %
        {"dataset": "brain", "bfs_tp_pct": 5.0, "bc_tp_pct": 5.0,
         "pr_tp_pct": 40.0},
    ],
    "fig6": _set(  # Gorder slower than the original order on twitter
        _cells(original=1.0, gorder=1.1, sage_1=1.0, sage_5=1.0,
               sage_20=1.0, sage_50=1.05),
        "twitter", "bfs", gorder=0.9),
    "fig7": _set(  # Tigr does not beat B40C on twitter
        _cells(ligra=0.1, tpn=0.5, b40c=1.0, tigr=1.01, gunrock=1.0, sage=1.0),
        "twitter", "bfs", tigr=1.0),
    "fig8": [  # SAGE matches Subway on only two datasets
        {"dataset": d, "subway": 1.0, "sage-ooc": 1.1 if i < 2 else 0.9,
         "um-ondemand": 0.1}
        for i, d in enumerate(DATASETS)
    ],
    "fig9": [  # SAGE trails metis-partitioned Gunrock on two GPUs
        {"dataset": d, "gunrock_1gpu": 1.0, "gunrock_2gpu": 0.5,
         "gunrock_2gpu_metis": 0.6, "groute_2gpu": 0.8, "sage_2gpu": 0.55}
        for d in DATASETS
    ],
    "fig10": _cells(  # SR helps no social cell
        base=1.0, **{"+tp": 2.0, "+tp+rts": 3.0, "+tp+rts+sr": 2.9}),
    "ablation_min_tile": [  # the default tile is half the best speed
        {"min_tile": m, "bfs": 1.0 if m == 8 else 2.0, "pr": 1.0}
        for m in (4, 8, 16, 32)
    ],
    "ablation_alignment": [  # alignment costs PageRank speed
        {"tile_alignment": True, "bfs": 1.0, "pr": 0.9},
        {"tile_alignment": False, "bfs": 1.0, "pr": 1.0},
    ],
    "ablation_compressed": [  # compressed BFS below 75 % of plain
        {"dataset": "brain", "ratio": 2.0, "plain_bfs": 1.0,
         "compressed_bfs": 0.7},
    ],
    "ablation_push_pull": [  # push saw no atomic conflict
        {"dataset": "brain", "push_gteps": 1.0, "pull_gteps": 1.0,
         "push_atomics": 0},
    ],
    "sweep_device_fraction": [  # SAGE slows as the budget grows
        {"device_fraction": 0.05, "subway": 1.0, "sage-ooc": 2.0},
        {"device_fraction": 0.9, "subway": 1.0, "sage-ooc": 1.0},
    ],
    "sweep_gpu_scaling": [  # linear scaling to 8 GPUs
        {"gpus": 1, "gteps": 1.0},
        {"gpus": 8, "gteps": 8.0},
    ],
    "calibration": [  # stealing loses to owner placement
        {"dataset": "brain", "sim_owner": 100.0, "analytic_owner": 100.0,
         "sim_steal": 50.0, "analytic_steal": 50.0, "steal_speedup": 0.9},
    ],
    "session": {  # the Gorder profile catches SAGE at query 5 of 30
        "sage": SessionTrace("sage", 0.0, [0.1] * 30),
        "gorder+gunrock": SessionTrace("gorder+gunrock", 0.5, [0.001] * 30),
        "tigr": SessionTrace("tigr", 0.0, [0.1] * 30),
    },
}


def _sections(text: str) -> set[str]:
    """Headings of the generated part of EXPERIMENTS.md, bar the fixed ones."""
    generated = text.partition(MARKER)[0]
    headings = set(re.findall(r"^#{2,3} (.+)$", generated, flags=re.M))
    return {h for h in headings
            if not h.startswith(("Extension experiments", "Known deviations"))}


class TestOneTable:
    def test_names_are_the_results_files_sections_and_cli_choices(self):
        names = set(EXPERIMENTS)
        assert names == {p.stem for p in RESULTS.glob("*.txt")}
        committed = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert _sections(committed) == {e.heading for e in EXPERIMENTS.values()}
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        name = next(a for a in sub.choices["experiment"]._actions
                    if a.dest == "name")
        assert set(name.choices) == names

    def test_each_record_titles_its_committed_table(self):
        for name, exp in EXPERIMENTS.items():
            first = (RESULTS / f"{name}.txt").read_text(encoding="utf-8")
            assert first.splitlines()[0] == exp.title, name

    def test_generate_reproduces_the_committed_experiments_md(self):
        committed = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert MARKER in committed
        assert generate(RESULTS, committed) == committed


class TestClaims:
    def test_every_claim_has_a_planted_violation(self):
        assert set(PLANTED) == set(EXPERIMENTS)

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_planted_violation_raises_naming_the_experiment(self, name):
        with pytest.raises(GuardError, match=rf"^{name}: "):
            EXPERIMENTS[name].check(PLANTED[name])

    def test_claims_still_raise_under_python_O(self):
        probe = (
            "from repro.bench.experiments import EXPERIMENTS\n"
            "from repro.errors import GuardError\n"
            "from tests.test_experiments import PLANTED\n"
            "if __debug__:\n"
            "    raise SystemExit('not optimized')\n"
            "for name, outcome in PLANTED.items():\n"
            "    try:\n"
            "        EXPERIMENTS[name].check(outcome)\n"
            "    except GuardError as err:\n"
            "        if str(err).startswith(name + ': '):\n"
            "            continue\n"
            "    raise SystemExit(name)\n"
            "print(len(PLANTED))\n"
        )
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT),
                                             os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-O", "-c", probe],
            env=dict(os.environ, PYTHONPATH=path), cwd=ROOT,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr or done.stdout
        assert done.stdout.split() == [str(len(EXPERIMENTS))]
