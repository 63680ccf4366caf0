"""EXPERIMENTS.md generator.

Collates the result tables under ``benchmarks/results/`` into one
markdown report that records, for every experiment of
:data:`repro.bench.experiments.EXPERIMENTS`, what the paper observed and
what this reproduction measured.  ``python -m repro.bench.run_all``
regenerates it after writing the results; to rebuild it from the
results on disk alone::

    python -m repro.bench.experiments_md [--results DIR] [--out FILE]

Each section's prose lives in its experiment's record; the numbers are
whatever the latest run wrote.  Everything after :data:`MARKER` in the
existing file is hand-written and kept verbatim.
"""

from __future__ import annotations

import argparse
import pathlib

from repro.bench.experiments import EXPERIMENTS

HEADER = """\
# EXPERIMENTS — paper vs. measured

Reproduction of every table and figure in the evaluation of
*Self-adaptive Graph Traversal on GPUs* (SIGMOD 2021).  All timings are
**simulated** (see DESIGN.md §5 for the cost model); the reproduction
target is the *shape* of each comparison — who wins, by roughly what
factor, where the crossovers fall — not the absolute numbers from the
authors' RTX 8000 testbed.  Every "holds?" claim below is checked by its
experiment's record in `repro.bench.experiments` whenever its results
file is written; regenerate the numbers and this file with::

    python -m repro.bench.run_all
"""

FOOTER = """\
## Known deviations (and why they are scale artifacts, not model gaps)

1. **Absolute GTEPS** are simulator outputs at 10^3-10^4x smaller graphs;
   only relative comparisons are meaningful.
2. **Table 2 gap compression**: Gorder's advantage-destroying cost grows
   super-linearly with |E|; at our scale it is "only" ~20-80x a SAGE
   round rather than the paper's ~10^4x.
3. **Figure 9 bulk-synchronous 2-GPU slowdowns**: with microsecond
   kernels, fixed per-iteration coordination dominates; the paper's
   larger graphs sit past the crossover. The async engines show the
   crossover behaviour at our scale.
4. **Figure 6 convergence**: SAGE's sampled rounds plateau at ~95% of
   Gorder rather than matching it exactly by round ~94; the damped
   commit rule (see `repro/core/reorder.py`) trades the last few percent
   for stability at small |V|.
"""

#: Everything after this line of EXPERIMENTS.md is written by hand.
MARKER = "<!-- Hand-written below: regeneration keeps it verbatim. -->\n"


def _results(results_dir: pathlib.Path, stem: str) -> str | None:
    result_file = results_dir / f"{stem}.txt"
    if not result_file.exists():
        return None
    body = result_file.read_text(encoding="utf-8").rstrip()
    return f"\n```\n{body}\n```\n"


def generate(results_dir: pathlib.Path, current: str = "") -> str:
    """Build the EXPERIMENTS.md content from a results directory,
    keeping the hand-written part of ``current`` (the file's text)."""
    parts = [HEADER]
    for exp in (e for e in EXPERIMENTS.values() if e.paper is not None):
        parts.append(f"\n## {exp.heading}\n")
        parts.append(f"**Paper:** {exp.paper}\n")
        parts.append(f"**Measured (holds?):** {exp.measured}\n")
        parts.append(_results(results_dir, exp.name) or (
            "\n*(no results yet — run `python -m repro.bench.run_all "
            f"--only {exp.name}`)*\n"
        ))
    parts.append("\n## Extension experiments (beyond the paper)\n")
    for exp in (e for e in EXPERIMENTS.values() if e.paper is None):
        parts.append(f"\n### {exp.heading}\n")
        parts.append(exp.measured + "\n")
        table = _results(results_dir, exp.name)
        if table is not None:
            parts.append(table)
    parts.append("\n" + FOOTER)
    kept = current.partition(MARKER)[2]
    return "\n".join(parts) + "\n" + MARKER + kept


def write(results_dir: pathlib.Path, out: pathlib.Path) -> None:
    """Regenerate ``out`` in place from ``results_dir``."""
    current = out.read_text(encoding="utf-8") if out.exists() else ""
    out.write_text(generate(results_dir, current), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--results", type=pathlib.Path,
        default=pathlib.Path("benchmarks/results"),
        help="directory holding the benchmark result tables",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=pathlib.Path("EXPERIMENTS.md"),
        help="output markdown file",
    )
    args = parser.parse_args(argv)
    write(args.results, args.out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
