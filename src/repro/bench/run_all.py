"""Run the paper's experiments: ``python -m repro.bench.run_all``.

Runs every record of :data:`repro.bench.experiments.EXPERIMENTS` (or the
``--only`` subset): writes each result table under ``benchmarks/results/``,
checks the experiment's claim, and regenerates EXPERIMENTS.md.  Exits
non-zero, naming each experiment whose claim failed.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.bench import experiments_md
from repro.bench.experiments import EXPERIMENTS
from repro.bench.reporting import format_table
from repro.errors import GuardError


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset scale (1.0 = the committed results)")
    parser.add_argument("--only", nargs="*", default=None,
                        metavar="EXP", choices=list(EXPERIMENTS),
                        help="subset of experiment names (e.g. fig6 fig10)")
    parser.add_argument("--results", type=pathlib.Path,
                        default=pathlib.Path("benchmarks/results"))
    parser.add_argument("--experiments-md", type=pathlib.Path,
                        default=pathlib.Path("EXPERIMENTS.md"))
    args = parser.parse_args(argv)

    args.results.mkdir(parents=True, exist_ok=True)
    failed: list[str] = []
    for name, exp in EXPERIMENTS.items():
        if args.only and name not in args.only:
            continue
        started = time.perf_counter()
        outcome = exp.run(args.scale)
        elapsed = time.perf_counter() - started
        text = format_table(exp.tabulate(outcome), exp.title)
        (args.results / f"{name}.txt").write_text(text + "\n",
                                                  encoding="utf-8")
        print(text)
        try:
            exp.check(outcome)
        except GuardError as err:
            failed.append(name)
            print(f"CLAIM FAILED {err}")
        print(f"[{name} regenerated in {elapsed:.1f} s]\n")

    experiments_md.write(args.results, args.experiments_md)
    print(f"wrote {args.experiments_md}")
    if failed:
        print(f"claims failed: {' '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
