"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py A1.json A2.json -- B1.json B2.json

Each file is the ``--out`` of ``perfbench/run.py`` (all workloads, one
seed).  Side A is the baseline, side B the change.  For every workload
and end-to-end metric of BENCHMARK.json, plus ``error_rate`` (wrong
answers / attempted), it prints each side's median and quartiles and a
verdict judged by the metric's bound:

* ``worse`` / ``better``: B's median moved past the bound;
* ``unchanged``: it stayed within the bound;
* ``unresolved``: a side's own quartile spread is wider than the bound,
  and B's runs do not all beat A's.

A metric whose runs repeat exactly on both sides (two or more each) is
judged exactly: any move beyond float noise counts.  The exit status is
1 on any ``worse`` verdict or any rise in ``error_rate``, else 0.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json"

#: Relative change still called equal for exactly repeating metrics.
FLOAT_NOISE = 1e-9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    a: list[float], b: list[float], bound: float, higher_is_better: bool
) -> str:
    """Judge B against A; see the module docstring for the rules."""
    sign = 1.0 if higher_is_better else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    scale = abs(a_med) or 1.0
    gain = sign * (b_med - a_med) / scale
    if len(a) >= 2 and len(b) >= 2 and len(set(a)) == 1 == len(set(b)):
        bound = FLOAT_NOISE
    elif max((a_q3 - a_q1) / scale, (b_q3 - b_q1) / (abs(b_med) or 1.0)) > bound:
        beats = min(sign * v for v in b) > max(sign * v for v in a)
        return "better" if beats else "unresolved"
    if gain > bound:
        return "better"
    if gain < -bound:
        return "worse"
    return "unchanged"


def load(paths: list[str]) -> dict[str, list[dict]]:
    """Workload -> list of per-run results, across the given files."""
    runs: dict[str, list[dict]] = {}
    for path in paths:
        report = json.loads(pathlib.Path(path).read_text())
        for workload, result in report["results"].items():
            runs.setdefault(workload, []).append(result)
    return runs


def compare(a_paths: list[str], b_paths: list[str]) -> int:
    spec = json.loads(BENCHMARK.read_text())
    metrics = [(m["name"], m["unit"], m["bound"], m["better"] == "higher")
               for m in spec["end_to_end"]]
    a_runs, b_runs = load(a_paths), load(b_paths)
    failed = False
    header = (f"{'workload':18} {'metric':22} {'A median [q1, q3]':>34} "
              f"{'B median [q1, q3]':>34} {'change':>8}  verdict")
    print(header)
    for workload in sorted(set(a_runs) | set(b_runs)):
        if workload not in a_runs or workload not in b_runs:
            print(f"{workload:18} missing on one side")
            failed = True
            continue
        a_side, b_side = a_runs[workload], b_runs[workload]
        for name, unit, bound, higher in metrics:
            a = [r["metrics"][name]["value"] for r in a_side]
            b = [r["metrics"][name]["value"] for r in b_side]
            judged = verdict(a, b, bound, higher)
            failed = failed or judged == "worse"
            print(_row(workload, f"{name} ({unit})", a, b, judged))
        a_err = [r["failed"] / r["attempted"] for r in a_side]
        b_err = [r["failed"] / r["attempted"] for r in b_side]
        rose = max(b_err) > max(a_err)
        failed = failed or rose
        print(_row(workload, "error_rate", a_err, b_err,
                   "worse" if rose else "unchanged"))
    return 1 if failed else 0


def _row(workload: str, metric: str, a: list[float], b: list[float],
         judged: str) -> str:
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    change = (b_med - a_med) / abs(a_med) if a_med else 0.0
    return (f"{workload:18} {metric:22} "
            f"{a_med:12.6g} [{a_q1:9.4g}, {a_q3:9.4g}] "
            f"{b_med:12.6g} [{b_q1:9.4g}, {b_q3:9.4g}] "
            f"{change:+8.2%}  {judged}")


def main(argv: list[str]) -> int:
    if "--" not in argv:
        sys.exit("usage: compare.py A1.json [A2.json ...] -- B1.json [...]")
    split = argv.index("--")
    a_paths, b_paths = argv[:split], argv[split + 1:]
    if not a_paths or not b_paths:
        sys.exit("usage: compare.py A1.json [A2.json ...] -- B1.json [...]")
    return compare(a_paths, b_paths)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
