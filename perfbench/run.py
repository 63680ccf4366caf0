"""Run the benchmark: one workload in this process, or all of them.

One workload (what ``BENCHMARK.json``'s command runs)::

    python3 perfbench/run.py --workload traverse_powerlaw --seed 0 \\
        --seconds 10 --trace 0

All workloads, each in a fresh subprocess, results saved for
``perfbench/compare.py``::

    python3 perfbench/run.py --seed 0 --out results.json

Every metric prints as ``workload metric value unit``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json,
or with ``--trace 1`` its per-layer metrics (the span trace is then
written to ``perfbench/out/<workload>-seed<seed>.trace.json``).
The program comes from ``src/`` next to this directory; without it the
run exits non-zero before printing a result.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program source at {ROOT / 'src' / 'repro'}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro.api  # noqa: E402,F401  (the program's import: host.import_s)

IMPORT_S = time.perf_counter() - _START

from perfbench import workloads  # noqa: E402
from perfbench.calibration import Calibration  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

#: Set-ups per measured run (this process plus fresh subprocesses);
#: ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Seconds a child process may take before the run is abandoned.
CHILD_TIMEOUT_S = 900


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="run one workload here (default: all, one "
                             "subprocess each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="host seconds to measure (minimum work "
                             "always runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for tests")
    parser.add_argument("--out", type=pathlib.Path,
                        help="with all workloads: save the results here")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[kind]}


def child_args(args: argparse.Namespace, workload: str) -> list[str]:
    argv = [sys.executable, str(pathlib.Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return argv + (["--smoke"] if args.smoke else [])


def fresh_setup_seconds(args: argparse.Namespace) -> float:
    """Import + build + warm-up time of a brand-new process."""
    done = subprocess.run(
        child_args(args, args.workload) + ["--setup-only"],
        capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
    )
    return sum(json.loads(done.stdout.splitlines()[-1]).values())


def run_one(args: argparse.Namespace) -> int:
    workload = workloads.WORKLOADS[args.workload]
    setup = workload.setup(args.seed, args.smoke)
    parts = {
        "host.import_s": IMPORT_S,
        "graph.build_s": setup.build_s,
        "host.warmup_s": setup.warmup_s,
    }
    if args.setup_only:
        print(json.dumps(parts))
        return 0
    if args.trace:
        tracer = Tracer()
        result = workload.trace(setup, tracer)
        result.metrics.update(parts)
        tracer.write_chrome(
            ROOT / "perfbench" / "out"
            / f"{args.workload}-seed{args.seed}.trace.json"
        )
    else:
        calibration = Calibration()
        result = workload.measure(setup, args.seconds, calibration)
        result.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        samples = [sum(parts.values())] + [
            fresh_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)
        ]
        result.metrics["setup_s"] = (
            statistics.median(samples) * calibration.speed
        )

    units = declared_metrics(args.trace)
    unknown = set(result.metrics) - set(units)
    missing = set(units) - set(result.metrics) if not args.trace else set()
    if unknown or missing:
        raise RuntimeError(
            f"metrics not as declared: unknown {sorted(unknown)}, "
            f"missing {sorted(missing)}"
        )
    # A per-layer metric a workload never exercises reads 0.
    metrics = {
        name: {"value": float(result.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    results = {}
    ok = True
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            child_args(args, name), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            print(f"{name} failed with exit code {done.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        results[name] = result
        print("\n".join(lines[:-1]))
        error_rate = result["failed"] / result["attempted"]
        print(f"{name} error_rate {error_rate!r} ratio "
              f"({result['failed']} of {result['attempted']} answers wrong)")
        ok = ok and result["correct"]
    report = {"seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "results": results}
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
