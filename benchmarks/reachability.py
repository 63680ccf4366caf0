#!/usr/bin/env python
"""Execution census: each function in ``src/repro`` that no run enters.

Runs a fixed list of entry points in this process under a profile hook
(``sys.setprofile`` and ``threading.setprofile``): the perf gate plain
and sanitized, the tuned-profile check, the SAGE lint, every experiment
at scale 0.05, each perfbench workload in smoke form untraced and
traced, every example, and the README's command lines.  A top-level
function, or a method of a top-level class, counts as reached when a
run enters its code or the code of a function nested in it, however
the call got there (a local alias, a ``getattr`` table, a callback).
``tests/test_public_callers.py`` matches callers by name, so any
same-named member anywhere credits a function; this census matches the
code a run enters to the definition that holds it.

    PYTHONPATH=src python benchmarks/reachability.py

Exempt: the ``*_reference`` oracles and ``visit_*`` dispatch methods,
``@abstractmethod`` methods and ``Protocol`` members, dunders other
than ``__init__`` and ``__call__``, and stubs whose body is only a
docstring, ``pass`` or ``raise NotImplementedError``.

Every unreached function is printed with its line count.  The census
exits 1, naming each case, when an entry exits non-zero or raises, when
an unreached function has no row in docs/api.md's "Reached by no run"
table, or when a row is stale: one of its names covers nothing, or
covers something a run reaches.  A row's first cell holds backticked
names; a name covers each definition whose dotted path (such as
``repro.serve.cache.ResultCache.apply_delta``) holds it as a run of
whole parts, so it may name a module, a class or a qualified name.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import pathlib
import re
import runpy
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
TABLE_HEADING = "## Reached by no run"
SCALE = 0.05
#: The workloads of ``BENCHMARK.json``, each run once untraced and once
#: traced in smoke form.
PERFBENCH_WORKLOADS = (
    "traverse_powerlaw",
    "traverse_mesh",
    "adaptive_session",
    "serve_hotkey",
    "serve_rw",
)

_ROW_NAME = re.compile(r"`([A-Za-z_][\w.]*)`")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_KEPT_DUNDERS = {"__init__", "__call__"}

#: ``(label, entry)``: an entry returns or raises ``SystemExit`` with
#: its exit code; ``None`` counts as 0.
Entry = tuple[str, Callable[[], object]]


class Definition(NamedTuple):
    """One counted definition; ``start`` includes its decorators, which
    is the first line of its code object."""

    path: pathlib.Path
    name: str
    start: int
    end: int

    @property
    def lines(self) -> int:
        return self.end - self.start + 1


def _name(node: ast.AST) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", "")


def _is_stub(node: ast.AST) -> bool:
    body = node.body
    if (
        isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    return all(
        isinstance(stmt, ast.Pass)
        or (
            isinstance(stmt, ast.Raise)
            and stmt.exc is not None
            and _name(stmt.exc) == "NotImplementedError"
        )
        for stmt in body
    )


def exempt(node: ast.AST, in_protocol: bool) -> bool:
    name = node.name
    dunder = name.startswith("__") and name.endswith("__")
    return (
        name.endswith("_reference")
        or name.startswith("visit_")
        or (dunder and name not in _KEPT_DUNDERS)
        or any(_name(d) == "abstractmethod" for d in node.decorator_list)
        or in_protocol
        or _is_stub(node)
    )


def definitions(package: pathlib.Path) -> list[Definition]:
    """Each top-level function and method of a top-level class under
    ``package`` that is not exempt."""
    found = []
    for path in sorted(package.resolve().rglob("*.py")):
        parts = path.relative_to(package.resolve().parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            members, owner, protocol = [node], module, False
            if isinstance(node, ast.ClassDef):
                members, owner = node.body, f"{module}.{node.name}"
                protocol = any(_name(b) == "Protocol" for b in node.bases)
            for member in members:
                if isinstance(member, _FUNCTIONS) and not exempt(member, protocol):
                    start = min([member.lineno, *(d.lineno for d in member.decorator_list)])
                    found.append(
                        Definition(path, f"{owner}.{member.name}", start, member.end_lineno)
                    )
    return found


def run_entries(entries: Iterable[Entry]) -> tuple[set[tuple[str, int]], list[str]]:
    """Run each entry under the profile hook, its output captured.
    Returns the ``(file, first line)`` of each code object entered and
    the label of each entry that exited non-zero or raised, whose
    output is printed."""
    entered: set[tuple[str, int]] = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    failed = []
    for label, entry in entries:
        output = io.StringIO()
        previous = sys.getprofile()
        threading.setprofile(hook)
        sys.setprofile(hook)
        try:
            with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
                status = entry()
        except SystemExit as stop:
            status = stop.code
        except Exception:
            status = traceback.format_exc()
        finally:
            sys.setprofile(previous)
            threading.setprofile(None)
        if status not in (None, 0):
            failed.append(label)
            print(f"entry failed: {label}\n{output.getvalue()[-4000:]}{status}")
    return {(os.path.realpath(f), line) for f, line in entered}, failed


def table_names(api_md: pathlib.Path) -> list[str]:
    """The backticked names in the first cell of each row of the
    "Reached by no run" table."""
    text = api_md.read_text(encoding="utf-8")
    if TABLE_HEADING not in text:
        return []
    section = text.split(TABLE_HEADING, 1)[1].split("\n## ", 1)[0]
    return [
        name
        for line in section.splitlines()
        if line.startswith("|")
        for name in _ROW_NAME.findall(line.split("|")[1])
    ]


def covers(name: str, definition: Definition) -> bool:
    return f".{name}." in f".{definition.name}."


@dataclass
class Census:
    definitions: list[Definition]
    unreached: list[Definition]
    missing: list[Definition]
    stale: list[str]
    failed: list[str]

    @property
    def ok(self) -> bool:
        return not (self.missing or self.stale or self.failed)


def census(package: pathlib.Path, api_md: pathlib.Path, entries: Iterable[Entry]) -> Census:
    defs = definitions(package)
    entered, failed = run_entries(entries)
    unreached = [
        d
        for d in defs
        if not any((str(d.path), line) in entered for line in range(d.start, d.end + 1))
    ]
    names = table_names(api_md)
    missing = [d for d in unreached if not any(covers(n, d) for n in names)]
    stale = []
    for name in names:
        covered = [d for d in defs if covers(name, d)]
        reached = [d.name for d in covered if d not in unreached]
        if not covered:
            stale.append(f"{name}: names no definition")
        elif reached:
            stale.append(f"{name}: a run reaches {', '.join(reached)}")
    return Census(defs, unreached, missing, stale, failed)


def _script(path: pathlib.Path, *argv: str) -> Callable[[], object]:
    def entry() -> object:
        saved = sys.argv
        sys.argv = [str(path), *argv]
        try:
            runpy.run_path(str(path), run_name="__main__")
        finally:
            sys.argv = saved
        return 0

    return entry


def _experiment(exp) -> Callable[[], object]:
    """An experiment's rows and claim at :data:`SCALE`.  Only reach is
    measured here: several claims hold only at scale 1, and CI's
    freshness step gates them there, so a failed claim is ignored."""

    from repro.errors import GuardError

    def entry() -> object:
        outcome = exp.run(SCALE)
        exp.tabulate(outcome)
        with contextlib.suppress(GuardError):
            exp.check(outcome)

    return entry


def entries(scratch: pathlib.Path) -> list[Entry]:
    """The census's entry points; ``scratch`` takes their output files."""
    from repro import cli
    from repro.analysis import lint
    from repro.bench.experiments import EXPERIMENTS

    bench = ROOT / "benchmarks" / "bench_trajectory.py"
    gate = ["--smoke", "--baseline", str(ROOT / "BENCH_repro.json"), "--check", "--tolerance", "0"]
    found: list[Entry] = [
        ("bench_trajectory.py --smoke --check", _script(bench, *gate)),
        ("bench_trajectory.py --smoke --check --sanitize", _script(bench, *gate, "--sanitize")),
        (
            "repro tune --verify profiles",
            lambda: cli.main(["tune", "--verify", str(ROOT / "profiles")]),
        ),
        ("repro.analysis.lint src", lambda: lint.main([str(ROOT / "src")])),
    ]
    found += [
        (f"experiment {name} at scale {SCALE}", _experiment(exp))
        for name, exp in EXPERIMENTS.items()
    ]
    perfbench = ROOT / "perfbench" / "run.py"
    smoke = ["--smoke", "--seconds", "0.2"]
    found += [
        (
            f"perfbench {workload} --trace {trace}",
            _script(perfbench, "--workload", workload, *smoke, "--trace", trace),
        )
        for workload in PERFBENCH_WORKLOADS
        for trace in ("0", "1")
    ]
    found += [
        (f"examples/{path.name}", _script(path))
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    scale = ["--scale", str(SCALE)]
    metrics = str(scratch / "out.json")
    readme = [
        ["info", "--dataset", "twitter", *scale],
        ["run", "--app", "bfs", "--scheduler", "sage", "--profile", "--validate", *scale],
        ["reorder", "--method", "sage", "--rounds", "5", *scale],
        ["scc", "--dataset", "ljournal", *scale],
        ["experiment", "fig10", *scale],
        ["generate", "--dataset", "brain", "--out", str(scratch / "brain.txt"), *scale],
        ["run", "--app", "bfs", "--emit-metrics", metrics, *scale],
        ["report", metrics],
        ["run", "--app", "bfs", "--sanitize", *scale],
        ["run", "--app", "bfs", "--scheduler", "sage-sr", "--sanitize", *scale],
        ["serve-bench", "--queries", "64", "--rate", "400", *scale],
        ["cluster-bench", "--replicas", "2", "--hot-fraction", "0.8", *scale],
    ]
    found += [("repro " + " ".join(argv), lambda argv=argv: cli.main(argv)) for argv in readme]
    return found


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        found = census(
            ROOT / "src" / "repro",
            ROOT / "docs" / "api.md",
            entries(pathlib.Path(scratch)),
        )
    seconds = time.perf_counter() - started
    print("unreached (file:line name, lines):")
    for d in found.unreached:
        print(f"  {d.path.relative_to(ROOT)}:{d.start} {d.name} ({d.lines})")
    print(
        f"reachability: {len(found.definitions)} definitions "
        f"({sum(d.lines for d in found.definitions)} lines), "
        f"{len(found.unreached)} unreached "
        f"({sum(d.lines for d in found.unreached)} lines), in {seconds:.1f} s"
    )
    for label in found.failed:
        print(f"FAILED entry: {label}")
    for d in found.missing:
        print(f"NO ROW in docs/api.md '{TABLE_HEADING[3:]}': {d.name}")
    for row in found.stale:
        print(f"STALE row: {row}")
    return 0 if found.ok else 1


if __name__ == "__main__":
    sys.exit(main())
