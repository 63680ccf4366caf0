"""SAGE lint: AST checks for this repo's performance/observability rules.

``python -m repro.analysis.lint src`` walks the given paths and reports
violations of repo-specific rules ordinary linters cannot express:

* **SAGE001** — Python-level loop over ndarray work in a hot-path module
  (:data:`HOT_PATH_MODULES`).  The kernel-simulation hot paths are
  vectorized by design; a ``for`` over an array (or ``range(len(arr))``,
  ``arr.tolist()``) reintroduces the interpreter into the per-edge path.
  Reference implementations (functions named ``*_reference``, classes
  named ``Reference*``) are exempt — they exist to stay naive.
* **SAGE002** — metric/span name literal that does not resolve against
  the central registry (:mod:`repro.obs.names`).  Catches drift between
  emit sites and the documented counter set.
* **SAGE003** — unseeded numpy randomness in library code: the legacy
  ``np.random.*`` global-state API, or ``default_rng()`` without a seed.
  Everything simulated must be deterministic across machines.
* **SAGE004** — bare ``except:`` anywhere, and exception handlers that
  swallow diagnostics (``pass``-only bodies catching ``Exception``) in
  the simulator layers (:data:`SIMULATOR_LAYERS`).
* **SAGE006** — lock discipline: an attribute a class declares in its
  ``_guarded_by`` mapping (attribute name → guard attribute, or a tuple
  of acceptable guards) accessed outside a ``with self.<guard>:`` block.
  ``__init__`` and methods named ``*_locked`` (caller holds the lock by
  convention) are exempt.
* **SAGE007** — a known-blocking call while a lock is held:
  ``time.sleep``, joining a thread-like object, or ``.wait()`` on
  anything other than the held guard itself inside a ``with``-lock
  block.  Blocking under a lock is how the serving stack deadlocks.

Every finding fails the run.  An inline escape hatch exists for the
rare justified case: a ``# sage: allow(SAGE001)`` comment on the flagged
line.

Exit status: 0 clean, 1 violations, 2 bad usage.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.obs import names as obs_names

#: rule id -> one-line description (the lint's contract; keep in sync
#: with DESIGN.md "Static analysis & sanitizer").
RULES: dict[str, str] = {
    "SAGE001": "Python-level loop over ndarray work in a hot-path module",
    "SAGE002": "metric/span name literal not in the repro.obs.names registry",
    "SAGE003": "unseeded numpy randomness in library code",
    "SAGE004": "bare except / swallowed diagnostics in simulator layers",
    "SAGE006": "attribute declared in _guarded_by accessed without its lock",
    "SAGE007": "known-blocking call while a lock is held",
}

#: Path suffixes of the vectorized hot paths SAGE001 protects.
HOT_PATH_MODULES = (
    "core/engine.py",
    "core/scheduler.py",
    "core/tiling.py",
    "gpusim/memory.py",
)

#: Path fragments of the simulator layers SAGE004's swallowed-handler
#: check covers (bare ``except:`` is flagged everywhere).
SIMULATOR_LAYERS = (
    "repro/gpusim",
    "repro/core",
    "repro/multigpu",
    "repro/outofcore",
)

#: Method name -> registry predicate for SAGE002.
_METRIC_METHODS = {
    "count": obs_names.is_counter,
    "set_counter": obs_names.is_counter,
    "set_gauge": obs_names.is_gauge,
    "span": obs_names.is_span,
}

#: Receiver names treated as a metrics registry for SAGE002.
_METRIC_RECEIVERS = {"metrics", "registry", "run_metrics"}

_NUMPY_ALIASES = {"np", "numpy"}

#: ndarray methods returning ndarrays — arrayish-ness flows through them
#: (``np.asarray(x).ravel()`` is as arrayish as ``np.asarray(x)``).
_ARRAY_METHODS = {
    "ravel", "copy", "astype", "reshape", "flatten", "cumsum", "clip",
    "repeat", "take", "view", "squeeze", "transpose",
}


@dataclass(frozen=True)
class Violation:
    """One lint finding, sortable into stable output order."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def _is_numpy_rooted(node: ast.AST) -> bool:
    """Whether an expression is ``np.<...>`` / ``numpy.<...>``."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in _NUMPY_ALIASES


def _annotation_is_arrayish(annotation: ast.AST | None) -> bool:
    if annotation is None:
        return False
    text = ast.unparse(annotation)
    return "ndarray" in text or "NDArray" in text


def _parse_guarded_by(node: ast.ClassDef) -> dict[str, tuple[str, ...]]:
    """The class's literal ``_guarded_by`` declaration, if any.

    Maps attribute name → tuple of acceptable guard attribute names.
    Non-literal declarations are ignored (the dynamic detector still
    covers them at runtime).
    """
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "_guarded_by"
            for t in targets
        ):
            continue
        if not isinstance(value, ast.Dict):
            return {}
        out: dict[str, tuple[str, ...]] = {}
        for key, val in zip(value.keys, value.values):
            if not (
                isinstance(key, ast.Constant) and isinstance(key.value, str)
            ):
                continue
            if isinstance(val, ast.Constant) and isinstance(val.value, str):
                out[key.value] = (val.value,)
            elif isinstance(val, ast.Tuple):
                guards = tuple(
                    elt.value for elt in val.elts
                    if isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)
                )
                if guards:
                    out[key.value] = guards
        return out
    return {}


class _GuardChecker(ast.NodeVisitor):
    """Held-lock tracking over one function body (SAGE006/SAGE007).

    ``held`` mirrors the ``with self.<guard>:`` nesting at the visited
    statement (bare names containing "lock" count too, for module-level
    helpers).  Nested function and lambda bodies run later under
    unknown locks, so they reset ``held``; nested classes are checked
    against their own ``_guarded_by`` when the linter reaches them.
    """

    def __init__(
        self,
        linter: "_FileLinter",
        guarded: dict[str, tuple[str, ...]],
        check_guards: bool,
    ) -> None:
        self.linter = linter
        self.guarded = guarded
        self.check_guards = check_guards and bool(guarded)
        self.held: list[str] = []

    @staticmethod
    def _guard_name(expr: ast.AST) -> str | None:
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return expr.attr
        if isinstance(expr, ast.Name) and "lock" in expr.id.lower():
            return expr.id
        return None

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        # Context expressions evaluate before the guard is held.
        for item in node.items:
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        added = [
            guard for item in node.items
            if (guard := self._guard_name(item.context_expr)) is not None
        ]
        self.held.extend(added)
        for stmt in node.body:
            self.visit(stmt)
        if added:
            del self.held[-len(added):]

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    def _visit_deferred(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    ) -> None:
        saved, self.held = self.held, []
        body = node.body if isinstance(node.body, list) else [node.body]
        for stmt in body:
            self.visit(stmt)
        self.held = saved

    visit_FunctionDef = _visit_deferred
    visit_AsyncFunctionDef = _visit_deferred
    visit_Lambda = _visit_deferred

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass  # checked against its own _guarded_by declaration

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            self.check_guards
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            guards = self.guarded.get(node.attr)
            if guards is not None and not any(
                guard in self.held for guard in guards
            ):
                self.linter._flag(
                    "SAGE006",
                    node,
                    f"self.{node.attr} is declared _guarded_by "
                    f"{'/'.join(guards)} but is accessed with no guard "
                    f"held",
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if self.held:
            self._check_blocking(node)
        self.generic_visit(node)

    def _check_blocking(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        receiver = func.value
        if (
            func.attr == "sleep"
            and isinstance(receiver, ast.Name)
            and receiver.id == "time"
        ):
            self.linter._flag(
                "SAGE007",
                node,
                f"time.sleep() while holding {self.held[-1]}; release "
                f"the lock first",
            )
        elif func.attr == "join":
            text = ast.unparse(receiver).lower()
            if any(w in text for w in ("thread", "worker", "client")):
                self.linter._flag(
                    "SAGE007",
                    node,
                    f"joining {ast.unparse(receiver)} while holding "
                    f"{self.held[-1]} can deadlock; join outside the "
                    f"lock",
                )
        elif func.attr == "wait":
            name = self._guard_name(receiver)
            if name is None or name not in self.held:
                self.linter._flag(
                    "SAGE007",
                    node,
                    f"blocking wait on {ast.unparse(receiver)} while "
                    f"holding {self.held[-1]}; only the held guard's "
                    f"own condition may wait here",
                )


class _FileLinter(ast.NodeVisitor):
    """Single-file visitor producing :class:`Violation` records."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.lines = source.splitlines()
        self.violations: list[Violation] = []
        self.hot_path = path.replace("\\", "/").endswith(HOT_PATH_MODULES)
        normalized = path.replace("\\", "/")
        self.simulator_layer = any(
            layer in normalized for layer in SIMULATOR_LAYERS
        )
        # Scope stack entries: (arrayish-name set, exempt-from-SAGE001).
        self._scopes: list[tuple[set[str], bool]] = [(set(), False)]
        self._guarded_stack: list[dict[str, tuple[str, ...]]] = []
        self._function_depth = 0

    # -- scope helpers -------------------------------------------------

    def _allowed(self, rule: str, line: int) -> bool:
        if 1 <= line <= len(self.lines):
            return f"sage: allow({rule})" in self.lines[line - 1]
        return False

    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        if self._allowed(rule, line):
            return
        self.violations.append(Violation(self.path, line, rule, message))

    @property
    def _arrayish(self) -> set[str]:
        return self._scopes[-1][0]

    @property
    def _exempt(self) -> bool:
        return self._scopes[-1][1]

    def _push_scope(self, exempt: bool) -> None:
        # Nested scopes read enclosing arrayish names (closure-style).
        inherited = set(self._arrayish)
        self._scopes.append((inherited, exempt or self._exempt))

    def _mark_arrayish(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self._arrayish.add(target.id)

    def _is_arrayish_expr(self, node: ast.AST) -> bool:
        """Whether an expression evidently evaluates to an ndarray."""
        if isinstance(node, ast.Name):
            return node.id in self._arrayish
        if isinstance(node, ast.Call):
            if _is_numpy_rooted(node.func):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _ARRAY_METHODS
            ):
                return self._is_arrayish_expr(node.func.value)
        return False

    # -- definitions ---------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._push_scope(node.name.startswith("Reference"))
        self._guarded_stack.append(_parse_guarded_by(node))
        self.generic_visit(node)
        self._guarded_stack.pop()
        self._scopes.pop()

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        if self._function_depth == 0:
            # Methods and top-level functions each get one guard pass;
            # the checker handles nested defs itself (held resets).
            guarded = (
                self._guarded_stack[-1] if self._guarded_stack else {}
            )
            check = not (
                node.name == "__init__" or node.name.endswith("_locked")
            )
            checker = _GuardChecker(self, guarded, check)
            for stmt in node.body:
                checker.visit(stmt)
        self._push_scope(node.name.endswith("_reference"))
        all_args = (
            list(node.args.posonlyargs)
            + list(node.args.args)
            + list(node.args.kwonlyargs)
        )
        for arg in all_args:
            if _annotation_is_arrayish(arg.annotation):
                self._arrayish.add(arg.arg)
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_arrayish_expr(node.value):
            for target in node.targets:
                self._mark_arrayish(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if _annotation_is_arrayish(node.annotation) or (
            node.value is not None and self._is_arrayish_expr(node.value)
        ):
            self._mark_arrayish(node.target)
        self.generic_visit(node)

    # -- SAGE001: interpreter loops over array work --------------------

    def _iter_is_array_work(self, node: ast.AST) -> str | None:
        """Why iterating ``node`` is ndarray work, or None."""
        if self._is_arrayish_expr(node):
            return "iterates an ndarray element-wise"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "range":
                for arg in node.args:
                    if self._range_arg_is_array_extent(arg):
                        return "loops over an ndarray extent via range()"
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "tolist"
                and self._is_arrayish_expr(func.value)
            ):
                return "materializes an ndarray with .tolist()"
        return None

    def _range_arg_is_array_extent(self, arg: ast.AST) -> bool:
        if (
            isinstance(arg, ast.Call)
            and isinstance(arg.func, ast.Name)
            and arg.func.id == "len"
            and arg.args
            and self._is_arrayish_expr(arg.args[0])
        ):
            return True
        node = arg
        if isinstance(node, ast.Subscript):  # x.shape[0]
            node = node.value
        if isinstance(node, ast.Attribute) and node.attr in ("size", "shape"):
            return self._is_arrayish_expr(node.value)
        return False

    def visit_For(self, node: ast.For) -> None:
        if self.hot_path and not self._exempt:
            reason = self._iter_is_array_work(node.iter)
            if reason is not None:
                self._flag(
                    "SAGE001",
                    node,
                    f"Python for-loop {reason} in a hot-path module; "
                    f"vectorize or mark the enclosing scope as a "
                    f"reference implementation",
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._check_sage002(node)
        self._check_sage003(node)
        if (
            self.hot_path
            and not self._exempt
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "tolist"
            and self._is_arrayish_expr(node.func.value)
        ):
            self._flag(
                "SAGE001",
                node,
                "ndarray.tolist() in a hot-path module pulls the batch "
                "into the interpreter",
            )
        self.generic_visit(node)

    # -- SAGE002: metric names must resolve against the registry -------

    def _metric_receiver(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in _METRIC_RECEIVERS
        if isinstance(node, ast.Attribute):  # self.metrics, run.metrics
            return node.attr in _METRIC_RECEIVERS
        return False

    def _check_sage002(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        predicate = _METRIC_METHODS.get(func.attr)
        if predicate is None or not self._metric_receiver(func.value):
            return
        if not node.args:
            return
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            return  # dynamic names are the caller's responsibility
        if not predicate(first.value):
            self._flag(
                "SAGE002",
                node,
                f"{func.attr}({first.value!r}) does not resolve against "
                f"repro.obs.names; register the name or fix the typo",
            )

    # -- SAGE003: determinism ------------------------------------------

    def _check_sage003(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if (
                func.attr not in ("default_rng", "Generator", "SeedSequence")
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "random"
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in _NUMPY_ALIASES
            ):
                self._flag(
                    "SAGE003",
                    node,
                    f"legacy np.random.{func.attr}() uses hidden global "
                    f"state; use a seeded np.random.default_rng()",
                )
                return
        name = (
            func.attr
            if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name) else None
        )
        if name == "default_rng" and not node.args and not node.keywords:
            self._flag(
                "SAGE003",
                node,
                "default_rng() without a seed is nondeterministic; pass "
                "an explicit seed in library code",
            )

    # -- SAGE004: swallowed diagnostics --------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._flag(
                "SAGE004",
                node,
                "bare except: catches SystemExit/KeyboardInterrupt too; "
                "name the exceptions",
            )
        elif self.simulator_layer and self._swallows(node):
            caught = ast.unparse(node.type)
            if caught in ("Exception", "BaseException"):
                self._flag(
                    "SAGE004",
                    node,
                    f"except {caught}: pass swallows simulator "
                    f"diagnostics; handle or re-raise",
                )
        self.generic_visit(node)

    @staticmethod
    def _swallows(node: ast.ExceptHandler) -> bool:
        return all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            )
            for stmt in node.body
        )


def lint_file(path: Path, root: Path) -> list[Violation]:
    """Lint one file; ``root`` anchors the reported relative path."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        rel = _rel(path, root)
        return [
            Violation(rel, exc.lineno or 1, "SAGE000", f"syntax error: {exc.msg}")
        ]
    linter = _FileLinter(_rel(path, root), source)
    linter.visit(tree)
    return linter.violations


def _rel(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_paths(paths: list[Path], root: Path) -> list[Violation]:
    """Lint every ``.py`` file under the given paths, stably ordered."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    violations: list[Violation] = []
    for file in files:
        violations.extend(lint_file(file, root))
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("paths", nargs="+", help="files or directories to lint")
    parser.add_argument("--root", default=".", metavar="DIR",
                        help="directory violations paths are relative to "
                             "(default: cwd)")
    args = parser.parse_args(argv)

    violations = lint_paths([Path(p) for p in args.paths], Path(args.root))
    for violation in violations:
        print(violation)
    if violations:
        print(f"{len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
