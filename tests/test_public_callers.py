"""Every public function, class and method in ``src/`` has a caller.

A public name must be named somewhere in ``src/``, ``benchmarks/``,
``examples/`` or ``perfbench/`` other than at its own definition, or in
``docs/api.md``, which says whom each kept-but-uncalled name serves.
Tests do not count as callers.  The ``*_reference`` oracles and the
``visit_*`` methods that ``ast.NodeVisitor`` dispatches by name are
exempt.
"""

from __future__ import annotations

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLER_TREES = ("src", "benchmarks", "examples", "perfbench")

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCTIONS, ast.ClassDef)


def public_definitions(tree: ast.Module):
    """``(name, line)`` of each public top-level function or class and
    each public method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _FUNCTIONS):
                    yield member.name, member.lineno


def exempt(name: str) -> bool:
    return (
        name.startswith("_")
        or name.endswith("_reference")
        or name.startswith("visit_")
    )


def _docstrings(tree: ast.Module) -> set[int]:
    nodes = [tree, *(n for n in ast.walk(tree) if isinstance(n, _DEFS))]
    return {
        id(node.body[0].value)
        for node in nodes
        if node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def _export_lists(tree: ast.Module) -> set[int]:
    return {
        id(child)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets)
        for child in ast.walk(node.value)
    }


def _read_names(node: ast.AST, skipped: set[int]) -> list[str]:
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return [node.id]
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return [node.attr]
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in skipped
    ):
        return _IDENTIFIER.findall(node.value)
    return []


def names_used(tree: ast.Module):
    """``(name, enclosing)`` for every name a module reads: loaded names
    and attributes, and the identifiers inside its string literals
    (``getattr`` tables such as perfbench's ``LAYER_HOOKS`` name methods
    as strings).  ``enclosing`` holds the names of the top-level
    definition and method the read sits in, so a definition that only
    names itself (recursion, its own error message) is not its own
    caller.  Imports, docstrings and ``__all__`` are not reads."""
    skipped = _docstrings(tree) | _export_lists(tree)

    def reads(node: ast.AST, enclosing: frozenset[str]):
        for child in ast.walk(node):
            for name in _read_names(child, skipped):
                yield name, enclosing

    for node in tree.body:
        if not isinstance(node, _DEFS):
            yield from reads(node, frozenset())
        elif isinstance(node, ast.ClassDef):
            owner = frozenset({node.name})
            for part in (*node.decorator_list, *node.bases, *node.keywords):
                yield from reads(part, owner)
            for member in node.body:
                if isinstance(member, _FUNCTIONS):
                    yield from reads(member, owner | {member.name})
                else:
                    yield from reads(member, owner)
        else:
            yield from reads(node, frozenset({node.name}))


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def uncalled(root: pathlib.Path = ROOT) -> list[str]:
    """``file:line name`` of each public definition nobody names."""
    readers: dict[str, set[tuple[pathlib.Path, frozenset[str]]]] = {}
    for tree_name in CALLER_TREES:
        for path in sorted((root / tree_name).rglob("*.py")):
            for name, enclosing in names_used(_parse(path)):
                readers.setdefault(name, set()).add((path, enclosing))
    documented = set(
        _IDENTIFIER.findall((root / "docs" / "api.md").read_text("utf-8"))
    )
    missing = []
    for path in sorted((root / "src").rglob("*.py")):
        for name, line in public_definitions(_parse(path)):
            if exempt(name) or name in documented:
                continue
            if any(
                reader != path or name not in enclosing
                for reader, enclosing in readers.get(name, ())
            ):
                continue
            missing.append(f"{path.relative_to(root)}:{line} {name}")
    return missing


def test_every_public_name_has_a_caller_or_a_documented_reader():
    missing = uncalled()
    assert not missing, (
        "public code with no caller in src/, benchmarks/, examples/ or "
        "perfbench/ and no line in docs/api.md (delete it, or document "
        "whom it serves):\n  " + "\n  ".join(missing)
    )


def _tree(tmp_path: pathlib.Path, src: str, caller: str = "") -> pathlib.Path:
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(src, encoding="utf-8")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "use.py").write_text(caller, encoding="utf-8")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "api.md").write_text("`documented`\n", "utf-8")
    return tmp_path


@pytest.mark.parametrize("src, caller, expected", [
    ("def lonely():\n    pass\n", "", ["lonely"]),
    ("def used():\n    pass\n", "from pkg.mod import used\nused()\n", []),
    ("class Box:\n    def size(self):\n        return 1\n",
     "Box\n", ["size"]),
    ("class Box:\n    def size(self):\n        return 1\n",
     "Box().size()\n", []),
    ("def documented():\n    pass\n", "", []),
    ("def exact_reference():\n    pass\n", "", []),
    ("class V:\n    def visit_Name(self, node):\n        pass\n", "V\n", []),
    ("def hooked():\n    pass\n", "HOOKS = ('hooked',)\n", []),
    ("def only_exported():\n    pass\n",
     "from pkg.mod import only_exported\n__all__ = ['only_exported']\n",
     ["only_exported"]),
    ('def described():\n    """Calls described()."""\n', "", ["described"]),
    ("def checked(n):\n    raise ValueError('checked needs n')\n", "",
     ["checked"]),
    ("class Box:\n    def size(self):\n        return self.size()\n",
     "Box\n", ["size"]),
    ("class Box:\n    def a(self):\n        return self.b()\n"
     "    def b(self):\n        return 1\n", "Box().a()\n", []),
], ids=["uncalled", "called", "uncalled-method", "called-method",
        "documented", "reference-oracle", "visitor-dispatch",
        "string-table", "re-export-only", "own-docstring",
        "own-error-message", "recursion", "sibling-method"])
def test_the_census_rules(tmp_path, src, caller, expected):
    found = uncalled(_tree(tmp_path, src, caller))
    assert [entry.split()[-1] for entry in found] == expected
    assert all(entry.startswith("src/pkg/mod.py:") for entry in found)



# Options: every defaulted parameter of a public function, method or
# constructor, and every defaulted field of a ``*Config`` dataclass, is
# set by some caller in ``src/``, ``benchmarks/`` or ``perfbench/``, or
# has a row in docs/api.md's "Options kept without a setter" table.

SETTER_TREES = ("src", "benchmarks", "perfbench")
_KEPT_HEADING = "## Options kept without a setter"
_KEPT_OPTION = re.compile(r"`(\w+(?:\.\w+)?)\((\w+)=\)`")
_EVERY = 1 << 30


def _decorators(node: ast.AST) -> set[str]:
    return {
        name
        for d in node.decorator_list
        for name in _read_names(d.func if isinstance(d, ast.Call) else d, set())
    }


def _signature(node: ast.AST, bound: bool) -> tuple[list[str], list[str]]:
    """``(positional, defaulted)`` parameter names of a function, less a
    bound ``self``/``cls``."""
    args = node.args
    positional = [a.arg for a in (*args.posonlyargs, *args.args)]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
        if d is not None
    ]
    return positional[1:] if bound else positional, defaulted


def options(tree: ast.Module):
    """``(callee, qualname, positional, defaulted, line, is_function)``
    of each public function, method, constructor and ``*Config``
    dataclass.  ``callee`` is the name a call spells: the function or
    method name, or the class name for a constructor."""
    for node in tree.body:
        if isinstance(node, _FUNCTIONS) and not exempt(node.name):
            yield (node.name, node.name, *_signature(node, False),
                   node.lineno, True)
        if not isinstance(node, ast.ClassDef) or exempt(node.name):
            continue
        if node.name.endswith("Config") and "dataclass" in _decorators(node):
            fields = [
                m for m in node.body
                if isinstance(m, ast.AnnAssign)
                and isinstance(m.target, ast.Name)
            ]
            yield (node.name, node.name, [f.target.id for f in fields],
                   [f.target.id for f in fields if f.value is not None],
                   node.lineno, False)
        for member in node.body:
            if not isinstance(member, _FUNCTIONS):
                continue
            bound = "staticmethod" not in _decorators(member)
            if member.name == "__init__":
                yield (node.name, node.name, *_signature(member, bound),
                       member.lineno, False)
            elif not exempt(member.name):
                yield (member.name, f"{node.name}.{member.name}",
                       *_signature(member, bound), member.lineno, True)


class Setters:
    """What the calls of a set of modules pass, keyed by callee name:
    the keywords, the most positional arguments, whether a ``**`` splat
    reaches it (which sets every parameter), and whether the name is
    stored by reference (which sets its positional parameters)."""

    def __init__(self) -> None:
        self.keywords: dict[str, set[str]] = {}
        self.positional: dict[str, int] = {}
        self.splatted: set[str] = set()
        self.referenced: set[str] = set()

    def _call(self, callees: list[str], call: ast.Call, skip: int) -> None:
        args = call.args[skip:]
        count = (_EVERY if any(isinstance(a, ast.Starred) for a in args)
                 else len(args))
        for callee in callees:
            self.positional[callee] = max(self.positional.get(callee, 0),
                                          count)
            words = self.keywords.setdefault(callee, set())
            for keyword in call.keywords:
                if keyword.arg is None:
                    self.splatted.add(callee)
                words.add(keyword.arg)

    def add(self, tree: ast.Module) -> None:
        called: set[int] = set()

        def visit(node: ast.AST, cls: str, bases: list[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, child.name, [
                        name for b in child.bases
                        for name in _read_names(b, set())
                    ])
                    continue
                if isinstance(child, ast.Call):
                    called.add(id(child.func))
                    func = child.func
                    if (isinstance(func, ast.Attribute)
                            and func.attr == "__init__"):
                        callees = bases
                    elif isinstance(func, ast.Name) and func.id == "cls":
                        callees = [cls]
                    else:
                        callees = _read_names(func, set())
                    if callees == ["partial"] and child.args:
                        self._call(_read_names(child.args[0], set()),
                                   child, 1)
                    else:
                        self._call(callees, child, 0)
                visit(child, cls, bases)

        visit(tree, "", [])
        for node in ast.walk(tree):
            if id(node) not in called and isinstance(
                    getattr(node, "ctx", None), ast.Load):
                self.referenced.update(_read_names(node, set()))

    def sets(self, callee: str, positional: list[str], param: str,
             is_function: bool) -> bool:
        if callee in self.splatted or param in self.keywords.get(callee, ()):
            return True
        if param in positional and (
            positional.index(param) < self.positional.get(callee, 0)
            or (is_function and callee in self.referenced)
        ):
            return True
        return False


def kept_options(root: pathlib.Path = ROOT) -> set[tuple[str, str]]:
    """``(qualname, parameter)`` rows of docs/api.md's "Options kept
    without a setter" table."""
    text = (root / "docs" / "api.md").read_text("utf-8")
    if _KEPT_HEADING not in text:
        return set()
    section = text.split(_KEPT_HEADING, 1)[1].split("\n## ", 1)[0]
    return set(_KEPT_OPTION.findall(section))


def unset_options(root: pathlib.Path = ROOT) -> tuple[int, list[str], list[str]]:
    """``(count, missing, stale)``: how many options the census counts;
    ``file:line owner(param=)`` of each that nothing sets and the table
    does not name; and each table row that names no unset option."""
    setters = Setters()
    for tree_name in SETTER_TREES:
        for path in sorted((root / tree_name).rglob("*.py")):
            setters.add(_parse(path))
    kept = kept_options(root)
    unset: set[tuple[str, str]] = set()
    total, missing = 0, []
    for path in sorted((root / "src").rglob("*.py")):
        for callee, qualname, positional, defaulted, line, is_function in (
            options(_parse(path))
        ):
            for param in defaulted:
                total += 1
                if setters.sets(callee, positional, param, is_function):
                    continue
                unset.add((qualname, param))
                if (qualname, param) not in kept:
                    missing.append(
                        f"{path.relative_to(root)}:{line} {qualname}({param}=)"
                    )
    stale = sorted(f"{owner}({param}=)" for owner, param in kept - unset)
    return total, missing, stale


def test_every_option_has_a_setter():
    _, missing, stale = unset_options()
    assert not missing, (
        "defaulted options that nothing in src/, benchmarks/ or perfbench/ "
        "sets (fold each into a constant equal to its default, or add a "
        "row to docs/api.md's \"Options kept without a setter\"):\n  "
        + "\n  ".join(missing)
    )
    assert not stale, (
        "rows of docs/api.md's \"Options kept without a setter\" that name "
        "no unset option:\n  " + "\n  ".join(stale)
    )


def _options_tree(tmp_path: pathlib.Path, src: str, caller: str = "",
                  kept: str = "") -> pathlib.Path:
    for tree_name in ("src/pkg", "benchmarks", "perfbench", "docs"):
        (tmp_path / tree_name).mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(src, encoding="utf-8")
    (tmp_path / "benchmarks" / "use.py").write_text(caller, encoding="utf-8")
    (tmp_path / "docs" / "api.md").write_text(
        f"{_KEPT_HEADING}\n\n| option | whom |\n|---|---|\n{kept}\n", "utf-8"
    )
    return tmp_path


@pytest.mark.parametrize("src, caller, kept, expected", [
    ("def f(x, y=1):\n    pass\n", "f(0)\n", "", ["f(y=)"]),
    ("def f(x, y=1):\n    pass\n", "f(0, 2)\n", "", []),
    ("def f(x, *, y=1):\n    pass\n", "f(0, y=2)\n", "", []),
    ("def f(x, *, y=1):\n    pass\n", "", "| `f(y=)` | tests |", []),
    ("def f(x, *, y=1):\n    pass\n", "f(0, y=2)\n", "| `f(y=)` | tests |",
     ["stale f(y=)"]),
    ("def f(x, y=1):\n    pass\n", "TABLE = {'f': f}\n", "", []),
    ("def f(x, *, y=1):\n    pass\n", "TABLE = {'f': f}\n", "", ["f(y=)"]),
    ("def f(x, *, y=1):\n    pass\n", "f(**kwargs)\n", "", []),
    ("class Box:\n    def __init__(self, size=1):\n        pass\n",
     "Box()\n", "", ["Box(size=)"]),
    ("class Box:\n    def __init__(self, size=1):\n        pass\n",
     "Box(3)\n", "", []),
    ("class Box:\n    def grow(self, by=1):\n        pass\n",
     "Box().grow(by=2)\n", "", []),
    ("class Box:\n    def __init__(self, size=1):\n        pass\n"
     "class Big(Box):\n    def __init__(self):\n"
     "        super().__init__(size=9)\n", "Big()\n", "", []),
    ("from dataclasses import dataclass\n@dataclass\nclass RunConfig:\n"
     "    depth: int = 1\n", "RunConfig()\n", "", ["RunConfig(depth=)"]),
    ("def _private(y=1):\n    pass\n", "", "", []),
], ids=["unset", "positional", "keyword", "kept", "kept-but-set",
        "stored-by-reference", "reference-not-keyword", "splat",
        "constructor", "constructor-positional", "method", "super-init",
        "config-field", "private"])
def test_the_options_census_rules(tmp_path, src, caller, kept, expected):
    _, missing, stale = unset_options(_options_tree(tmp_path, src, caller, kept))
    assert [entry.split()[-1] for entry in missing] + [
        f"stale {entry}" for entry in stale
    ] == expected
