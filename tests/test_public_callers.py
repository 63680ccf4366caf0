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
