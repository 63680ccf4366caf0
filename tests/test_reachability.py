"""The rules of the execution census (``benchmarks/reachability.py``),
checked over a throwaway package: which definitions it counts, which
entered code it credits to each, what it exempts, and when it fails.
The census itself runs whole programs and is a CI step, not a test."""

from __future__ import annotations

import importlib
import importlib.util
import pathlib
import sys
import uuid

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "reachability.py"


def _load():
    spec = importlib.util.spec_from_file_location("reachability", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


reachability = _load()

MODULE = '''\
import abc
import functools


def traced(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


@traced
def decorated():
    return 1


def outer():
    def inner():
        return 2

    return inner


class Box:
    @property
    def size(self):
        return 3

    def via_alias(self):
        return 4

    def shared(self):
        return 5


class Crate:
    def shared(self):
        return 6


class Base(abc.ABC):
    @abc.abstractmethod
    def must(self):
        """Subclasses say."""

    def stub(self):
        """Not yet."""
        raise NotImplementedError


# Built at import, outside the census: only ``inner`` runs under it.
made = outer()
'''


@pytest.fixture
def package(tmp_path, monkeypatch):
    """``(package dir, module)`` of a fresh package holding MODULE."""
    name = f"census_{uuid.uuid4().hex}"
    root = tmp_path / "src" / name
    root.mkdir(parents=True)
    (root / "__init__.py").write_text("", encoding="utf-8")
    (root / "mod.py").write_text(MODULE, encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    yield root, importlib.import_module(f"{name}.mod")
    for module in [m for m in sys.modules if m.startswith(name)]:
        del sys.modules[module]


def _api_md(tmp_path: pathlib.Path, *names: str) -> pathlib.Path:
    rows = "".join(f"| `{name}` | a reader |\n" for name in names)
    path = tmp_path / "api.md"
    path.write_text(
        f"{reachability.TABLE_HEADING}\n\n| item | reader |\n|---|---|\n{rows}",
        encoding="utf-8",
    )
    return path


def _calls(mod):
    def entry():
        mod.decorated()
        mod.made()
        assert mod.Box().size == 3
        alias = mod.Box().via_alias
        alias()
        mod.Box().shared()

    return entry


def test_entered_code_is_credited_to_its_definition(package, tmp_path):
    root, mod = package
    found = reachability.census(root, _api_md(tmp_path, "Crate.shared"), [("calls", _calls(mod))])
    prefix = f"{root.name}.mod."
    # The abstract method and the NotImplementedError stub are exempt.
    assert sorted(d.name.removeprefix(prefix) for d in found.definitions) == [
        "Box.shared",
        "Box.size",
        "Box.via_alias",
        "Crate.shared",
        "decorated",
        "outer",
        "traced",
    ]
    # Only ``inner`` ran of ``outer``; the same-named ``Box.shared`` ran.
    assert [d.name for d in found.unreached] == [f"{prefix}Crate.shared"]
    assert found.ok


def test_an_unreached_definition_needs_a_row(package, tmp_path):
    root, mod = package
    found = reachability.census(root, _api_md(tmp_path), [("calls", _calls(mod))])
    assert [d.name for d in found.missing] == [f"{root.name}.mod.Crate.shared"]
    assert not found.ok


def test_a_stale_row_fails(package, tmp_path):
    root, mod = package
    rows = _api_md(tmp_path, "Crate.shared", "Box.size", "Gone", "mod.Box")
    found = reachability.census(root, rows, [("calls", _calls(mod))])
    assert not found.missing
    assert [row.split(":")[0] for row in found.stale] == ["Box.size", "Gone", "mod.Box"]
    assert not found.ok


def _raise():
    raise RuntimeError("broken")


@pytest.mark.parametrize(
    "entry, fails",
    [
        (lambda: None, False),
        (lambda: 0, False),
        (lambda: sys.exit(0), False),
        (lambda: 2, True),
        (lambda: sys.exit(1), True),
        (lambda: sys.exit("usage"), True),
        (_raise, True),
    ],
    ids=["none", "zero", "exit-0", "returns-2", "exit-1", "exit-message", "raises"],
)
def test_an_entry_that_exits_non_zero_fails(package, tmp_path, capsys, entry, fails):
    root, mod = package
    found = reachability.census(
        root,
        _api_md(tmp_path, "Crate.shared"),
        [("calls", _calls(mod)), ("entry", entry)],
    )
    assert found.failed == (["entry"] if fails else [])
    assert found.ok is not fails
    assert ("entry failed: entry" in capsys.readouterr().out) is fails
