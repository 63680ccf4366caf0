"""Import budget: ``import repro`` loads only the traversal stack.

A subsystem outside the traversal path (serving, tuning, analysis, the
out-of-core and multi-GPU runners, scipy) is imported by the function
that uses it.  The probe runs in a fresh interpreter, because this
process already has most of the package (and scipy) loaded.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Module prefixes ``import repro`` and traversal queries must not load.
FORBIDDEN = (
    "scipy",
    "repro.serve",
    "repro.tune",
    "repro.analysis",
    "repro.bench",
    "repro.outofcore",
    "repro.multigpu",
    "repro.reorder",
)

#: ``repro.*`` modules loaded by ``import repro`` when this budget was set.
MAX_REPRO_MODULES = 62

PROBE = """
import json, sys

FORBIDDEN = tuple(json.loads(sys.argv[1]))

def snapshot():
    names = sorted(sys.modules)
    return {
        "repro": [m for m in names if m == "repro" or m.startswith("repro.")],
        "forbidden": [
            m for m in names
            if any(m == p or m.startswith(p + ".") for p in FORBIDDEN)
        ],
    }

import repro
after_import = snapshot()

from repro import api
from repro.graph.generators import grid_2d

graph = grid_2d(8, 8)
for app in ("bfs", "sssp", "cc", "pr"):
    api.run(graph, app, scheduler="sage")
api.run(graph, "bfs", scheduler="sage-sr")
after_queries = snapshot()

from repro.graph.dynamic import DynamicGraph

delta = api.update(DynamicGraph(grid_2d(8, 8)), insert=([0], [63]))
print(json.dumps({
    "after_import": after_import,
    "after_queries": after_queries,
    "update_inserted": delta.num_inserted,
}))
"""


#: What a fresh ``import repro.serve`` loads of ``repro.analysis``.
SERVE_PROBE = """
import json, sys

import repro.serve

print(json.dumps(sorted(
    m for m in sys.modules
    if m == "repro.analysis" or m.startswith("repro.analysis.")
)))
"""


def run_probe(*argv: str):
    """Run a probe script in a fresh interpreter; its last stdout line
    is JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def probe():
    return run_probe(PROBE, json.dumps(FORBIDDEN))


def test_import_repro_loads_no_subsystem_outside_traversal(probe):
    assert probe["after_import"]["forbidden"] == []


def test_import_repro_module_count_within_budget(probe):
    assert len(probe["after_import"]["repro"]) <= MAX_REPRO_MODULES


def test_traversal_queries_load_nothing_deferred(probe):
    """The saving is not moved into the first query."""
    assert probe["after_queries"]["forbidden"] == []
    assert probe["after_queries"]["repro"] == probe["after_import"]["repro"]


def test_deferred_import_works_on_first_use(probe):
    """``api.update`` imports its subsystem itself, with none loaded before."""
    assert probe["update_inserted"] == 1


def test_serving_stack_loads_no_analysis_module():
    """The serving stack carries no sanitizer or detector:
    ``import repro.serve`` loads no ``repro.analysis`` module."""
    assert run_probe(SERVE_PROBE) == []
