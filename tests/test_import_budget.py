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


@pytest.fixture(scope="module")
def probe():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(FORBIDDEN)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(done.stdout.splitlines()[-1])


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
