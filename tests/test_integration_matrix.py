"""Integration matrix: every app x every execution environment.

Scheduling strategies, out-of-core runners and the multi-GPU runner must
all be semantically transparent: for any app and graph, results equal the
single-reference run (and the networkx oracle where one exists).
"""

import numpy as np
import pytest

from repro.apps import (
    BCApp,
    BFSApp,
    ConnectedComponentsApp,
    LabelPropagationApp,
    PageRankApp,
    SSSPApp,
)
from repro.baselines import (
    B40CScheduler,
    GunrockScheduler,
    LigraRunner,
    ThreadPerNodeScheduler,
    TigrScheduler,
)
from repro.core import SageScheduler, run_app
from repro.graph import datasets
from repro.multigpu import MultiGpuRunner, metis_like
from repro.outofcore import SageOutOfCoreRunner, SubwayRunner

APPS = [
    ("bfs", BFSApp, True),
    ("bc", BCApp, True),
    ("pr", lambda: PageRankApp(max_iterations=8), False),
    ("cc", ConnectedComponentsApp, False),
    ("sssp", SSSPApp, True),
    ("lp", LabelPropagationApp, False),
]

SCHEDULERS = [
    ThreadPerNodeScheduler,
    B40CScheduler,
    TigrScheduler,
    GunrockScheduler,
    SageScheduler,
]


@pytest.fixture(scope="module")
def graphs():
    return {ds.name: ds.graph for ds in datasets.full_suite(0.08)}


def reference(app_factory, graph, source):
    result = run_app(graph, app_factory(), GunrockScheduler(), source=source)
    return result.result


def assert_same_results(got, expected):
    assert set(got) == set(expected)
    for key in expected:
        if np.issubdtype(np.asarray(expected[key]).dtype, np.floating):
            assert np.allclose(got[key], expected[key], atol=1e-9), key
        else:
            assert np.array_equal(got[key], expected[key]), key


@pytest.mark.parametrize("app_name,app_factory,needs_source", APPS)
@pytest.mark.parametrize("scheduler_factory", SCHEDULERS)
def test_scheduler_matrix(app_name, app_factory, needs_source,
                          scheduler_factory, graphs):
    graph = graphs["twitter"]
    source = 1 if needs_source else None
    expected = reference(app_factory, graph, source)
    got = run_app(graph, app_factory(), scheduler_factory(),
                  source=source).result
    assert_same_results(got, expected)


@pytest.mark.parametrize("app_name,app_factory,needs_source", APPS)
def test_out_of_core_matrix(app_name, app_factory, needs_source, graphs):
    graph = graphs["ljournal"]
    source = 1 if needs_source else None
    expected = reference(app_factory, graph, source)
    for runner in (SubwayRunner(), SageOutOfCoreRunner(device_fraction=0.3)):
        got = runner.run(graph, app_factory(), source).result
        assert_same_results(got, expected)


@pytest.mark.parametrize("app_name,app_factory,needs_source", APPS)
def test_multigpu_matrix(app_name, app_factory, needs_source, graphs):
    graph = graphs["friendster"]
    source = 1 if needs_source else None
    expected = reference(app_factory, graph, source)
    runner = MultiGpuRunner(SageScheduler, metis_like(graph, 2))
    got = runner.run(graph, app_factory(), source).result
    assert_same_results(got, expected)


@pytest.mark.parametrize("dataset", ["uk-2002", "brain", "ljournal",
                                     "twitter", "friendster"])
def test_bfs_on_every_dataset(dataset, graphs):
    graph = graphs[dataset]
    source = int(np.argmax(graph.out_degrees()))
    expected = reference(BFSApp, graph, source)
    for scheduler_factory in SCHEDULERS:
        got = run_app(graph, BFSApp(), scheduler_factory(),
                      source=source).result
        assert_same_results(got, expected)
    ligra = LigraRunner().run(graph, BFSApp(), source).result
    assert_same_results(ligra, expected)
