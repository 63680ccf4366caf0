"""Golden pins for every runner built on the expansion-filtering-
contraction loop.

Each case runs one runner over one app on a small seeded R-MAT and pins
the run bit-for-bit: ``seconds.hex()``, iterations, traversed edges,
and digests of the result arrays, ``extras``, the profiler fields, the
``node_trace`` and the metrics registry's counters and gauges.  Any
change to how a level is expanded, filtered, contracted or priced moves
at least one of these.

If a change to the cost model is intentional, update the pins together
with a re-run of the benchmark suite (the figures depend on them).
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.apps import BFSApp, PageRankApp, SSSPApp
from repro.baselines import LigraRunner
from repro.baselines.gunrock import GunrockScheduler
from repro.core import SageScheduler, TraversalPipeline
from repro.gpusim import replay_cache_trace
from repro.graph import generators
from repro.multigpu.partition import chunk_partition, metis_like
from repro.multigpu.runner import MultiGpuRunner
from repro.obs import MetricsRegistry
from repro.outofcore.runners import (
    OnDemandUMRunner,
    SageOutOfCoreRunner,
    SubwayRunner,
)

APPS = {
    "bfs": BFSApp,
    "sssp": SSSPApp,
    "pr": lambda: PageRankApp(max_iterations=12),
}


def _graph():
    # A fresh graph object per case: node tables are cached per graph
    # object, and their build counter is part of the pinned metrics.
    return generators.rmat(8, 8, seed=3)


def _digest(value) -> str:
    h = hashlib.sha256()
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())
    return h.hexdigest()[:16]


def _in_core(scheduler_factory, *, repeat: int = 1):
    def run(graph, app, metrics):
        pipeline = TraversalPipeline(graph, scheduler_factory(), metrics=metrics)
        for _ in range(repeat - 1):
            pipeline.run(APPS[app](), 0)
        return pipeline.run(APPS[app](), 0)

    return run


def _runner(factory):
    def run(graph, app, metrics):
        return factory(graph, metrics).run(graph, APPS[app](), 0)

    return run


RUNNERS = {
    "sage": _in_core(SageScheduler),
    "sage-sr": _in_core(
        lambda: SageScheduler(sampling_reorder=True, reorder_threshold_edges=256)
    ),
    # Each run of a reused pipeline reports its own trace's seconds.
    "sage-sr-reused": _in_core(
        lambda: SageScheduler(sampling_reorder=True, reorder_threshold_edges=256),
        repeat=2,
    ),
    "subway": _runner(lambda g, m: SubwayRunner(device_fraction=0.25, metrics=m)),
    "sage-ooc": _runner(
        lambda g, m: SageOutOfCoreRunner(device_fraction=0.25, metrics=m)
    ),
    # Out-of-core runners never commit a reordering, even when their
    # scheduler would offer one.
    "sage-ooc-sr": _runner(
        lambda g, m: SageOutOfCoreRunner(
            device_fraction=0.25,
            scheduler=SageScheduler(
                sampling_reorder=True, reorder_threshold_edges=256
            ),
            metrics=m,
        )
    ),
    "um": _runner(lambda g, m: OnDemandUMRunner(device_fraction=0.25, metrics=m)),
    "multi-1": _runner(
        lambda g, m: MultiGpuRunner(
            SageScheduler, chunk_partition(g.num_nodes, 1), num_gpus=1, metrics=m
        )
    ),
    "multi-2-sync": _runner(
        lambda g, m: MultiGpuRunner(
            GunrockScheduler, chunk_partition(g.num_nodes, 2), num_gpus=2, metrics=m
        )
    ),
    "multi-2-async-metis": _runner(
        lambda g, m: MultiGpuRunner(
            SageScheduler, metis_like(g, 2), num_gpus=2, async_mode=True, metrics=m
        )
    ),
    # ...and neither do multi-GPU runners.
    "multi-2-sr": _runner(
        lambda g, m: MultiGpuRunner(
            lambda: SageScheduler(sampling_reorder=True, reorder_threshold_edges=256),
            chunk_partition(g.num_nodes, 2),
            num_gpus=2,
            metrics=m,
        )
    ),
    "ligra": _runner(lambda g, m: LigraRunner()),
}


def fingerprint(runner: str, app: str) -> dict:
    """The pinned view of one run."""
    graph = _graph()
    metrics = MetricsRegistry()
    result = RUNNERS[runner](graph, app, metrics)
    return {
        "seconds": result.seconds.hex(),
        "iterations": result.iterations,
        "edges": result.edges_traversed,
        "commits": result.reorder_commits,
        "result": _digest(
            [(k, _digest(np.asarray(v))) for k, v in sorted(result.result.items())]
        ),
        "extras": _digest(sorted(result.extras.items())),
        "profiler": _digest(dataclasses.asdict(result.profiler)),
        "trace": _digest([dataclasses.astuple(n) for n in result.node_trace]),
        "metrics": _digest(
            (sorted(metrics.counters.items()), sorted(metrics.gauges.items()))
        ),
    }


def cache_fingerprint(app: str) -> dict:
    report = replay_cache_trace(_graph(), APPS[app](), 0, capacity_sectors=64)
    return dataclasses.asdict(report)


GOLDEN: dict[tuple[str, str], dict] = {
    ('sage', 'bfs'): {
        'seconds': '0x1.1f8eb8e5f3fd8p-18',
        'iterations': 4,
        'edges': 1435,
        'commits': 0,
        'result': '17d9060a4b103c92',
        'extras': '4f53cda18c2baa0c',
        'profiler': '92ec712a054f26cd',
        'trace': 'c2c3ef0b27e79acf',
        'metrics': '233578fa616b6db8',
    },
    ('sage', 'sssp'): {
        'seconds': '0x1.1fe1e11587fe7p-18',
        'iterations': 4,
        'edges': 1436,
        'commits': 0,
        'result': '7ac59d4d224f4518',
        'extras': '4f53cda18c2baa0c',
        'profiler': 'fce1fa13f16c32ef',
        'trace': '0273bf9fc0ca60c3',
        'metrics': '2d923ea2fe048871',
    },
    ('sage', 'pr'): {
        'seconds': '0x1.b1150cbbbd5c7p-17',
        'iterations': 12,
        'edges': 17760,
        'commits': 0,
        'result': '74742ccf0a1be0f5',
        'extras': '4f53cda18c2baa0c',
        'profiler': 'ba7f207ac6104935',
        'trace': '4feb48732b3b32c2',
        'metrics': 'e2d61dd46248cb66',
    },
    ('sage-sr', 'bfs'): {
        'seconds': '0x1.a9e0aebd2fa0ep-18',
        'iterations': 4,
        'edges': 1435,
        'commits': 2,
        'result': '17d9060a4b103c92',
        'extras': '4f53cda18c2baa0c',
        'profiler': 'ed14377a2b3abeb4',
        'trace': 'ee4df5e59e305a57',
        'metrics': '13c3c474b084b36b',
    },
    ('sage-sr', 'sssp'): {
        'seconds': '0x1.f3a1eb38dc756p-18',
        'iterations': 5,
        'edges': 1499,
        'commits': 2,
        'result': 'ef0f0052dc7fe3a6',
        'extras': '4f53cda18c2baa0c',
        'profiler': 'fba953f39bc5b76e',
        'trace': '83e90d1dcaa74504',
        'metrics': 'ead590cce224e204',
    },
    ('sage-sr', 'pr'): {
        'seconds': '0x1.afad3d9953567p-16',
        'iterations': 12,
        'edges': 17760,
        'commits': 12,
        'result': '0c2e7e75f1a3bd1a',
        'extras': '4f53cda18c2baa0c',
        'profiler': 'e8303a4410ebf5bf',
        'trace': '74e5a225488565aa',
        'metrics': 'd19763525d06d8fb',
    },
    ('sage-sr-reused', 'bfs'): {
        'seconds': '0x1.a9982c8ec8405p-18',
        'iterations': 4,
        'edges': 1435,
        'commits': 2,
        'result': 'a97fa22bcd60bc3f',
        'extras': '4f53cda18c2baa0c',
        'profiler': '1c45e4ca747fcd59',
        'trace': '1e31a65f756e88ff',
        'metrics': '1b4a2f2a992b2b5e',
    },
    ('sage-sr-reused', 'sssp'): {
        'seconds': '0x1.42b6f767c3da2p-17',
        'iterations': 6,
        'edges': 2109,
        'commits': 3,
        'result': '0c6cb45ea6b923af',
        'extras': '4f53cda18c2baa0c',
        'profiler': '1354482b68e62a69',
        'trace': '35bdd2e75e2f7bf9',
        'metrics': 'dfb8139ab02876ce',
    },
    ('sage-sr-reused', 'pr'): {
        'seconds': '0x1.afad3d9953567p-16',
        'iterations': 12,
        'edges': 17760,
        'commits': 12,
        'result': '52d7b98970d212de',
        'extras': '4f53cda18c2baa0c',
        'profiler': 'be2d93614cf643ba',
        'trace': '74e5a225488565aa',
        'metrics': '7002ecc2bf381c36',
    },
    ('subway', 'bfs'): {
        'seconds': '0x1.942b319df3b26p-16',
        'iterations': 4,
        'edges': 1435,
        'commits': 0,
        'result': '17d9060a4b103c92',
        'extras': '3b671ac2b70ba543',
        'profiler': 'f5490579ad513469',
        'trace': 'dc9921d5b85238f7',
        'metrics': 'e68ed1d7fdf65452',
    },
    ('subway', 'sssp'): {
        'seconds': '0x1.94325a22e9c29p-16',
        'iterations': 4,
        'edges': 1436,
        'commits': 0,
        'result': '7ac59d4d224f4518',
        'extras': 'de9453d374a2f103',
        'profiler': '7d1b945badfa2c48',
        'trace': '8300a5724241fe09',
        'metrics': 'b468a0af42b9829d',
    },
    ('subway', 'pr'): {
        'seconds': '0x1.48f7b7ff57b0dp-14',
        'iterations': 12,
        'edges': 17760,
        'commits': 0,
        'result': '74742ccf0a1be0f5',
        'extras': 'ed8e9d858237a133',
        'profiler': '5a539582f724675a',
        'trace': '5393908c681af969',
        'metrics': 'b3038ffbac51eadd',
    },
    ('sage-ooc', 'bfs'): {
        'seconds': '0x1.382737cbc6163p-16',
        'iterations': 4,
        'edges': 1435,
        'commits': 0,
        'result': '17d9060a4b103c92',
        'extras': 'b704980ec8d8260a',
        'profiler': '92ec712a054f26cd',
        'trace': 'fd7daf23e6fb39df',
        'metrics': '174e67b7eef09338',
    },
    ('sage-ooc', 'sssp'): {
        'seconds': '0x1.383c01d7ab167p-16',
        'iterations': 4,
        'edges': 1436,
        'commits': 0,
        'result': '7ac59d4d224f4518',
        'extras': 'b704980ec8d8260a',
        'profiler': 'fce1fa13f16c32ef',
        'trace': '31d4bbcfb681a646',
        'metrics': '935cd5dfd12665ec',
    },
    ('sage-ooc', 'pr'): {
        'seconds': '0x1.28187236f960bp-14',
        'iterations': 12,
        'edges': 17760,
        'commits': 0,
        'result': '74742ccf0a1be0f5',
        'extras': '2ed66dbd20a01a93',
        'profiler': 'ba7f207ac6104935',
        'trace': 'ae5b433390fd3d75',
        'metrics': '97941f888d4d8796',
    },
    ('sage-ooc-sr', 'bfs'): {
        'seconds': '0x1.38279f5402456p-16',
        'iterations': 4,
        'edges': 1435,
        'commits': 0,
        'result': '17d9060a4b103c92',
        'extras': 'b704980ec8d8260a',
        'profiler': '1f374f97df642bf0',
        'trace': '741f4648d9b79bb3',
        'metrics': '09f34894f7632055',
    },
    ('sage-ooc-sr', 'sssp'): {
        'seconds': '0x1.383cd0e82374dp-16',
        'iterations': 4,
        'edges': 1436,
        'commits': 0,
        'result': '7ac59d4d224f4518',
        'extras': 'b704980ec8d8260a',
        'profiler': '9dc2a7c0413effa5',
        'trace': '6bedfc01b31ee720',
        'metrics': '86442aa357a11403',
    },
    ('sage-ooc-sr', 'pr'): {
        'seconds': '0x1.28187236f960bp-14',
        'iterations': 12,
        'edges': 17760,
        'commits': 0,
        'result': '74742ccf0a1be0f5',
        'extras': '2ed66dbd20a01a93',
        'profiler': 'a540668dc5acf868',
        'trace': '5c9be286f68d4a44',
        'metrics': '1f12ecc680a8b8b6',
    },
    ('um', 'bfs'): {
        'seconds': '0x1.7270121ca9d65p-16',
        'iterations': 4,
        'edges': 1435,
        'commits': 0,
        'result': '17d9060a4b103c92',
        'extras': 'dcdf2ad251dadf49',
        'profiler': 'f5490579ad513469',
        'trace': 'f2e42dd961740bb4',
        'metrics': '6985c2568d3d6253',
    },
    ('um', 'sssp'): {
        'seconds': '0x1.727a7fc34c050p-16',
        'iterations': 4,
        'edges': 1436,
        'commits': 0,
        'result': '7ac59d4d224f4518',
        'extras': 'dcdf2ad251dadf49',
        'profiler': '7d1b945badfa2c48',
        'trace': 'c843989ab72c3f35',
        'metrics': 'dcec21d5ded96e50',
    },
    ('um', 'pr'): {
        'seconds': '0x1.696a8ec039a95p-14',
        'iterations': 12,
        'edges': 17760,
        'commits': 0,
        'result': '74742ccf0a1be0f5',
        'extras': '90d2a925767ee25a',
        'profiler': '5a539582f724675a',
        'trace': '112c0a927a6d9230',
        'metrics': '5ae1809f5afbc715',
    },
    ('multi-1', 'bfs'): {
        'seconds': '0x1.1f8eb8e5f3fd8p-18',
        'iterations': 4,
        'edges': 1435,
        'commits': 0,
        'result': '17d9060a4b103c92',
        'extras': '69aa8b46bfe4ab27',
        'profiler': '92ec712a054f26cd',
        'trace': 'c2c3ef0b27e79acf',
        'metrics': '367e9bbaedc68c48',
    },
    ('multi-1', 'sssp'): {
        'seconds': '0x1.1fe1e11587fe7p-18',
        'iterations': 4,
        'edges': 1436,
        'commits': 0,
        'result': '7ac59d4d224f4518',
        'extras': '69aa8b46bfe4ab27',
        'profiler': 'fce1fa13f16c32ef',
        'trace': '0273bf9fc0ca60c3',
        'metrics': 'f4969e2cc2bae779',
    },
    ('multi-1', 'pr'): {
        'seconds': '0x1.b1150cbbbd5c7p-17',
        'iterations': 12,
        'edges': 17760,
        'commits': 0,
        'result': '74742ccf0a1be0f5',
        'extras': '69aa8b46bfe4ab27',
        'profiler': 'ba7f207ac6104935',
        'trace': '4feb48732b3b32c2',
        'metrics': '478a1e56046581d5',
    },
    ('multi-2-sync', 'bfs'): {
        'seconds': '0x1.d4155304ba3ebp-17',
        'iterations': 4,
        'edges': 1435,
        'commits': 0,
        'result': '17d9060a4b103c92',
        'extras': '774e2d504abc3edd',
        'profiler': '6013b110784f6683',
        'trace': '48e344a322f25757',
        'metrics': '828d4dc04709d63e',
    },
    ('multi-2-sync', 'sssp'): {
        'seconds': '0x1.d42b8e29fcb3cp-17',
        'iterations': 4,
        'edges': 1436,
        'commits': 0,
        'result': '7ac59d4d224f4518',
        'extras': '24e1b403c2cd082f',
        'profiler': '375ca57be3ddf35b',
        'trace': '3bd8ed5e51625cae',
        'metrics': 'e28e306d6cf5881b',
    },
    ('multi-2-sync', 'pr'): {
        'seconds': '0x1.6f5484c331223p-15',
        'iterations': 12,
        'edges': 17760,
        'commits': 0,
        'result': '74742ccf0a1be0f5',
        'extras': 'be1475bca1d8ab9d',
        'profiler': 'aa2ba476aa8eedd2',
        'trace': '2c12f11ab36a90a7',
        'metrics': '71e880955e0b2b55',
    },
    ('multi-2-async-metis', 'bfs'): {
        'seconds': '0x1.f78df8779ef82p-18',
        'iterations': 4,
        'edges': 1435,
        'commits': 0,
        'result': '17d9060a4b103c92',
        'extras': '774e2d504abc3edd',
        'profiler': 'dae67c8216b3df56',
        'trace': 'd0ffc27358010969',
        'metrics': 'ce28a027c462bab4',
    },
    ('multi-2-async-metis', 'sssp'): {
        'seconds': '0x1.f7e120a732f90p-18',
        'iterations': 4,
        'edges': 1436,
        'commits': 0,
        'result': '7ac59d4d224f4518',
        'extras': '774e2d504abc3edd',
        'profiler': '03603ffb500cc346',
        'trace': '49f8b5c8baf3b27c',
        'metrics': '78350d4cccd20c27',
    },
    ('multi-2-async-metis', 'pr'): {
        'seconds': '0x1.7e693666ab7e9p-16',
        'iterations': 12,
        'edges': 17760,
        'commits': 0,
        'result': '7426e0c7ea3cb0e0',
        'extras': '867bc6a68b9e4e7b',
        'profiler': '0b29efeb44739614',
        'trace': '83b1ef918d4a9332',
        'metrics': 'c5e3beef1dea4f0c',
    },
    ('multi-2-sr', 'bfs'): {
        'seconds': '0x1.cd5ddfc09edc6p-17',
        'iterations': 4,
        'edges': 1435,
        'commits': 0,
        'result': '17d9060a4b103c92',
        'extras': '774e2d504abc3edd',
        'profiler': '466cfd2698664879',
        'trace': 'b07527b9e294839c',
        'metrics': '62273d5ec9d871cd',
    },
    ('multi-2-sr', 'sssp'): {
        'seconds': '0x1.cd89a2c0df52ep-17',
        'iterations': 4,
        'edges': 1436,
        'commits': 0,
        'result': '7ac59d4d224f4518',
        'extras': '24e1b403c2cd082f',
        'profiler': '9e4b89d0ce5c457d',
        'trace': '7d0ce122a7559bd2',
        'metrics': '18b4d6ae093b038a',
    },
    ('multi-2-sr', 'pr'): {
        'seconds': '0x1.5cee4418f951ap-15',
        'iterations': 12,
        'edges': 17760,
        'commits': 0,
        'result': '74742ccf0a1be0f5',
        'extras': 'be1475bca1d8ab9d',
        'profiler': '799f0dac5ddec707',
        'trace': '6bd045466fdbd961',
        'metrics': 'c7e1bd8736c62a56',
    },
    ('ligra', 'bfs'): {
        'seconds': '0x1.f8c2fcc3d043dp-15',
        'iterations': 4,
        'edges': 1435,
        'commits': 0,
        'result': '17d9060a4b103c92',
        'extras': '4f53cda18c2baa0c',
        'profiler': '7211b70c8e63cf95',
        'trace': '346a974d8fdd3476',
        'metrics': '1391876e63685b7d',
    },
    ('ligra', 'sssp'): {
        'seconds': '0x1.f8c36ab74fab3p-15',
        'iterations': 4,
        'edges': 1436,
        'commits': 0,
        'result': '7ac59d4d224f4518',
        'extras': '4f53cda18c2baa0c',
        'profiler': '7211b70c8e63cf95',
        'trace': 'ea87db53b014f778',
        'metrics': '1391876e63685b7d',
    },
    ('ligra', 'pr'): {
        'seconds': '0x1.7df4f185c9151p-13',
        'iterations': 12,
        'edges': 17760,
        'commits': 0,
        'result': '74742ccf0a1be0f5',
        'extras': '4f53cda18c2baa0c',
        'profiler': '7211b70c8e63cf95',
        'trace': 'adab14b2dd844d21',
        'metrics': '1391876e63685b7d',
    },
}

CACHE_GOLDEN: dict[str, dict] = {
    'bfs': {'accesses': 1435, 'hits': 1404, 'misses': 31, 'iterations': 4},
    'sssp': {'accesses': 1436, 'hits': 1405, 'misses': 31, 'iterations': 4},
    'pr': {'accesses': 17760, 'hits': 17729, 'misses': 31, 'iterations': 12},
}


@pytest.mark.parametrize("runner,app", sorted(GOLDEN))
def test_runner_pinned(runner, app):
    assert fingerprint(runner, app) == GOLDEN[runner, app]


@pytest.mark.parametrize("app", sorted(CACHE_GOLDEN))
def test_cache_trace_pinned(app):
    assert cache_fingerprint(app) == CACHE_GOLDEN[app]


def test_every_runner_and_app_is_pinned():
    assert set(GOLDEN) == {(r, a) for r in RUNNERS for a in APPS}
    assert set(CACHE_GOLDEN) == set(APPS)


def test_reordering_cases_commit():
    # Guards the pins above: the in-core SR cases must really commit,
    # or the reorder path would go unpinned.
    assert all(GOLDEN["sage-sr", app]["commits"] > 0 for app in APPS)
