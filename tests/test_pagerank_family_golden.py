"""Byte pins for personalized PageRank and pull PageRank.

``tests/test_runner_golden.py`` pins bfs, sssp and push PageRank on
every runner; the two other PageRank-family filters are pinned here, on
two seeded R-MATs, in core under plain SAGE and under SAGE with
sampling reordering (which commits a relabelling every level on these
graphs, so each app's ``remap_nodes`` is on the pinned path).  Pull
PageRank runs on the transpose, ``graph.reversed()``.

Each filter computes a node's share, ``damping * value / out_degree``,
once and gathers it per edge.  Its former body, which divided per edge,
is kept here as the reference: both are the same two floating-point
operations on the same inputs in the same order, and the scatter adds
in edge order either way, so every run must match bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.apps import PageRankPullApp, PersonalizedPageRankApp
from repro.apps import pagerank_pull
from repro.core import SageScheduler, TraversalPipeline
from repro.graph import generators


class PPRPerEdgeReference(PersonalizedPageRankApp):
    """:class:`PersonalizedPageRankApp` dividing once per edge."""

    def process_level(self, edge_src, edge_dst, edge_pos=None):
        self._next[:] = 0.0
        contributions = (
            self.damping * self.scores[edge_src]
            / self._out_degrees[edge_src]
        )
        np.add.at(self._next, edge_dst, contributions)
        dangling = self.scores[self._out_degrees == 0].sum()
        self._next[self._source] += (
            (1.0 - self.damping) + self.damping * dangling
        )
        delta = float(np.abs(self._next - self.scores).sum())
        self.scores, self._next = self._next, self.scores
        self._iteration += 1
        if delta < self.tolerance or self._iteration >= self.max_iterations:
            return np.empty(0, dtype=np.int64)
        return self._all_nodes


class PullPerEdgeReference(PageRankPullApp):
    """:class:`PageRankPullApp` dividing once per edge, with a fresh
    dangling mask every level."""

    def process_level(self, edge_src, edge_dst, edge_pos=None):
        damping = pagerank_pull.DAMPING
        n = self.graph.num_nodes
        contributions = np.zeros(n, dtype=np.float64)
        gathered = damping * self.pr[edge_dst] / self._out_degrees[edge_dst]
        np.add.at(contributions, edge_src, gathered)
        dangling_mass = self.pr[self._out_degrees == 0].sum()
        contributions += (1.0 - damping) / n + damping * dangling_mass / n
        delta = float(np.abs(contributions - self.pr).sum())
        self.pr = contributions
        self._iteration += 1
        if delta < self.tolerance or self._iteration >= self.max_iterations:
            return np.empty(0, dtype=np.int64)
        return self._all_nodes


APPS = {
    "ppr": (PersonalizedPageRankApp, PPRPerEdgeReference),
    "pr-pull": (PageRankPullApp, PullPerEdgeReference),
}

GRAPHS = {
    "rmat8": lambda: generators.rmat(8, 8, seed=3),
    "rmat10": lambda: generators.rmat(10, 8, seed=1),
}

SCHEDULERS = {
    "sage": SageScheduler,
    "sage-sr": lambda: SageScheduler(
        sampling_reorder=True, reorder_threshold_edges=256
    ),
}


def _run(graph: str, scheduler: str, app):
    built = GRAPHS[graph]()
    if app.name == "pr-pull":
        built = built.reversed()
    return TraversalPipeline(built, SCHEDULERS[scheduler]()).run(app, 0)


def _digest(result: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for key, value in sorted(result.items()):
        value = np.asarray(value)
        h.update(f"{key}{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()[:16]


GOLDEN: dict[tuple[str, str, str], tuple[str, int, int]] = {
    # (app, graph, scheduler): (result digest, iterations, commits)
    ('ppr', 'rmat8', 'sage'): ('0621e78b2ecb1335', 22, 0),
    ('ppr', 'rmat8', 'sage-sr'): ('6f218a5f64d51eb0', 22, 22),
    ('ppr', 'rmat10', 'sage'): ('9874051ab17d9517', 19, 0),
    ('ppr', 'rmat10', 'sage-sr'): ('9700058767c57a7a', 19, 19),
    ('pr-pull', 'rmat8', 'sage'): ('232525a2f37fa4f3', 16, 0),
    ('pr-pull', 'rmat8', 'sage-sr'): ('f18940cc668401b6', 16, 16),
    ('pr-pull', 'rmat10', 'sage'): ('a6b050ecc9e4d43d', 15, 0),
    ('pr-pull', 'rmat10', 'sage-sr'): ('d7a5e120772ddd48', 15, 15),
}

CASES = sorted(GOLDEN)


@pytest.mark.parametrize("app,graph,scheduler", CASES)
def test_run_is_pinned(app, graph, scheduler):
    result = _run(graph, scheduler, APPS[app][0]())
    got = (_digest(result.result), result.iterations, result.reorder_commits)
    assert got == GOLDEN[app, graph, scheduler]


@pytest.mark.parametrize("app,graph,scheduler", CASES)
def test_matches_per_edge_reference(app, graph, scheduler):
    fast_cls, ref_cls = APPS[app]
    fast = _run(graph, scheduler, fast_cls())
    ref = _run(graph, scheduler, ref_cls())
    assert fast.iterations == ref.iterations
    assert fast.reorder_commits == ref.reorder_commits
    assert fast.seconds == ref.seconds
    assert _digest(fast.result) == _digest(ref.result)


def test_every_case_is_pinned_and_reordered_cases_commit():
    assert set(GOLDEN) == {
        (a, g, s) for a in APPS for g in GRAPHS for s in SCHEDULERS
    }
    assert all(
        commits > 0
        for (_, _, scheduler), (_, _, commits) in GOLDEN.items()
        if scheduler == "sage-sr"
    )
