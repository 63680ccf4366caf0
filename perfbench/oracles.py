"""Reference answers the benchmark checks every program output against.

The traversal oracles share no code path with the engine: BFS and SSSP
come from ``scipy.sparse.csgraph``, connected components from a
synchronous min-label fixpoint, PageRank from a numpy power iteration
that follows :class:`repro.apps.PageRankApp`'s update and stop rule.
Serving answers are checked against ``run_direct``, the single-query
oracle the serving stack is specified to match bit for bit.
:class:`AnswerChecker` memoises each expected answer per distinct
request, keeping a digest of it (PageRank vectors are kept whole, as
they are compared within a tolerance), so checking adds little to the
run's memory.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.apps.sssp import INF, pair_weights
from repro.core import SageScheduler
from repro.graph.csr import CSRGraph
from repro.serve.executor import run_direct
from repro.serve.request import QueryRequest

#: L1 distance allowed between the engine's and the oracle's PageRank
#: vectors: the two sum the same terms in a different order.
PAGERANK_L1 = 1e-9


def min_labels(graph: CSRGraph) -> np.ndarray:
    """Smallest id among each node and its ancestors (the CC fixpoint)."""
    coo = graph.to_coo()
    order = np.argsort(coo.dst, kind="stable")
    src, dst = coo.src[order], coo.dst[order]
    targets, starts = np.unique(dst, return_index=True)
    label = np.arange(graph.num_nodes, dtype=np.int64)
    if src.size == 0:
        return label
    while True:
        incoming = np.minimum.reduceat(label[src], starts)
        new = label.copy()
        new[targets] = np.minimum(label[targets], incoming)
        if np.array_equal(new, label):
            return label
        label = new


def pagerank(
    graph: CSRGraph,
    *,
    damping: float = 0.85,
    max_iterations: int = 20,
    tolerance: float = 1e-8,
) -> np.ndarray:
    """Power iteration with dangling mass spread uniformly."""
    n = graph.num_nodes
    coo = graph.to_coo()
    out_degrees = graph.out_degrees().astype(np.float64)
    dangling = out_degrees == 0
    rank = np.full(n, 1.0 / n)
    for _ in range(max_iterations):
        contributions = damping * rank[coo.src] / out_degrees[coo.src]
        new = np.bincount(coo.dst, weights=contributions, minlength=n)
        new += (1.0 - damping) / n + damping * rank[dangling].sum() / n
        delta = float(np.abs(new - rank).sum())
        rank = new
        if delta < tolerance:
            break
    return rank


class TraversalOracle:
    """Expected ``repro.api.run`` values over one graph."""

    def __init__(self, graph: CSRGraph) -> None:
        self.graph = graph
        coo = graph.to_coo()
        n = graph.num_nodes
        # Collapse duplicate edges: scipy would sum their weights, while
        # every copy of a pair weighs the same.
        _, first = np.unique(coo.src * n + coo.dst, return_index=True)
        src, dst = coo.src[first], coo.dst[first]
        self._hops = sparse.csr_matrix(
            (np.ones(src.size), (src, dst)), shape=(n, n)
        )
        self._weighted = sparse.csr_matrix(
            (pair_weights(src, dst).astype(np.float64), (src, dst)),
            shape=(n, n),
        )

    def bfs_levels(self, source: int) -> np.ndarray:
        """Hop distance from ``source``; -1 where unreachable."""
        dist = csgraph.shortest_path(
            self._hops, unweighted=True, indices=source
        )
        return np.where(np.isinf(dist), -1, dist).astype(np.int64)

    def sssp_distances(self, source: int) -> np.ndarray:
        """Dijkstra distances under ``pair_weights``; ``INF`` where
        unreachable."""
        dist = csgraph.dijkstra(self._weighted, indices=source)
        unreachable = np.isinf(dist)
        out = np.where(unreachable, 0, dist).astype(np.int64)
        out[unreachable] = INF
        return out

    def answer(self, app: str, source: int | None) -> dict[str, np.ndarray]:
        if app == "bfs":
            return {"dist": self.bfs_levels(source)}
        if app == "sssp":
            return {"dist": self.sssp_distances(source)}
        if app == "cc":
            return {"component": min_labels(self.graph)}
        if app == "pr":
            return {"pagerank": pagerank(self.graph)}
        raise ValueError(f"no oracle for app {app!r}")


def _digest(value: np.ndarray) -> tuple:
    array = np.ascontiguousarray(value)
    return (array.dtype.str, array.shape,
            hashlib.sha1(array.tobytes()).digest())


def signature(answer: dict[str, np.ndarray]) -> dict[str, object]:
    """What :func:`answers_match` needs of an expected answer."""
    return {
        key: np.asarray(value) if key == "pagerank" else _digest(value)
        for key, value in answer.items()
    }


def answers_match(
    got: dict[str, np.ndarray],
    want: dict[str, object],
    pagerank_l1: float = PAGERANK_L1,
) -> bool:
    """Bit-identical output arrays, PageRank within ``pagerank_l1`` L1."""
    if set(got) != set(want):
        return False
    for key, expected in want.items():
        if key != "pagerank":
            if _digest(got[key]) != expected:
                return False
            continue
        actual = np.asarray(got[key])
        if actual.shape != expected.shape:
            return False
        if float(np.abs(actual - expected).sum()) > pagerank_l1:
            return False
    return True


class AnswerChecker:
    """Counts checked and wrong answers; memoises oracles per request."""

    def __init__(self) -> None:
        self.checked = 0
        self.wrong = 0
        self._memo: dict[tuple, dict[str, object]] = {}
        self._oracles: dict[int, TraversalOracle] = {}

    def _expected(self, key: tuple, compute) -> dict[str, object]:
        if key not in self._memo:
            self._memo[key] = signature(compute())
        return self._memo[key]

    def traversal(
        self,
        graph: CSRGraph,
        app: str,
        source: int | None,
        values: dict[str, np.ndarray],
    ) -> bool:
        """Check one ``api.run``-shaped answer; returns whether it is right."""
        # The oracle keeps its graph alive, so the id cannot be reused.
        oracle = self._oracles.get(id(graph))
        if oracle is None:
            oracle = self._oracles[id(graph)] = TraversalOracle(graph)
        want = self._expected(
            ("traversal", id(graph), app, source),
            lambda: oracle.answer(app, source),
        )
        return self._record(answers_match(values, want))

    def serving(
        self,
        versions: list[CSRGraph],
        candidates: range,
        request: QueryRequest,
        result: dict[str, np.ndarray] | None,
    ) -> bool:
        """Check one served answer against ``run_direct`` on every graph
        version in ``candidates``; right if it is bit-identical to any."""
        ok = result is not None and any(
            answers_match(result, self._expected(
                ("serving", version, request),
                lambda version=version: run_direct(
                    versions[version], request, SageScheduler
                ).result,
            ), pagerank_l1=0.0)
            for version in candidates
        )
        return self._record(ok)

    def fail(self) -> None:
        """Record an answer that never arrived (shed, timed out, failed)."""
        self._record(False)

    def _record(self, ok: bool) -> bool:
        self.checked += 1
        if not ok:
            self.wrong += 1
        return ok
