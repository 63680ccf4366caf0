"""Self-contained reference implementations for result validation.

Slow, obviously-correct sequential algorithms with no dependency on the
traversal machinery (or on networkx): the library's internal oracles.
Tests cross-check the vectorized applications against both these and
networkx; users can call :func:`validate_run` after porting the library
to a new workload to be sure a custom scheduler or app refactoring did
not silently change semantics.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.apps.sssp import INF
from repro.graph.csr import CSRGraph

#: Power-iteration settings of :func:`reference_pagerank`.
PAGERANK_DAMPING = 0.85
PAGERANK_ITERATIONS = 100
PAGERANK_TOLERANCE = 1e-12

#: Absolute tolerance of the betweenness comparison in :func:`validate_run`.
BC_ATOL = 1e-8


def reference_bfs(graph: CSRGraph, source: int) -> np.ndarray:
    """Textbook queue-based BFS levels (-1 = unreachable)."""
    dist = np.full(graph.num_nodes, -1, dtype=np.int64)
    dist[source] = 0
    queue: deque[int] = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u).tolist():
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def reference_sssp(
    graph: CSRGraph, weights: np.ndarray, source: int
) -> np.ndarray:
    """Bellman-Ford shortest paths (handles duplicate edges)."""
    dist = np.full(graph.num_nodes, INF, dtype=np.int64)
    dist[source] = 0
    coo = graph.to_coo()
    edges = list(zip(coo.src.tolist(), coo.dst.tolist(), weights.tolist()))
    for _ in range(graph.num_nodes):
        changed = False
        for u, v, w in edges:
            if dist[u] < INF and dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    return dist


def reference_pagerank(graph: CSRGraph) -> np.ndarray:
    """Dense power iteration with uniform dangling redistribution."""
    n = graph.num_nodes
    degrees = graph.out_degrees().astype(np.float64)
    pr = np.full(n, 1.0 / n)
    coo = graph.to_coo()
    for _ in range(PAGERANK_ITERATIONS):
        nxt = np.zeros(n)
        for u, v in zip(coo.src.tolist(), coo.dst.tolist()):
            nxt[v] += PAGERANK_DAMPING * pr[u] / degrees[u]
        dangling = pr[degrees == 0].sum()
        nxt += (1.0 - PAGERANK_DAMPING) / n + PAGERANK_DAMPING * dangling / n
        if np.abs(nxt - pr).sum() < PAGERANK_TOLERANCE:
            pr = nxt
            break
        pr = nxt
    return pr


def reference_components(graph: CSRGraph) -> np.ndarray:
    """Weakly connected components by union-find, labeled by minimum."""
    parent = list(range(graph.num_nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    coo = graph.to_coo()
    for u, v in zip(coo.src.tolist(), coo.dst.tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    labels = np.fromiter((find(i) for i in range(graph.num_nodes)),
                         dtype=np.int64, count=graph.num_nodes)
    return labels


def reference_betweenness_delta(
    graph: CSRGraph, source: int
) -> np.ndarray:
    """Brandes single-source dependencies (the BC app's ``delta``)."""
    n = graph.num_nodes
    dist = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n)
    delta = np.zeros(n)
    dist[source] = 0
    sigma[source] = 1.0
    order: list[int] = []
    queue: deque[int] = deque([source])
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in graph.neighbors(u).tolist():
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
            if dist[v] == dist[u] + 1:
                sigma[v] += sigma[u]
    for u in reversed(order):
        for v in graph.neighbors(u).tolist():
            if dist[v] == dist[u] + 1:
                delta[u] += sigma[u] / sigma[v] * (1.0 + delta[v])
    return delta


def validate_run(
    graph: CSRGraph,
    app_name: str,
    result: dict[str, np.ndarray],
    source: int | None = None,
    *,
    weights: np.ndarray | None = None,
) -> None:
    """Assert that a run's outputs match the reference implementation.

    Supported apps: ``bfs``, ``pr``, ``cc``, ``sssp``, ``bc``.  Raises
    ``AssertionError`` with a descriptive message on mismatch.
    """
    if app_name == "bfs":
        expected = reference_bfs(graph, int(source))
        _check_equal("dist", result["dist"], expected)
    elif app_name == "pr":
        expected = reference_pagerank(graph)
        _check_close("pagerank", result["pagerank"], expected, atol=1e-6)
    elif app_name == "cc":
        expected = reference_components(graph)
        _check_equal("component", result["component"], expected)
    elif app_name == "sssp":
        if weights is None:
            raise ValueError("sssp validation needs the weights used")
        expected = reference_sssp(graph, weights, int(source))
        _check_equal("dist", result["dist"], expected)
    elif app_name == "bc":
        expected = reference_betweenness_delta(graph, int(source))
        _check_close("delta", result["delta"], expected, atol=BC_ATOL)
    else:
        raise ValueError(f"no reference implementation for {app_name!r}")


def _check_equal(name: str, got, expected) -> None:
    if not np.array_equal(np.asarray(got), expected):
        bad = int(np.flatnonzero(np.asarray(got) != expected)[0])
        raise AssertionError(
            f"{name} mismatch at node {bad}: "
            f"got {np.asarray(got)[bad]}, expected {expected[bad]}"
        )


def _check_close(name: str, got, expected, atol: float) -> None:
    got = np.asarray(got, dtype=np.float64)
    if not np.allclose(got, expected, atol=atol):
        diff = np.abs(got - expected)
        bad = int(diff.argmax())
        raise AssertionError(
            f"{name} mismatch at node {bad}: "
            f"got {got[bad]}, expected {expected[bad]} "
            f"(|diff| {diff[bad]:.3e})"
        )
