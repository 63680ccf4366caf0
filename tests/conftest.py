"""Shared fixtures and oracle helpers for the test suite."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import pathlib
from dataclasses import dataclass
from types import ModuleType

import networkx as nx
import numpy as np
import pytest

from repro.graph import generators
from repro.graph.csr import CSRGraph

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def load_bench_trajectory() -> ModuleType:
    """Import ``benchmarks/bench_trajectory.py`` (a script, not a package)."""
    spec = importlib.util.spec_from_file_location(
        "bench_trajectory", BENCH_DIR / "bench_trajectory.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class SmokeSuite:
    """One ``bench_trajectory.py --smoke --sanitize`` run."""

    bench: ModuleType
    exit_code: int
    output: str
    payload: dict | None


@pytest.fixture(scope="session")
def smoke_suite(tmp_path_factory) -> SmokeSuite:
    """The smoke suite, run once per session through the script's own
    ``main`` (floors, sanitizer and ``--out`` included) and shared by
    every test that reads its rows."""
    bench = load_bench_trajectory()
    out = tmp_path_factory.mktemp("bench") / "trajectory.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = bench.main(["--smoke", "--sanitize", "--out", str(out)])
    payload = (
        json.loads(out.read_text(encoding="utf-8")) if out.exists() else None
    )
    return SmokeSuite(bench, code, stdout.getvalue(), payload)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_graph() -> CSRGraph:
    """The paper's Figure 1 example graph."""
    src = [0, 0, 0, 1, 2, 2, 3]
    dst = [1, 2, 3, 2, 0, 3, 1]
    return CSRGraph.from_edges(4, np.array(src), np.array(dst))


@pytest.fixture
def skewed_graph() -> CSRGraph:
    """A small power-law graph with a super-hub (twitter-ish)."""
    return generators.power_law_configuration(
        400, exponent=1.9, avg_degree=8.0, seed=5,
        hub_count=2, hub_degree=120,
        community_count=8, community_bias=0.8, scramble_ids=True,
    )


@pytest.fixture
def regular_graph() -> CSRGraph:
    """A small near-regular graph (brain-ish)."""
    return generators.random_regular(200, 24, seed=5)


@pytest.fixture
def web_graph() -> CSRGraph:
    """A small local/hierarchical graph (uk-2002-ish)."""
    return generators.web_hierarchy(300, avg_degree=6.0, seed=5)


def to_networkx(graph: CSRGraph) -> nx.DiGraph:
    """Convert a CSR graph to networkx for oracle computations."""
    g = nx.DiGraph()
    g.add_nodes_from(range(graph.num_nodes))
    coo = graph.to_coo()
    g.add_edges_from(zip(coo.src.tolist(), coo.dst.tolist()))
    return g


def bfs_oracle(graph: CSRGraph, source: int) -> np.ndarray:
    """Reference BFS levels (-1 for unreachable)."""
    lengths = nx.single_source_shortest_path_length(to_networkx(graph), source)
    dist = np.full(graph.num_nodes, -1, dtype=np.int64)
    for node, level in lengths.items():
        dist[node] = level
    return dist


def pagerank_oracle(graph: CSRGraph, damping: float = 0.85,
                    max_iter: int = 200) -> np.ndarray:
    """Reference PageRank values."""
    pr = nx.pagerank(to_networkx(graph), alpha=damping, max_iter=max_iter,
                     tol=1e-12)
    return np.array([pr[i] for i in range(graph.num_nodes)])


def components_oracle(graph: CSRGraph) -> np.ndarray:
    """Reference weakly-connected component labels (min node id)."""
    labels = np.zeros(graph.num_nodes, dtype=np.int64)
    for comp in nx.weakly_connected_components(to_networkx(graph)):
        rep = min(comp)
        for node in comp:
            labels[node] = rep
    return labels


def betweenness_oracle(graph: CSRGraph) -> np.ndarray:
    """Unnormalized directed betweenness centrality."""
    bc = nx.betweenness_centrality(to_networkx(graph), normalized=False)
    return np.array([bc[i] for i in range(graph.num_nodes)])


def sssp_oracle(graph: CSRGraph, weights: np.ndarray, source: int) -> np.ndarray:
    """Reference weighted shortest-path distances (INF when unreachable)."""
    g = nx.DiGraph()
    g.add_nodes_from(range(graph.num_nodes))
    coo = graph.to_coo()
    for u, v, w in zip(coo.src.tolist(), coo.dst.tolist(), weights.tolist()):
        existing = g.get_edge_data(u, v)
        if existing is None or existing["weight"] > w:
            g.add_edge(u, v, weight=w)
    lengths = nx.single_source_dijkstra_path_length(g, source)
    from repro.apps.sssp import INF
    dist = np.full(graph.num_nodes, INF, dtype=np.int64)
    for node, value in lengths.items():
        dist[node] = value
    return dist
