"""Scaled synthetic stand-ins for the paper's five datasets (Table 1).

The paper evaluates on uk-2002 (web), brain (biology), ljournal, twitter
and friendster (social).  Those graphs (up to 1.8B edges) are neither
available offline nor tractable for a pure-Python simulator, so each is
replaced by a generator configured to reproduce the structural property
the paper's analysis relies on:

========== =============== ============================================
dataset    category        defining property preserved
========== =============== ============================================
uk-2002    web             regular hierarchy, high id locality
brain      biology         near-uniform very large average degree
ljournal   social          moderate power-law skew
twitter    social          extreme skew: super-hubs with huge outdegree
friendster social          large, moderate power-law skew
========== =============== ============================================

Scale factors (|V| a few thousand, |E| tens of thousands to ~1M) keep the
simulator's per-experiment runtime in seconds.  Each stand-in is
deterministic (fixed seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.graph import generators
from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class Dataset:
    """A named benchmark graph with its Table-1 metadata."""

    name: str
    category: str
    graph: CSRGraph

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @property
    def avg_degree(self) -> float:
        return self.num_edges / max(1, self.num_nodes)


# Default scale used by benchmarks; tests use `small_suite`.
_FULL = 1.0


@lru_cache(maxsize=None)
def uk2002_like(scale: float = _FULL) -> Dataset:
    """Web graph: regular hierarchy, avg degree ~16, high id locality."""
    n = max(64, int(12_000 * scale))
    graph = generators.web_hierarchy(
        n, avg_degree=16.0, seed=2002, locality=0.85, span=48
    )
    return Dataset("uk-2002", "Web", graph)


@lru_cache(maxsize=None)
def brain_like(scale: float = _FULL) -> Dataset:
    """Biology graph: near-uniform degree, very large avg degree (~160)."""
    n = max(64, int(1_600 * scale))
    degree = max(8, min(n - 2, int(160 * min(1.0, scale * 2))))
    graph = generators.random_regular(n, degree, seed=87113878)
    return Dataset("brain", "Biology", graph)


@lru_cache(maxsize=None)
def ljournal_like(scale: float = _FULL) -> Dataset:
    """Social graph: moderate power-law skew, avg degree ~15."""
    n = max(64, int(8_000 * scale))
    graph = generators.power_law_configuration(
        n, exponent=2.3, avg_degree=15.0, seed=2008,
        max_degree=max(8, n // 20),
        community_count=max(2, n // 150), community_bias=0.85,
        scramble_ids=True,
    )
    return Dataset("ljournal", "Social Network", graph)


@lru_cache(maxsize=None)
def twitter_like(scale: float = _FULL) -> Dataset:
    """Social graph with extreme skew: a few super-hubs of degree ~|V|/5."""
    n = max(64, int(10_000 * scale))
    graph = generators.power_law_configuration(
        n, exponent=1.9, avg_degree=30.0, seed=2010,
        max_degree=max(8, n // 12),
        hub_count=max(1, n // 2000), hub_degree=max(16, n // 5),
        community_count=max(2, n // 120), community_bias=0.8,
        scramble_ids=True,
    )
    return Dataset("twitter", "Social Network", graph)


@lru_cache(maxsize=None)
def friendster_like(scale: float = _FULL) -> Dataset:
    """Large social graph: moderate skew, avg degree ~25."""
    n = max(64, int(14_000 * scale))
    graph = generators.power_law_configuration(
        n, exponent=2.1, avg_degree=25.0, seed=2012,
        max_degree=max(8, n // 25),
        community_count=max(2, n // 180), community_bias=0.85,
        scramble_ids=True,
    )
    return Dataset("friendster", "Social Network", graph)


def full_suite(scale: float = _FULL) -> list[Dataset]:
    """All five Table-1 stand-ins at the given scale."""
    return [
        uk2002_like(scale),
        brain_like(scale),
        ljournal_like(scale),
        twitter_like(scale),
        friendster_like(scale),
    ]


def by_name(name: str, scale: float = _FULL) -> Dataset:
    """Look a dataset up by its paper name (e.g. ``"twitter"``)."""
    for ds in full_suite(scale):
        if ds.name == name:
            return ds
    raise KeyError(f"unknown dataset {name!r}")
