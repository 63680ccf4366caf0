"""Structural statistics of graphs.

Used by the Table-1 benchmark, by the dataset generators' tests (to check
the stand-ins really have the skew/regularity they claim), and by the
examples for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph

#: Node ids per memory sector: 32-byte sectors of 4-byte values, the
#: default GPUSpec.
SECTOR_WIDTH = 8


@dataclass(frozen=True)
class DegreeStats:
    """Summary of an out-degree distribution."""

    num_nodes: int
    num_edges: int
    mean: float
    median: float
    maximum: int
    std: float
    gini: float
    p99: float


def degree_stats(graph: CSRGraph) -> DegreeStats:
    """Compute :class:`DegreeStats` for a graph's out-degrees."""
    deg = graph.out_degrees().astype(np.float64)
    if deg.size == 0:
        return DegreeStats(0, 0, 0.0, 0.0, 0, 0.0, 0.0, 0.0)
    return DegreeStats(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        mean=float(deg.mean()),
        median=float(np.median(deg)),
        maximum=int(deg.max()),
        std=float(deg.std()),
        gini=gini_coefficient(deg),
        p99=float(np.percentile(deg, 99)),
    )


def gini_coefficient(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative array (0 = uniform, 1 = all-one).

    A compact skewness measure: the paper's social graphs have high Gini
    out-degree distributions while ``brain`` is near zero.
    """
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 0 or v.sum() == 0:
        return 0.0
    n = v.size
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return float((2.0 * (ranks * v).sum() / (n * v.sum())) - (n + 1.0) / n)


def id_locality(graph: CSRGraph, window: int = 64) -> float:
    """Fraction of edges whose |src - dst| <= window.

    Web crawls assign ids in discovery order so this is high for uk-2002;
    random social graphs sit near ``2 * window / |V|``.
    """
    coo = graph.to_coo()
    if coo.num_edges == 0:
        return 0.0
    return float(np.mean(np.abs(coo.src - coo.dst) <= window))


def sector_span(graph: CSRGraph) -> float:
    """Average number of distinct memory sectors of
    :data:`SECTOR_WIDTH` ids per adjacency list.

    This is the per-node version of the objective Sampling-based
    Reordering minimizes (paper Section 6): neighbors scattered over many
    sectors cost more memory transactions.
    """
    if graph.num_edges == 0:
        return 0.0
    from repro.gpusim.memory import segmented_distinct_sectors

    per_node = segmented_distinct_sectors(
        graph.targets, graph.offsets[:-1], SECTOR_WIDTH, presorted=True
    )
    nonempty = graph.out_degrees() > 0
    if not nonempty.any():
        return 0.0
    return float(per_node[nonempty].mean())
