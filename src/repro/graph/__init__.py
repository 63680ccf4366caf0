"""Graph representations, generators, datasets and IO."""

from repro.graph.builders import (
    from_networkx,
    from_scipy_sparse,
    induced_subgraph,
    largest_weakly_connected_component,
    to_networkx,
    to_scipy_sparse,
)
from repro.graph.compressed import CompressedCSRGraph
from repro.graph.coo import COOGraph
from repro.graph.csr import CSRGraph
from repro.graph.datasets import Dataset, by_name, full_suite
from repro.graph.delta import GraphDelta, patch_csr
from repro.graph.dynamic import DynamicGraph
from repro.graph.properties import (
    DegreeStats,
    degree_stats,
    gini_coefficient,
    id_locality,
    sector_span,
)

__all__ = [
    "COOGraph",
    "CompressedCSRGraph",
    "CSRGraph",
    "Dataset",
    "DegreeStats",
    "DynamicGraph",
    "GraphDelta",
    "by_name",
    "degree_stats",
    "from_networkx",
    "from_scipy_sparse",
    "full_suite",
    "gini_coefficient",
    "id_locality",
    "induced_subgraph",
    "largest_weakly_connected_component",
    "patch_csr",
    "sector_span",
    "to_networkx",
    "to_scipy_sparse",
]
