"""Interoperability builders: networkx, scipy.sparse, induced subgraphs.

Production users rarely start from raw edge arrays; these helpers move
graphs between the CSR representation and the two ecosystems a Python
graph pipeline typically touches, plus structural extraction utilities
(induced subgraphs, largest component) used by the benchmarks to build
connected workloads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import GraphFormatError, InvalidParameterError
from repro.graph.coo import EDGE_DTYPE
from repro.graph.csr import CSRGraph

if TYPE_CHECKING:
    import scipy.sparse as sp


def from_networkx(nx_graph) -> CSRGraph:
    """Build a CSR graph from a networkx (Di)Graph.

    Node labels must be hashable; they are mapped to dense ids in sorted
    order (ints sort numerically, so ``DiGraph`` with integer nodes round
    trips exactly).  Undirected graphs are symmetrized.
    """
    nodes = sorted(nx_graph.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    src = np.fromiter(
        (index[u] for u, _ in nx_graph.edges()), dtype=EDGE_DTYPE,
        count=nx_graph.number_of_edges(),
    )
    dst = np.fromiter(
        (index[v] for _, v in nx_graph.edges()), dtype=EDGE_DTYPE,
        count=nx_graph.number_of_edges(),
    )
    return CSRGraph.from_edges(
        len(nodes), src, dst, symmetric=not nx_graph.is_directed()
    )


def to_networkx(graph: CSRGraph):
    """Convert to a networkx DiGraph (imported lazily)."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(range(graph.num_nodes))
    coo = graph.to_coo()
    g.add_edges_from(zip(coo.src.tolist(), coo.dst.tolist()))
    return g


def from_scipy_sparse(matrix) -> CSRGraph:
    """Build a graph from any scipy.sparse matrix (nonzeros = edges)."""
    import scipy.sparse as sp

    matrix = sp.coo_matrix(matrix)
    if matrix.shape[0] != matrix.shape[1]:
        raise GraphFormatError(
            f"adjacency matrix must be square, got {matrix.shape}"
        )
    return CSRGraph.from_edges(
        matrix.shape[0],
        matrix.row.astype(EDGE_DTYPE),
        matrix.col.astype(EDGE_DTYPE),
        dedup=True,
    )


def to_scipy_sparse(graph: CSRGraph) -> sp.csr_matrix:
    """The boolean adjacency matrix in scipy CSR form."""
    import scipy.sparse as sp

    data = np.ones(graph.num_edges, dtype=np.int8)
    return sp.csr_matrix(
        (data, graph.targets, graph.offsets),
        shape=(graph.num_nodes, graph.num_nodes),
    )


def induced_subgraph(
    graph: CSRGraph, nodes: np.ndarray
) -> tuple[CSRGraph, np.ndarray]:
    """Subgraph induced by ``nodes`` with dense relabeling.

    Returns ``(subgraph, mapping)`` where ``mapping[i]`` is the original
    id of subgraph node ``i``.
    """
    nodes = np.unique(np.asarray(nodes, dtype=EDGE_DTYPE))
    if nodes.size and (nodes.min() < 0 or nodes.max() >= graph.num_nodes):
        raise InvalidParameterError("subgraph nodes out of range")
    keep = np.zeros(graph.num_nodes, dtype=bool)
    keep[nodes] = True
    new_id = np.full(graph.num_nodes, -1, dtype=EDGE_DTYPE)
    new_id[nodes] = np.arange(nodes.size, dtype=EDGE_DTYPE)
    coo = graph.to_coo()
    mask = keep[coo.src] & keep[coo.dst]
    sub = CSRGraph.from_edges(
        int(nodes.size), new_id[coo.src[mask]], new_id[coo.dst[mask]]
    )
    return sub, nodes


def largest_weakly_connected_component(
    graph: CSRGraph,
) -> tuple[CSRGraph, np.ndarray]:
    """Extract the largest weakly connected component.

    Returns ``(subgraph, mapping)`` as :func:`induced_subgraph` does.
    Uses scipy's connected-components on the symmetrized adjacency.
    """
    from scipy.sparse import csgraph

    if graph.num_nodes == 0:
        return graph, np.zeros(0, dtype=EDGE_DTYPE)
    adjacency = to_scipy_sparse(graph)
    _, labels = csgraph.connected_components(
        adjacency, directed=True, connection="weak"
    )
    counts = np.bincount(labels)
    members = np.flatnonzero(labels == counts.argmax())
    return induced_subgraph(graph, members)
