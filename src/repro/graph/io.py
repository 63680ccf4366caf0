"""Graph file IO: text edge lists.

Edge-list text files follow the widespread SNAP convention: one
``src dst`` pair per whitespace-separated line, ``#`` comments allowed.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph


def write_edge_list(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write a graph as a SNAP-style text edge list."""
    coo = graph.to_coo()
    with open(path, "w", encoding="ascii") as f:
        f.write(f"# repro edge list |V|={graph.num_nodes} |E|={graph.num_edges}\n")
        np.savetxt(f, np.column_stack([coo.src, coo.dst]), fmt="%d")


def read_edge_list(path: str | os.PathLike) -> CSRGraph:
    """Read a SNAP-style text edge list into a CSR graph of
    ``max id + 1`` nodes, duplicate edges kept."""
    with warnings.catch_warnings():
        # an edge list with only comments is a valid empty graph
        warnings.filterwarnings("ignore", message="loadtxt: input contained")
        data = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
    if data.size == 0:
        src = dst = np.empty(0, dtype=np.int64)
    elif data.shape[1] < 2:
        raise GraphFormatError(f"{path}: expected two columns per line")
    else:
        src, dst = data[:, 0], data[:, 1]
    num_nodes = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1)
    return CSRGraph.from_edges(num_nodes, src, dst)
