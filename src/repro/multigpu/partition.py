"""Graph partitioning for multi-GPU execution (paper Figure 9).

The paper compares baselines with and without **metis** pre-partitioning
(cost excluded from reported traversal times, as here).  Three
partitioners cover the spectrum:

* :func:`chunk_partition` — contiguous id ranges: what a
  preprocessing-free system (SAGE) gets by splitting the CSR in place.
* :func:`random_partition` — the worst case for communication volume.
* :func:`metis_like` — greedy BFS-grown balanced partitions minimizing
  edge cut, standing in for metis [22].
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph


def _check_k(n: int, k: int) -> None:
    if k < 1 or k > max(1, n):
        raise InvalidParameterError(f"invalid partition count {k} for {n} nodes")


def chunk_partition(num_nodes: int, k: int) -> np.ndarray:
    """Assign contiguous id ranges to partitions."""
    _check_k(num_nodes, k)
    size = -(-num_nodes // k)
    return np.minimum(np.arange(num_nodes, dtype=np.int64) // size, k - 1)


def random_partition(num_nodes: int, k: int, seed: int = 0) -> np.ndarray:
    """Assign nodes uniformly at random (balanced by shuffling)."""
    _check_k(num_nodes, k)
    assignment = np.arange(num_nodes, dtype=np.int64) % k
    return np.random.default_rng(seed).permutation(assignment)


def metis_like(graph: CSRGraph, k: int) -> np.ndarray:
    """Greedy BFS-grown balanced k-way partitioning.

    Grows each part by BFS from a random unassigned seed until it reaches
    its *edge-weight* budget (balancing work, as metis does with vertex
    weights = degrees), then starts the next part — the multilevel
    intuition of metis (connected, low-cut parts) without its refinement
    phases.  The random seeds are drawn from a fixed-seed generator, so
    the partition is deterministic.
    """
    n = graph.num_nodes
    _check_k(n, k)
    sym = CSRGraph.from_coo(graph.to_coo().symmetrized())
    degrees = np.maximum(1, graph.out_degrees())
    total_weight = int(degrees.sum())
    rng = np.random.default_rng(0)
    assignment = np.full(n, -1, dtype=np.int64)
    budget = total_weight / k
    visit_order = rng.permutation(n)
    part = 0
    filled = 0
    queue: deque[int] = deque()
    cursor = 0
    while filled < n and part < k:
        weight = 0.0
        last_part = part == k - 1
        while (last_part or weight < budget) and filled < n:
            if not queue:
                while cursor < n and assignment[visit_order[cursor]] >= 0:
                    cursor += 1
                if cursor >= n:
                    break
                seed_node = int(visit_order[cursor])
                assignment[seed_node] = part
                queue.append(seed_node)
                weight += degrees[seed_node]
                filled += 1
                continue
            u = queue.popleft()
            for v in sym.neighbors(u).tolist():
                if not last_part and weight >= budget:
                    break
                if assignment[v] < 0:
                    assignment[v] = part
                    queue.append(v)
                    weight += degrees[v]
                    filled += 1
        queue.clear()
        part += 1
    # Any stragglers (k exhausted early) join the last part.
    assignment[assignment < 0] = k - 1
    return assignment


def edge_cut(graph: CSRGraph, assignment: np.ndarray) -> int:
    """Number of edges crossing partition boundaries."""
    coo = graph.to_coo()
    assignment = np.asarray(assignment, dtype=np.int64)
    return int(np.count_nonzero(assignment[coo.src] != assignment[coo.dst]))
