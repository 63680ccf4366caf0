"""Strongly Connected Components via Forward-Backward reachability.

The paper lists Tarjan-style SCC among the primitives its pipeline
supports (Section 4).  Tarjan's DFS is inherently sequential, so GPU
systems compute SCCs with the *Forward-Backward* (FB-Trim) algorithm
[Barnat et al., IPDPS'11 — the paper's reference 2]: repeatedly pick a
pivot in an unresolved partition, run a forward and a backward
reachability sweep (two pipeline traversals), intersect them into one
SCC, and recurse on the three remainders; trivial SCCs are trimmed
eagerly.

Each reachability sweep is an ordinary masked BFS through the
expansion-filtering-contraction pipeline, so the whole decomposition
inherits SAGE's (or any baseline's) scheduling and cost accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.base import App, contract
from repro.core.pipeline import TraversalPipeline
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.gpusim.streams import TraceNode, trace_seconds

#: Safety bound on the partition worklist.
MAX_PARTITIONS = 1_000_000


class MaskedReachabilityApp(App):
    """BFS reachability restricted to an active-node mask.

    The filter admits a neighbor iff it is unvisited *and* belongs to the
    currently unresolved partition — the masked sweep at the heart of
    FB-SCC.
    """

    name = "reach"
    uses_atomics = False
    value_access_factor = 1.0

    def __init__(self, active: np.ndarray, source: int) -> None:
        super().__init__()
        self._active = active
        self._source = source
        self.visited: np.ndarray | None = None

    def setup(self, graph: CSRGraph, source: int | None = None) -> None:
        self.graph = graph
        start = self._source if source is None else source
        if not self._active[start]:
            raise InvalidParameterError("reachability source must be active")
        self.visited = np.zeros(graph.num_nodes, dtype=bool)
        self.visited[start] = True
        self._source = int(start)

    def initial_frontier(self) -> np.ndarray:
        return np.array([self._source], dtype=np.int64)

    def process_level(
        self,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_pos: np.ndarray | None = None,
    ) -> np.ndarray:
        assert self.visited is not None
        passes = self._active[edge_dst] & ~self.visited[edge_dst]
        next_frontier = contract(edge_dst[passes])
        self.visited[next_frontier] = True
        return next_frontier

    def result(self) -> dict[str, np.ndarray]:
        assert self.visited is not None
        return {"visited": self.visited}


@dataclass
class SCCResult:
    """Outcome of an SCC decomposition.

    Attributes:
        labels: SCC id per node (the smallest member's id).
        num_components: number of SCCs found.
        seconds: simulated time across all sweeps.
        sweeps: number of reachability traversals executed.
        trimmed: nodes resolved by the trim step (degree-0 in their
            partition) without any traversal.
    """

    labels: np.ndarray
    num_components: int
    seconds: float
    sweeps: int
    trimmed: int


def strongly_connected_components(
    graph: CSRGraph,
    scheduler_factory,
) -> SCCResult:
    """Decompose ``graph`` into SCCs with Forward-Backward + trimming.

    Args:
        graph: input digraph.
        scheduler_factory: zero-arg callable building a fresh
            :class:`~repro.core.scheduler.Scheduler` per sweep (forward
            and backward sweeps traverse different CSRs).

    More than :data:`MAX_PARTITIONS` worklist partitions raises
    :class:`~repro.errors.InvalidParameterError`.
    """
    n = graph.num_nodes
    reverse = graph.reversed()
    labels = np.full(n, -1, dtype=np.int64)
    trace: list[TraceNode] = []
    sweeps = 0
    trimmed_total = 0

    worklist: list[np.ndarray] = [np.arange(n, dtype=np.int64)]
    processed = 0
    while worklist:
        processed += 1
        if processed > MAX_PARTITIONS:
            raise InvalidParameterError("partition worklist exceeded bound")
        partition = worklist.pop()
        if partition.size == 0:
            continue
        # Trim to fixpoint: nodes with no in- or out-edges inside the
        # partition are singleton SCCs; removing them can expose more
        # (chains trim away entirely without any traversal).
        active = np.zeros(n, dtype=bool)
        active[partition] = True
        while partition.size:
            local_out = _masked_degree(graph, partition, active)
            local_in = _masked_degree_rev(reverse, partition, active)
            trivial_mask = (local_out == 0) | (local_in == 0)
            if not trivial_mask.any():
                break
            trivial = partition[trivial_mask]
            labels[trivial] = trivial
            trimmed_total += int(trivial.size)
            partition = partition[~trivial_mask]
            active[trivial] = False
        if partition.size == 0:
            continue
        if partition.size == 1:
            labels[partition] = partition
            continue

        pivot = int(partition[0])
        fwd = _reach(graph, active, pivot, scheduler_factory, trace)
        bwd = _reach(reverse, active, pivot, scheduler_factory, trace)
        sweeps += 2

        scc_mask = fwd & bwd
        members = np.flatnonzero(scc_mask)
        labels[members] = members.min()

        remainder_fwd = partition[fwd[partition] & ~scc_mask[partition]]
        remainder_bwd = partition[bwd[partition] & ~scc_mask[partition]]
        remainder_none = partition[~fwd[partition] & ~bwd[partition]]
        for rest in (remainder_fwd, remainder_bwd, remainder_none):
            if rest.size:
                worklist.append(rest)

    return SCCResult(
        labels=labels,
        num_components=int(np.unique(labels).size),
        seconds=trace_seconds(trace),
        sweeps=sweeps,
        trimmed=trimmed_total,
    )


def _masked_degree(
    graph: CSRGraph, partition: np.ndarray, active: np.ndarray
) -> np.ndarray:
    """Out-degree of each partition node counting only intra-partition
    edges."""
    _, edge_dst, __ = graph.expand_frontier(partition)
    degrees = graph.offsets[partition + 1] - graph.offsets[partition]
    owner = np.repeat(np.arange(partition.size), degrees)
    inside = active[edge_dst]
    out = np.zeros(partition.size, dtype=np.int64)
    np.add.at(out, owner, inside.astype(np.int64))
    return out


def _masked_degree_rev(
    reverse: CSRGraph, partition: np.ndarray, active: np.ndarray
) -> np.ndarray:
    """In-degree restricted to the partition (out-degree on G^T)."""
    return _masked_degree(reverse, partition, active)


def _reach(
    graph: CSRGraph,
    active: np.ndarray,
    pivot: int,
    scheduler_factory,
    trace: list[TraceNode],
) -> np.ndarray:
    """One masked reachability sweep; appends its nodes to ``trace``."""
    app = MaskedReachabilityApp(active, pivot)
    result = TraversalPipeline(graph, scheduler_factory()).run(app, source=None)
    trace.extend(result.node_trace)
    return result.result["visited"]
