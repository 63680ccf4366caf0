"""Tigr: uniform-degree tree transformation (Sabet et al. [37]).

Tigr *preprocesses* the graph: every node with out-degree above a split
threshold ``K`` becomes a tree of virtual nodes, each owning at most
``K`` of the original edges, so a plain thread-per-(virtual-)node kernel
sees a near-regular degree distribution.  The costs the paper calls out
(Sections 3.1, 5.3, 7.2) are modeled explicitly:

* preprocessing time (measured wall-clock of the transform),
* auxiliary structure: extra virtual nodes and tree edges,
* a per-iteration synchronization pass keeping virtual twins coherent —
  pure overhead on graphs that were already regular (why Tigr loses on
  ``brain``).

Traversal *semantics* stay on the real graph (Tigr guarantees equivalent
results via its virtual-node value synchronization), so applications
produce identical outputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.apps.base import App
from repro.baselines.b40c import chunked_segment_starts
from repro.core.scheduler import (
    Scheduler,
    atomic_conflicts_for,
    csr_gather_sectors,
    kernel_distinct_counts,
    value_sector_accounting,
)
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.gpusim.cost import KernelStats
from repro.gpusim.spec import GPUSpec

#: Default virtual-node degree bound (Tigr's paper uses warp-sized splits).
DEFAULT_SPLIT_DEGREE = 32

#: twin-value synchronization cost per virtual node per iteration.
TWIN_SYNC_CYCLES = 24.0
#: coordination between the twins of a *split* node: every extra virtual
#: merges its frontier decision into the parent via global-memory
#: atomics, serializing per split node.
SPLIT_COORDINATION_CYCLES = 60.0


@dataclass(frozen=True)
class UDTTransform:
    """Result of the uniform-degree tree preprocessing."""

    split_degree: int
    virtual_count_per_node: np.ndarray
    num_virtual_nodes: int
    extra_tree_edges: int
    build_seconds: float


def udt_transform(graph: CSRGraph, split_degree: int = DEFAULT_SPLIT_DEGREE) -> UDTTransform:
    """Build the UDT preprocessing metadata for ``graph``.

    Every node of degree ``d`` maps to ``max(1, ceil(d / K))`` virtual
    nodes; split nodes additionally contribute ``ceil(d / K) - 1`` tree
    edges linking their virtual chain.
    """
    if split_degree < 1:
        raise InvalidParameterError("split_degree must be >= 1")
    started = time.perf_counter()
    degrees = graph.out_degrees()
    virtuals = np.maximum(1, -(-degrees // split_degree))
    extra_edges = int((virtuals - 1).sum())
    build_seconds = time.perf_counter() - started
    return UDTTransform(
        split_degree=split_degree,
        virtual_count_per_node=virtuals,
        num_virtual_nodes=int(virtuals.sum()),
        extra_tree_edges=extra_edges,
        build_seconds=build_seconds,
    )


class TigrScheduler(Scheduler):
    """Thread-per-virtual-node traversal over the UDT structure."""

    name = "tigr"

    def __init__(
        self,
        spec: GPUSpec | None = None,
    ) -> None:
        super().__init__(spec)
        self.transform: UDTTransform | None = None

    def reset(self, graph: CSRGraph) -> None:
        self.transform = udt_transform(graph, DEFAULT_SPLIT_DEGREE)

    def kernel_stats(
        self,
        frontier: np.ndarray,
        degrees: np.ndarray,
        edge_dst: np.ndarray,
        graph: CSRGraph,
        app: App,
    ) -> KernelStats:
        if self.transform is None:
            self.reset(graph)
        assert self.transform is not None
        spec = self.spec
        active = int(edge_dst.size)
        k = DEFAULT_SPLIT_DEGREE

        # Virtual nodes of this frontier, each owning <= k edges.
        chunk_sizes = np.minimum(np.maximum(degrees, 1), k)
        starts, sizes = chunked_segment_starts(degrees, chunk_sizes)
        sectors, addresses = kernel_distinct_counts(
            edge_dst, spec.sector_width, graph.num_nodes
        )
        touches, unique = value_sector_accounting(
            edge_dst, starts, spec,
            presorted=True, access_factor=app.value_access_factor,
            unique_sectors=sectors,
        )
        num_virtual = int(sizes.size)

        # Thread-per-virtual-node over UDT's size-grouped virtual array:
        # Tigr stores virtual nodes of equal capacity together, so warps
        # see near-uniform work.  Sorting by size models that grouping;
        # residual divergence comes from the ragged tail of each group.
        if num_virtual:
            ordered = np.sort(sizes)[::-1]
            pad = (-num_virtual) % spec.warp_size
            padded = np.append(ordered, np.zeros(pad, dtype=ordered.dtype))
            per_warp_max = padded.reshape(-1, spec.warp_size).max(axis=1)
            issued = int((per_warp_max * spec.warp_size).sum())
        else:
            issued = 0
        issued = max(issued, active)

        # Twin synchronization keeps split-node copies coherent: pure
        # overhead proportional to the frontier's virtual population,
        # plus serialized twin->parent merges for every *extra* virtual
        # (the aux-structure tax that erases Tigr's gains on already
        # regular graphs like brain), plus one extra launch for the
        # sync pass.
        extra_virtuals = max(0, num_virtual - int(frontier.size))
        overhead = (
            num_virtual * TWIN_SYNC_CYCLES
            + extra_virtuals * SPLIT_COORDINATION_CYCLES
        ) / spec.num_sms
        overhead += spec.kernel_launch_cycles

        # UDT lays each virtual node's <= k edges contiguously; the
        # per-virtual gather coalesces like any chunked read.
        csr_sectors = csr_gather_sectors(sizes, spec, aligned=False)
        return KernelStats(
            active_edges=active,
            issued_lane_cycles=issued,
            busiest_lane_cycles=issued / spec.num_sms,
            value_sector_touches=touches,
            value_sector_unique=unique,
            csr_sector_touches=csr_sectors,
            # Each virtual node is an independent outstanding-load
            # stream (same work-unit accounting as the other schedulers).
            concurrency_warps=max(1.0, float(num_virtual)),
            overhead_cycles=overhead,
            # Twin synchronization reads the parent value and rewrites
            # each virtual copy (two scattered sectors per virtual), on
            # top of the auxiliary virtual-array reads.
            extra_dram_bytes=float(num_virtual * (2 * spec.sector_bytes + 8)),
            atomic_conflicts=atomic_conflicts_for(
                app, edge_dst, spec.sector_width, sectors, addresses
            ),
            compute_scale=app.edge_compute_factor,
        )
