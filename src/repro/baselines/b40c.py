"""B40C-style three-bucket scheduling (Merrill et al. [30]).

Frontiers are classified by out-degree into three predefined concurrency
schemes (paper Section 5.3): nodes with a block's worth of neighbors are
expanded by whole blocks, medium nodes by single warps, and small nodes
through fine-grained scan-based gathering.  Rescheduling relies on
intra-block synchronization, so stolen work never leaves the owner SM —
the inter-SM imbalance SAGE's Resident Tile Stealing removes.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import App
from repro.core.scheduler import (
    Scheduler,
    atomic_conflicts_for,
    csr_gather_sectors,
    kernel_distinct_counts,
    value_sector_accounting,
)
from repro.graph.csr import CSRGraph
from repro.gpusim.cost import KernelStats, block_placement
from repro.gpusim.spec import GPUSpec

#: per-frontier-node classification + shared-memory coordination cost.
CLASSIFY_CYCLES = 6.0
#: per-iteration CTA synchronization cost (lane-cycles per work unit).
SYNC_CYCLES = 12.0


def bucket_chunk_sizes(degrees: np.ndarray, spec: GPUSpec) -> np.ndarray:
    """Concurrency scheme (chunk size) per frontier node.

    block bucket: degree >= block_size; warp bucket: degree >= warp_size;
    thread bucket: the node's own degree (one scan-gathered chunk).
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    chunks = np.maximum(degrees, 1)
    chunks = np.where(degrees >= spec.warp_size, spec.warp_size, chunks)
    chunks = np.where(degrees >= spec.block_size, spec.block_size, chunks)
    return chunks


def chunked_segment_starts(
    degrees: np.ndarray, chunk_sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Partition each node's adjacency into chunks of its bucket size.

    Returns ``(starts, sizes)`` in expanded-edge coordinates; the starts
    partition the concatenated edge array of the frontier.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    chunk_sizes = np.asarray(chunk_sizes, dtype=np.int64)
    n_chunks = np.zeros_like(degrees)
    nz = degrees > 0
    n_chunks[nz] = -(-degrees[nz] // chunk_sizes[nz])
    total_chunks = int(n_chunks.sum())
    if total_chunks == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    node_of_chunk = np.repeat(np.arange(degrees.size), n_chunks)
    cum = np.repeat(np.cumsum(n_chunks) - n_chunks, n_chunks)
    within = np.arange(total_chunks, dtype=np.int64) - cum
    node_base = np.repeat(np.cumsum(degrees) - degrees, n_chunks)
    starts = node_base + within * chunk_sizes[node_of_chunk]
    node_end = np.repeat(np.cumsum(degrees), n_chunks)
    sizes = np.minimum(chunk_sizes[node_of_chunk], node_end - starts)
    return starts, sizes


class B40CScheduler(Scheduler):
    """Three predefined concurrency schemes, intra-SM stealing only."""

    name = "b40c"

    def kernel_stats(
        self,
        frontier: np.ndarray,
        degrees: np.ndarray,
        edge_dst: np.ndarray,
        graph: CSRGraph,
        app: App,
    ) -> KernelStats:
        spec = self.spec
        active = int(edge_dst.size)
        chunks = bucket_chunk_sizes(degrees, spec)
        starts, sizes = chunked_segment_starts(degrees, chunks)
        sectors, addresses = kernel_distinct_counts(
            edge_dst, spec.sector_width, graph.num_nodes
        )
        touches, unique = value_sector_accounting(
            edge_dst, starts, spec,
            presorted=True, access_factor=app.value_access_factor,
            unique_sectors=sectors,
        )
        csr_sectors = csr_gather_sectors(sizes, spec, aligned=False)

        # Divergence: the final chunk of a block/warp-bucket node still
        # occupies the full scheme width.  Thread-bucket scan gathering
        # is near-perfect but pays the coordination cost below.
        if sizes.size:
            n_chunks = np.where(degrees > 0, -(-degrees // chunks), 0)
            scheme_width = chunks[np.repeat(np.arange(degrees.size), n_chunks)]
            issued = int(np.where(scheme_width >= spec.warp_size,
                                  scheme_width, sizes).sum())
        else:
            issued = 0
        issued = max(issued, active)

        per_block = self._per_block_lane_cycles(degrees, spec)
        overhead = (
            frontier.size * CLASSIFY_CYCLES + sizes.size * SYNC_CYCLES
        ) / spec.num_sms
        # Three separately launched concurrency schemes = two extra
        # kernel launches folded into overhead.
        overhead += 2.0 * spec.kernel_launch_cycles

        return KernelStats(
            active_edges=active,
            issued_lane_cycles=issued,
            busiest_lane_cycles=float(block_placement(per_block, spec.num_sms).max()),
            value_sector_touches=touches,
            value_sector_unique=unique,
            csr_sector_touches=csr_sectors,
            concurrency_warps=max(1.0, sizes.size / 1.0),
            overhead_cycles=overhead,
            atomic_conflicts=atomic_conflicts_for(
                app, edge_dst, spec.sector_width, sectors, addresses
            ),
            compute_scale=app.edge_compute_factor,
        )

    def _per_block_lane_cycles(
        self, degrees: np.ndarray, spec: GPUSpec
    ) -> np.ndarray:
        """Owner-block work distribution.

        Block-bucket nodes own a block each; warp/thread-bucket nodes are
        packed into CTAs of contiguous frontier chunks.
        """
        degrees = np.asarray(degrees, dtype=np.float64)
        big = degrees >= spec.block_size
        small = ~big
        blocks: list[np.ndarray] = []
        if big.any():
            blocks.append(degrees[big])
        if small.any():
            packed = degrees[small]
            pad = (-packed.size) % spec.block_size
            packed = np.append(packed, np.zeros(pad))
            blocks.append(packed.reshape(-1, spec.block_size).sum(axis=1))
        if not blocks:
            return np.zeros(1)
        return np.concatenate(blocks)
