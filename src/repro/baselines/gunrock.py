"""Gunrock-style load-balanced advance (Wang et al. [48]).

Gunrock's advance operator balances *edges*, not nodes: the expanded edge
range of the whole frontier is split evenly across threads via merge-path
binary searches, so lane efficiency is near-perfect and no SM can become
a straggler — at the price of per-thread search overhead every iteration
and of access batches that ignore adjacency boundaries (slightly weaker
tile locality than degree-aligned tiles).
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
    warp_chunk_starts,
)
from repro.graph.csr import CSRGraph
from repro.gpusim.cost import KernelStats

#: merge-path binary search cost per warp per iteration (lane-cycles).
SEARCH_CYCLES = 48.0
#: frontier bookkeeping (filter/compact operators) per frontier node.
OPERATOR_CYCLES = 3.0


class GunrockScheduler(Scheduler):
    """Merge-path edge balancing with a device-wide even distribution."""

    name = "gunrock"

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
        starts = warp_chunk_starts(active, spec.warp_size)
        sectors, addresses = kernel_distinct_counts(
            edge_dst, spec.sector_width, graph.num_nodes
        )
        touches, unique = value_sector_accounting(
            edge_dst, starts, spec,
            presorted=False, access_factor=app.value_access_factor,
            unique_sectors=sectors,
        )
        sizes = np.diff(np.append(starts, active)) if starts.size else starts
        csr_sectors = csr_gather_sectors(sizes, spec, aligned=False)
        num_warps = int(starts.size)
        issued = num_warps * spec.warp_size if num_warps else 0
        issued = max(issued, active)
        overhead = (
            num_warps * SEARCH_CYCLES + frontier.size * OPERATOR_CYCLES
        ) / spec.num_sms
        return KernelStats(
            active_edges=active,
            issued_lane_cycles=issued,
            busiest_lane_cycles=issued / spec.num_sms,
            value_sector_touches=touches,
            value_sector_unique=unique,
            csr_sector_touches=csr_sectors,
            concurrency_warps=max(
                1.0,
                float(min(num_warps,
                          spec.num_sms * spec.max_resident_warps_per_sm)),
            ),
            overhead_cycles=overhead,
            atomic_conflicts=atomic_conflicts_for(
                app, edge_dst, spec.sector_width, sectors, addresses
            ),
            compute_scale=app.edge_compute_factor,
        )


class GrouteScheduler(GunrockScheduler):
    """Groute-style asynchronous scheduling (Ben-Nun et al. [3]).

    Single-device behaviour matches a balanced advance; Groute's
    distinguishing trait — asynchronous, lower-latency multi-GPU
    coordination — is modeled by the multi-GPU runner (it charges Groute
    a smaller per-iteration synchronization cost than bulk-synchronous
    engines).
    """

    name = "groute"
