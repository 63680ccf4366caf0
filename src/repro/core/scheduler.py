"""Scheduler abstraction shared by SAGE and every baseline.

A scheduler decides *how* the expanded edges of one iteration are mapped
onto GPU thread groups.  It never changes the traversal's semantics —
that is the application's job — it only reports the execution shape
(:class:`~repro.gpusim.cost.KernelStats`) the cost model scores.  This
mirrors the paper's setup: all compared approaches run the same
node-centric pipeline and differ in load reallocation, work stealing and
data layout.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.apps.base import App
from repro.graph.csr import CSRGraph
from repro.gpusim.cost import KernelBatch, KernelStats
from repro.gpusim.memory import (
    coalesced_sectors,
    distinct_counts,
    segmented_distinct_sectors,
)
from repro.gpusim.spec import GPUSpec
from repro.obs import NULL_REGISTRY, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.sanitizer import Sanitizer
    from repro.core.pipeline import Level

#: Fraction of duplicate-address atomic updates that serialize, for
#: atomic-aggregation apps (BC/PR, Section 7.2).
ATOMIC_CONFLICT_RATE = 0.004


@dataclass(frozen=True)
class ReorderCommit:
    """A permutation a self-adaptive scheduler wants applied.

    Attributes:
        perm: bijection, ``new_id = perm[old_id]``.
        update_stats: kernel stats charging the graph-representation
            update (the bb_segsort-style index replacement, Section 6).
    """

    perm: np.ndarray
    update_stats: KernelStats


class Scheduler(ABC):
    """Maps one iteration's expanded edges onto simulated hardware."""

    name: str = "scheduler"

    def __init__(self, spec: GPUSpec | None = None) -> None:
        self.spec = spec or GPUSpec()
        self.metrics: MetricsRegistry = NULL_REGISTRY
        self.sanitizer: "Sanitizer | None" = None

    def set_metrics(self, metrics: MetricsRegistry | None) -> None:
        """Attach the run's observability registry (pipelines call this
        before :meth:`reset`; the default sink is the disabled registry,
        so scheduler instrumentation is unconditional and zero-cost)."""
        self.metrics = metrics if metrics is not None else NULL_REGISTRY

    def set_sanitizer(self, sanitizer: "Sanitizer | None") -> None:
        """Attach (or detach) the run's hazard sanitizer.  Schedulers
        with internal work-unit structure report it for auditing; the
        default None keeps the hot path branch-predictable and free."""
        self.sanitizer = sanitizer

    def reset(self, graph: CSRGraph) -> None:
        """Called once before a run; clears any per-run state."""

    @abstractmethod
    def kernel_stats(
        self,
        frontier: np.ndarray,
        degrees: np.ndarray,
        edge_dst: np.ndarray,
        graph: CSRGraph,
        app: App,
    ) -> KernelStats:
        """Score one expansion+filtering kernel.

        Args:
            frontier: active nodes of this iteration.
            degrees: their out-degrees (frontier order).
            edge_dst: concatenated neighbor ids, frontier order (each
                node's slice sorted ascending — the CSR invariant).
            graph: the current graph.
            app: the running application (atomicity, access factor).
        """

    def level_stats(
        self, levels: Sequence[Level], graph: CSRGraph, app: App
    ) -> KernelBatch:
        """Score a queue of expansion+filtering kernels, one per level.

        ``levels`` ran in this order on ``graph`` (each carries its
        ``frontier``, ``degrees`` and ``edge_dst``); row ``i`` of the
        result is :meth:`kernel_stats` of level ``i``, which is what
        this default stacks.
        """
        return self.stack([
            self.kernel_stats(level.frontier, level.degrees, level.edge_dst,
                              graph, app)
            for level in levels
        ])

    def stack(self, rows: Sequence[KernelStats]) -> KernelBatch:
        """``rows`` (kernels this scheduler reported) as one batch,
        :meth:`audited`."""
        return self.audited(KernelBatch.of(rows))

    def audited(self, batch: KernelBatch) -> KernelBatch:
        """``batch``, after the sanitizer, if one is attached, audits it."""
        if self.sanitizer is not None:
            self.sanitizer.check_kernel_batch(batch)
        return batch

    def queue_edge_limit(self, graph: CSRGraph) -> int:
        """Edges a pipeline may queue before pricing them: |E|, so a
        queue's memory is of the order of the CSR its levels were
        expanded from and a full frontier fills a queue alone; fewer
        when :meth:`post_level` reads what pricing recorded."""
        return graph.num_edges

    def post_level(self, graph: CSRGraph) -> ReorderCommit | None:
        """Give self-adaptive schedulers a chance to commit a reordering."""
        return None

    def notify_reordered(self, perm: np.ndarray, graph: CSRGraph) -> None:
        """Called after the pipeline applies a :class:`ReorderCommit`:
        ``graph`` is the relabelled graph, ``permute(perm)`` of the last."""


def kernel_distinct_counts(
    edge_dst: np.ndarray, sector_width: int, num_nodes: int
) -> tuple[int, int]:
    """One kernel's distinct sectors (of ``edge_dst // sector_width``) and
    distinct addresses (of ``edge_dst``), from one
    :func:`~repro.gpusim.memory.distinct_counts` pass over ids below
    ``num_nodes``: what :func:`value_sector_accounting` and
    :func:`atomic_conflicts_for` share."""
    sectors, addresses = distinct_counts([edge_dst], num_nodes, sector_width)
    return int(sectors[0]), int(addresses[0])


def value_sector_accounting(
    edge_dst: np.ndarray,
    segment_starts: np.ndarray,
    spec: GPUSpec,
    *,
    presorted: bool,
    unique_sectors: int,
    access_factor: float = 1.0,
) -> tuple[int, int]:
    """Scattered value-array transactions of one kernel.

    Each segment is one concurrent tile access; its cost is the number of
    distinct sectors among its neighbor ids (paper Section 6's objective).

    Args:
        unique_sectors: the kernel's distinct sector count
            (:func:`kernel_distinct_counts`).

    Returns:
        ``(touches, unique)`` as :func:`scale_value_sectors` reports them.
    """
    if edge_dst.size == 0:
        return 0, 0
    per_segment = segmented_distinct_sectors(
        edge_dst, segment_starts, spec.sector_width, presorted=presorted
    )
    return scale_value_sectors(int(per_segment.sum()), unique_sectors, access_factor)


def scale_value_sectors(
    raw_touches: int, unique_sectors: int, access_factor: float
) -> tuple[int, int]:
    """Value-array ``(touches, unique)`` of one kernel.

    ``raw_touches`` is the per-segment distinct-sector sum; ``unique`` is
    the kernel-wide distinct sector count.  Both are scaled by the app's
    access factor (how many attribute arrays the filter touches).
    """
    touches = int(round(raw_touches * access_factor))
    unique = min(touches, int(round(unique_sectors * access_factor)))
    return touches, unique


def csr_gather_sectors(
    segment_sizes: np.ndarray, spec: GPUSpec, *, aligned: bool
) -> int:
    """Coalesced CSR adjacency-read transactions for all segments."""
    if len(segment_sizes) == 0:
        return 0
    return int(coalesced_sectors(segment_sizes, spec.sector_width,
                                 aligned=aligned).sum())


def atomic_conflicts_for(
    app: App,
    edge_dst: np.ndarray,
    sector_width: int,
    unique_sectors: int,
    unique_addresses: int,
) -> float:
    """Serialized atomic collisions for atomic-aggregation filters.

    Conflicts come from concurrent updates to the *same address*
    (duplicate targets within the batch) and worsen when hot nodes share
    cache sectors (line ping-pong between SMs) — improved locality
    therefore *raises* this term, the paper's "double-edged sword"
    (Section 7.2), even though it lowers load traffic.  The distinct
    counts are the kernel's (:func:`kernel_distinct_counts`).
    """
    if not app.uses_atomics or edge_dst.size == 0:
        return 0.0
    duplicates = int(edge_dst.size) - unique_addresses
    density = unique_addresses / max(1, unique_sectors * sector_width)
    return ATOMIC_CONFLICT_RATE * duplicates * (1.0 + min(1.0, density))


def warp_chunk_starts(total_edges: int, warp_size: int) -> np.ndarray:
    """Segment starts chopping ``total_edges`` into warp-sized chunks.

    Models scan-based gathering: consecutive expanded edges (ignoring
    node boundaries) are packed 32 to a warp.
    """
    if total_edges == 0:
        return np.zeros(0, dtype=np.int64)
    return np.arange(0, total_edges, warp_size, dtype=np.int64)
