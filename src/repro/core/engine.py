"""The SAGE scheduler: self-adaptive graph traversal (paper Section 5).

:class:`SageScheduler` composes the three techniques behind feature flags
so the ablation study (Figure 10) can enable them incrementally:

* ``tiled_partitioning`` — Algorithm 2's runtime load reallocation.
  Off, the engine degenerates to naive thread-per-node mapping (the
  ablation baseline).
* ``resident_stealing`` — Algorithm 3: tiles are expanded to device
  memory once per node, reused on revisits, and consumable by any SM
  (work conserving, high concurrency).
* ``sampling_reorder`` — Section 6's Sampling-based Reordering, running
  rounds whenever the sampled access volume passes the threshold.

Cost accounting: the per-technique overhead constants below are the
simulator's stand-ins for the synchronization/voting instruction costs of
real cooperative groups; they are *per work item across all threads* and
get divided by the SM count (overheads execute in parallel per SM).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.apps.base import App
from repro.core.reorder import SamplingReorderer
from repro.core.resident import ResidentTileStore, TILE_RECORD_BYTES
from repro.core.scheduler import (
    ATOMIC_CONFLICT_RATE,
    ReorderCommit,
    Scheduler,
    atomic_conflicts_for,
    kernel_distinct_counts,
    scale_value_sectors,
)
from repro.core.tiling import (
    COVERED,
    CSR_SECTORS,
    DEFAULT_MIN_TILE,
    ELECTIONS,
    FRAGMENTS,
    TILES,
    UNITS,
    VALUE_TOUCHES,
    NodeAccounting,
    frontier_work_reference,
    node_accounting,
    tile_size_levels,
)
from repro.graph.csr import CSRGraph
from repro.gpusim.cost import KernelBatch, KernelStats, block_placement
from repro.gpusim.memory import distinct_counts
from repro.gpusim.spec import GPUSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.pipeline import Level

# Scheduling-cost constants (lane-cycles per work item).
ELECTION_CYCLES = 24.0      # ballot + elect + three shuffles (Alg. 2 l.10-19)
TILE_ROUND_CYCLES = 4.0     # per-round vote + pointer bump (Alg. 2 l.21-25)
PARTITION_CYCLES = 16.0     # cg::partition per block per level (Alg. 2 l.28)
FRAGMENT_SETUP_CYCLES = 8.0  # scan-based gather setup per fragment node
TILE_WRITE_CYCLES = 6.0     # expandTiles store per new tile (Alg. 3 l.3)
TILE_CONSUME_CYCLES = 2.0   # popping a resident tile from the global queue
SAMPLE_CYCLES = 16.0        # Alg. 4 shared-memory counting per sampled tile


class SageScheduler(Scheduler):
    """Self-adaptive scheduler (Tiled Partitioning + RTS + reordering)."""

    def __init__(
        self,
        spec: GPUSpec | None = None,
        *,
        tiled_partitioning: bool = True,
        resident_stealing: bool = True,
        sampling_reorder: bool = False,
        min_tile: int = DEFAULT_MIN_TILE,
        tile_alignment: bool = True,
        reorder_threshold_edges: int | None = None,
    ) -> None:
        super().__init__(spec)
        self.tiled_partitioning = tiled_partitioning
        self.resident_stealing = resident_stealing
        self.sampling_reorder = sampling_reorder
        self.min_tile = min_tile
        # Section 5.3's tile alignment strategy: tiles aligned with
        # physical memory sectors so coalesced gathers never straddle;
        # exposed as a flag for the parameter ablation.
        self.tile_alignment = tile_alignment
        self.reorder_threshold_edges = reorder_threshold_edges
        self._store: ResidentTileStore | None = None
        self._reorderer: SamplingReorderer | None = None
        # (targets, distinct sectors, distinct addresses) of the last
        # graph a full kernel ran on; see _distinct_counts
        self._graph_counts: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        # the node table last priced with, and what a reorder commit
        # leaves to derive the next one: (relabelled graph, table, perm)
        self._table: NodeAccounting | None = None
        self._relabel: tuple[CSRGraph, NodeAccounting, np.ndarray] | None = None
        self.name = self._build_name()

    def _build_name(self) -> str:
        parts = ["sage"]
        if self.tiled_partitioning:
            parts.append("tp")
        if self.resident_stealing:
            parts.append("rts")
        if self.sampling_reorder:
            parts.append("sr")
        return "+".join(parts) if len(parts) > 1 else "sage-base"

    # ------------------------------------------------------------------
    # Scheduler interface
    # ------------------------------------------------------------------

    def reset(self, graph: CSRGraph) -> None:
        self._table = None
        self._store = ResidentTileStore(graph) if self.resident_stealing else None
        if self.sampling_reorder:
            threshold = self.reorder_threshold_edges
            if threshold is None:
                threshold = graph.num_edges
            self._reorderer = SamplingReorderer(
                graph.num_nodes,
                self.spec,
                threshold_edges=threshold,
                metrics=self.metrics,
            )
        else:
            self._reorderer = None

    def queue_edge_limit(self, graph: CSRGraph) -> int:
        # post_level reads what pricing sampled: price by the level that readies a round
        if self._reorderer is None:
            return graph.num_edges
        left = self._reorderer.threshold_edges - self._reorderer.sampler.observed_edges
        return min(graph.num_edges, left)

    def kernel_stats(
        self,
        frontier: np.ndarray,
        degrees: np.ndarray,
        edge_dst: np.ndarray,
        graph: CSRGraph,
        app: App,
    ) -> KernelStats:
        """:meth:`level_stats` of one level, whose frontier is compared
        to every node to tell a full kernel."""
        if not self.tiled_partitioning:
            return self._thread_per_node_stats(frontier, degrees, edge_dst, graph, app)
        full = graph.is_full_frontier(frontier)
        return self._price_queue(
            [frontier], [degrees], [edge_dst], [full], graph, app
        ).row(0)

    def level_stats(
        self, levels: Sequence[Level], graph: CSRGraph, app: App
    ) -> KernelBatch:
        """Every queue, of any length, is priced by one
        :meth:`_price_queue` pass; without Tiled Partitioning, level by
        level (:meth:`_thread_per_node_stats` rows)."""
        if not self.tiled_partitioning:
            return super().level_stats(levels, graph, app)
        return self.audited(self._price_queue(
            [level.frontier for level in levels],
            [level.degrees for level in levels],
            [level.edge_dst for level in levels],
            [level.full for level in levels],
            graph, app,
        ))

    def _price_queue(
        self,
        frontiers: list[np.ndarray],
        degrees: list[np.ndarray],
        edge_dsts: list[np.ndarray],
        full: list[bool],
        graph: CSRGraph,
        app: App,
    ) -> KernelBatch:
        """The stats of a queue of kernels, in order, from one pass.

        Every caller passes ``edge_dst = graph.expand_frontier(frontier)[1]``,
        so a kernel's tiling totals are sums of the graph's per-node table
        (Resident Tile Stealing's "tile once per node", on the host): one
        gather of the queue's frontiers, one resident visit, one distinct
        count pass.  A kernel flagged in ``full`` runs over every node in
        id order and gathers nothing: its totals are the table's column
        totals and its distinct counts the graph's.  It is priced as a
        queue of its own, which it is unless |E| < |V|: pricing a queue's
        consecutive parts in turn equals pricing the queue.
        """
        if not frontiers:
            return KernelBatch.of([])
        if len(full) > 1 and any(full):
            alone = [k for k, is_full in enumerate(full) if is_full]
            cuts = sorted({0, len(full), *alone, *(k + 1 for k in alone)})
            return KernelBatch.concat([
                self._price_queue(frontiers[lo:hi], degrees[lo:hi],
                                  edge_dsts[lo:hi], full[lo:hi], graph, app)
                for lo, hi in zip(cuts, cuts[1:])
            ])
        table = self._node_table(graph)
        if full[0]:
            nodes, units, sums = frontiers[0], table.per_node[UNITS], table.totals
        else:
            nodes, units, sums = table.level_totals(frontiers)
        sizes = [frontier.size for frontier in frontiers]
        if self._store is not None:
            new_tiles = self._store.visit_queue(nodes, sizes, units)
        else:
            new_tiles = np.zeros(len(sizes), dtype=np.int64)
        sectors, addresses = self._distinct_counts(full[0], edge_dsts, graph)
        if self._reorderer is not None:
            ends = itertools.accumulate(sizes)
            for frontier, degree, edge_dst, end in zip(frontiers, degrees, edge_dsts, ends):
                level_units = units[end - frontier.size:end]
                self._reorderer.observe(
                    edge_dst, table.segment_starts(frontier, degree, level_units)
                )
        return self._price_columns(
            frontiers, degrees, edge_dsts, sums, new_tiles, sectors, addresses, app
        )

    def _price_columns(
        self,
        frontiers: Sequence[np.ndarray],
        degrees: Sequence[np.ndarray],
        edge_dsts: Sequence[np.ndarray],
        sums: np.ndarray,
        new_tiles: np.ndarray,
        sectors: np.ndarray,
        addresses: np.ndarray,
        app: App,
    ) -> KernelBatch:
        """The one formula for a tiled kernel, over a queue as columns.

        ``sums`` holds each kernel's tiling totals (rows ``UNITS`` ..
        ``VALUE_TOUCHES`` of the node table), ``new_tiles`` the tiles its
        resident visit wrote, ``sectors`` and ``addresses`` its distinct
        counts.
        """
        spec = self.spec
        active = np.array([edge_dst.size for edge_dst in edge_dsts], dtype=np.int64)
        if self.sanitizer is not None:
            # Audit the scheduled work units: tiles + fragments must
            # cover the expanded batch exactly (a decomposition gap
            # would silently drop or double-count edges in accounting).
            for covered, edges in zip(sums[COVERED], active):
                self.sanitizer.check_work_units(covered, edges)
        factor = app.value_access_factor
        touches = np.rint(sums[VALUE_TOUCHES] * factor).astype(np.int64)
        unique = np.minimum(touches, np.rint(sectors * factor).astype(np.int64))
        fragments = sums[FRAGMENTS]
        total_tiles = sums[TILES] + fragments
        if self.resident_stealing:
            # Scheduling decisions are resident: new nodes pay the tile
            # write; everything else is a cheap queue pop.  Any SM takes
            # any tile: an even placement.
            overhead_work = (
                new_tiles * TILE_WRITE_CYCLES
                + total_tiles * TILE_CONSUME_CYCLES
                + fragments * FRAGMENT_SETUP_CYCLES
            )
            busiest = active / spec.num_sms
            device_warp_cap = spec.num_sms * spec.max_resident_warps_per_sm
            concurrency = np.minimum(total_tiles, device_warp_cap).astype(np.float64)
            extra_bytes = (new_tiles * TILE_RECORD_BYTES).astype(np.float64)
            if self.metrics.enabled:
                self.metrics.count("sage.tiles", int(total_tiles.sum()))
                self.metrics.count("sage.tiles_expanded", int(new_tiles.sum()))
                self.metrics.count(
                    "sage.tiles_stolen_resident",
                    int(np.maximum(0, total_tiles - new_tiles).sum()),
                )
        else:
            # Dynamic scheduling repeats every visit; tiles are consumed
            # sequentially inside their owner block (Figure 4a).
            blocks = np.array(
                [max(1, -(-frontier.size // spec.block_size)) for frontier in frontiers],
                dtype=np.int64,
            )
            levels = len(tile_size_levels(spec.block_size, self.min_tile))
            overhead_work = (
                sums[ELECTIONS] * ELECTION_CYCLES
                + sums[TILES] * TILE_ROUND_CYCLES
                + blocks * levels * PARTITION_CYCLES
                + fragments * FRAGMENT_SETUP_CYCLES
            )
            busiest = np.array([
                block_placement(
                    self._per_block_lane_cycles(degree, spec.block_size), spec.num_sms
                ).max()
                for degree in degrees
            ])
            # A block works one tile at a time (Figure 4a), but that tile
            # spans the block's lanes, so the loads in flight match the
            # block's resident warps; RTS's edge is device-wide tiles.
            concurrency = (blocks * (spec.block_size // spec.warp_size)).astype(np.float64)
            extra_bytes = np.zeros(len(active))
            if self.metrics.enabled:
                self.metrics.count("sage.tiles", int(total_tiles.sum()))
                self.metrics.count("sage.elections", int(sums[ELECTIONS].sum()))
        overhead = overhead_work / spec.num_sms
        if self._reorderer is not None:
            overhead += (
                self._reorderer.sampler.tile_sample_rate
                * total_tiles * SAMPLE_CYCLES / spec.num_sms
            )
        if app.uses_atomics:  # atomic_conflicts_for, per row
            density = addresses / np.maximum(1, sectors * spec.sector_width)
            conflicts = (
                ATOMIC_CONFLICT_RATE * (active - addresses)
                * (1.0 + np.minimum(1.0, density))
            )
        else:
            conflicts = np.zeros(len(active))
        return KernelBatch(
            active_edges=active,
            issued_lane_cycles=active,  # power-of-two tiles are divergence-free
            busiest_lane_cycles=busiest,
            value_sector_touches=touches,
            value_sector_unique=unique,
            csr_sector_touches=sums[CSR_SECTORS],
            concurrency_warps=np.maximum(1.0, concurrency),
            overhead_cycles=overhead,
            extra_dram_bytes=extra_bytes,
            atomic_conflicts=conflicts,
            compute_scale=np.full(len(active), app.edge_compute_factor, dtype=np.float64),
        )

    def _node_table(self, graph: CSRGraph) -> NodeAccounting:
        """The graph's node table for this tiling configuration: after a
        reorder commit, the last table relabelled (the commit's
        representation update, paper Section 6) rather than re-tiled."""
        spec = self.spec
        relabel = None
        if self._relabel is not None and self._relabel[0] is graph:
            relabel = self._relabel[1:]
        table, built = node_accounting(
            graph, spec.block_size, self.min_tile, spec.sector_width,
            self.tile_alignment, relabel=relabel,
        )
        self._table, self._relabel = table, None
        if built:
            self.metrics.count("sage.node_tables_built")
        return table

    def kernel_stats_reference(
        self,
        frontier: np.ndarray,
        degrees: np.ndarray,
        edge_dst: np.ndarray,
        graph: CSRGraph,
        app: App,
    ) -> KernelStats:
        """:meth:`kernel_stats` priced by re-tiling the frontier (the
        pre-table formulation) and counting its batch's distinct ids,
        through the same :meth:`_price_columns`; kept as the node
        table's equivalence-test reference."""
        if not self.tiled_partitioning:
            return self._thread_per_node_stats(frontier, degrees, edge_dst, graph, app)
        spec = self.spec
        totals, units, starts = frontier_work_reference(
            degrees, edge_dst, spec.block_size, self.min_tile,
            spec.sector_width, self.tile_alignment,
        )
        sectors, addresses = kernel_distinct_counts(
            edge_dst, spec.sector_width, graph.num_nodes
        )
        new_tiles = self._store.visit(frontier, units)[2] if self._store is not None else 0
        if self._reorderer is not None:
            self._reorderer.observe(edge_dst, starts)
        return self._price_columns(
            [frontier], [degrees], [edge_dst], totals, np.array([new_tiles]),
            np.array([sectors]), np.array([addresses]), app,
        ).row(0)

    def post_level(self, graph: CSRGraph) -> ReorderCommit | None:
        if self._reorderer is None or not self._reorderer.ready:
            return None
        outcome = self._reorderer.compute_round()
        if outcome.is_identity:
            return None
        stats = self._reorderer.update_stats(graph.num_nodes, graph.num_edges)
        return ReorderCommit(perm=outcome.perm, update_stats=stats)

    def notify_reordered(self, perm: np.ndarray, graph: CSRGraph) -> None:
        # Stored tile records point at stale CSR offsets after the
        # representation update — drop them (Section 6's update step).
        if self._store is not None:
            self._store.invalidate_all()
        if self._table is not None:
            self._relabel = (graph, self._table, perm)

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------

    def _distinct_counts(
        self, full: bool, edge_dsts: Sequence[np.ndarray], graph: CSRGraph
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each kernel's distinct sectors and addresses, from one
        :func:`~repro.gpusim.memory.distinct_counts` pass.

        A ``full`` kernel runs over every node in id order (each
        iteration of a full-frontier app such as PageRank), so it reads
        exactly ``graph.targets``: this scheduler counts it once per
        graph.
        """
        width = self.spec.sector_width
        if not full:
            return distinct_counts(edge_dsts, graph.num_nodes, width)
        cached = self._graph_counts
        if cached is None or cached[0] is not graph.targets:
            cached = (graph.targets,
                      *distinct_counts([graph.targets], graph.num_nodes, width))
            self._graph_counts = cached
        return cached[1], cached[2]

    def _thread_per_node_stats(
        self,
        frontier: np.ndarray,
        degrees: np.ndarray,
        edge_dst: np.ndarray,
        graph: CSRGraph,
        app: App,
    ) -> KernelStats:
        """Ablation baseline: one thread per frontier node, no cooperation.

        A warp of 32 consecutive frontier nodes executes until its
        largest degree finishes — the textbook divergence failure mode on
        skewed graphs (Section 3.1).  Memory accesses are fully
        uncoalesced (each lane walks its own adjacency).
        """
        spec = self.spec
        active = int(edge_dst.size)
        sectors, addresses = kernel_distinct_counts(
            edge_dst, spec.sector_width, graph.num_nodes
        )
        pad = (-degrees.size) % spec.warp_size
        padded = np.append(degrees, np.zeros(pad, dtype=degrees.dtype))
        per_warp_max = padded.reshape(-1, spec.warp_size).max(axis=1)
        issued = int((per_warp_max * spec.warp_size).sum())
        num_blocks = max(1, -(-frontier.size // spec.block_size))
        per_block = self._per_block_lane_cycles(
            np.repeat(per_warp_max, spec.warp_size)[:degrees.size]
            if degrees.size else degrees,
            spec.block_size,
        )
        touches, unique = scale_value_sectors(
            active, sectors, app.value_access_factor
        )
        return KernelStats(
            active_edges=active,
            issued_lane_cycles=max(issued, active),
            busiest_lane_cycles=float(block_placement(per_block, spec.num_sms).max()),
            value_sector_touches=touches,
            value_sector_unique=unique,
            csr_sector_touches=active,  # uncoalesced adjacency reads
            concurrency_warps=max(1.0, float(num_blocks
                                             * spec.block_size
                                             // spec.warp_size)),
            overhead_cycles=0.0,
            atomic_conflicts=atomic_conflicts_for(
                app, edge_dst, spec.sector_width, sectors, addresses
            ),
            compute_scale=app.edge_compute_factor,
        )

    @staticmethod
    def _per_block_lane_cycles(
        degrees: np.ndarray, block_size: int
    ) -> np.ndarray:
        """Lane-cycles per owner block (contiguous frontier chunks)."""
        if degrees.size == 0:
            return np.zeros(1)
        pad = (-degrees.size) % block_size
        padded = np.append(
            np.asarray(degrees, dtype=np.float64), np.zeros(pad)
        )
        return padded.reshape(-1, block_size).sum(axis=1)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def resident_store(self) -> ResidentTileStore | None:
        """The resident tile store (None when RTS is disabled)."""
        return self._store

    @property
    def reorderer(self) -> SamplingReorderer | None:
        """The sampling reorderer (None when SR is disabled)."""
        return self._reorderer
