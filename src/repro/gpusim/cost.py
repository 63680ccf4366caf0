"""Kernel cost model.

Schedulers (SAGE and every baseline) describe one pipeline step as a
:class:`KernelStats`: how many lane-cycles were issued vs active (warp
divergence), how the work landed on SMs (load balance), how many memory
sectors were touched (locality), how many warps were in flight (latency
hiding), and how many cycles of scheduling overhead the strategy itself
spent.  :class:`KernelCostModel` converts that into simulated time.

These are exactly the four effects the paper's techniques target:

* Tiled Partitioning   -> raises lane efficiency (Section 5.1)
* Resident Tile Stealing -> removes inter-SM imbalance, raises
  concurrency, amortizes scheduling overhead (Section 5.2)
* Sampling-based Reordering -> cuts distinct value sectors (Section 6)
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np
import numpy.typing as npt

from repro.errors import InvalidParameterError, SchedulingError
from repro.gpusim.memory import estimate_dram_sectors
from repro.gpusim.spec import GPUSpec


@dataclass
class KernelStats:
    """Scheduler-reported execution shape of one kernel: one row of a
    :class:`KernelBatch` (:meth:`KernelBatch.row`).

    Attributes:
        active_edges: edges actually processed (useful work).
        issued_lane_cycles: lane-slots issued including divergence waste;
            always >= active_edges.
        busiest_lane_cycles: the issued lane-cycles of the busiest SM
            under the scheduler's placement rule (compute time follows
            it): ``issued / num_sms`` for a work-conserving placement,
            ``block_placement(...).max()`` for owner placement.
        value_sector_touches: per-tile distinct value sectors, summed over
            tiles (scattered attribute reads/writes).
        value_sector_unique: kernel-wide distinct value sectors (for the
            L2 reuse estimate).
        csr_sector_touches: coalesced CSR gather transactions.
        concurrency_warps: cooperative groups simultaneously in flight
            device-wide (latency hiding).
        overhead_cycles: strategy scheduling cost (elections, partitions,
            bucket syncs, binary searches, ...) in SM cycles.
        extra_dram_bytes: additional DRAM traffic (tile-store writes,
            auxiliary structures, ...).
        atomic_conflicts: serialized atomic collisions (BC/PR accumulate
            with atomics; improved locality increases conflicts —
            the paper's "double-edged sword", Section 7.2).
        compute_scale: per-edge instruction weight of the running
            application's filter (PR's fp divide + atomicAdd costs more
            than BFS's compare-and-set).
    """

    active_edges: int = 0
    issued_lane_cycles: int = 0
    busiest_lane_cycles: float = 0.0
    value_sector_touches: int = 0
    value_sector_unique: int = 0
    csr_sector_touches: int = 0
    concurrency_warps: float = 0.0
    overhead_cycles: float = 0.0
    extra_dram_bytes: float = 0.0
    atomic_conflicts: float = 0.0
    compute_scale: float = 1.0

    def validate(self) -> None:
        """Raise :class:`SchedulingError` on inconsistent stats."""
        if self.issued_lane_cycles + 1e-9 < self.active_edges:
            raise SchedulingError(
                f"issued lanes ({self.issued_lane_cycles}) < active edges "
                f"({self.active_edges})"
            )
        if self.value_sector_unique > self.value_sector_touches:
            raise SchedulingError("unique sectors exceed total touches")

    @property
    def lane_efficiency(self) -> float:
        """Active / issued lanes; 1.0 means divergence-free."""
        if self.issued_lane_cycles == 0:
            return 1.0
        return self.active_edges / self.issued_lane_cycles


#: The integer fields of :class:`KernelStats`, int64 columns of a batch.
_INT_FIELDS = frozenset({
    "active_edges", "issued_lane_cycles", "value_sector_touches",
    "value_sector_unique", "csr_sector_touches",
})


@dataclass
class KernelBatch:
    """The :class:`KernelStats` of a queue of kernels, as columns: row
    ``i`` of every field is kernel ``i``'s value of the
    :class:`KernelStats` field of the same name.  A single kernel is a
    batch of one (:meth:`of`, :meth:`row`).
    """

    active_edges: npt.NDArray[np.int64]
    issued_lane_cycles: npt.NDArray[np.int64]
    busiest_lane_cycles: npt.NDArray[np.float64]
    value_sector_touches: npt.NDArray[np.int64]
    value_sector_unique: npt.NDArray[np.int64]
    csr_sector_touches: npt.NDArray[np.int64]
    concurrency_warps: npt.NDArray[np.float64]
    overhead_cycles: npt.NDArray[np.float64]
    extra_dram_bytes: npt.NDArray[np.float64]
    atomic_conflicts: npt.NDArray[np.float64]
    compute_scale: npt.NDArray[np.float64]

    @classmethod
    def of(cls, rows: Sequence[KernelStats]) -> KernelBatch:
        """``rows`` as one batch, in order.  Nothing is checked until the
        batch is scored (:meth:`validate`)."""
        return cls(**{
            column.name: np.array(
                [getattr(row, column.name) for row in rows],
                dtype=np.int64 if column.name in _INT_FIELDS else np.float64,
            )
            for column in fields(cls)
        })

    def row(self, index: int) -> KernelStats:
        """Row ``index`` as a :class:`KernelStats` of Python scalars."""
        return KernelStats(**{
            column.name: getattr(self, column.name)[index].item()
            for column in fields(self)
        })

    @classmethod
    def concat(cls, batches: Sequence[KernelBatch]) -> KernelBatch:
        """The rows of ``batches``, in order, as one batch."""
        if len(batches) == 1:
            return batches[0]
        return cls(**{
            column.name: np.concatenate([getattr(b, column.name) for b in batches])
            for column in fields(cls)
        })

    def __len__(self) -> int:
        return int(self.active_edges.size)

    def validate(self) -> None:
        """Raise :class:`SchedulingError` if any row breaks an invariant
        of :meth:`KernelStats.validate`, or a column is not one value
        per row."""
        rows = len(self)
        for column in fields(self):
            if getattr(self, column.name).shape != (rows,):
                raise SchedulingError(
                    f"column {column.name} has shape "
                    f"{getattr(self, column.name).shape}, expected ({rows},)"
                )
        short = np.flatnonzero(
            self.issued_lane_cycles + 1e-9 < self.active_edges
        )
        if short.size:
            row = int(short[0])
            raise SchedulingError(
                f"row {row}: issued lanes ({self.issued_lane_cycles[row]}) "
                f"< active edges ({self.active_edges[row]})"
            )
        over = np.flatnonzero(
            self.value_sector_unique > self.value_sector_touches
        )
        if over.size:
            raise SchedulingError(
                f"row {int(over[0])}: unique sectors exceed total touches"
            )


@dataclass(frozen=True)
class KernelTiming:
    """:meth:`KernelCostModel.time_kernel_reference`'s output for one kernel."""

    cycles: float
    compute_cycles: float
    memory_cycles: float
    overhead_cycles: float
    launch_cycles: float
    dram_bytes: float
    bound: str  # "compute" | "memory"


@dataclass(frozen=True)
class KernelBatchTiming:
    """Cost-model output for a :class:`KernelBatch`: row ``i`` of each
    column is kernel ``i``'s :class:`KernelTiming` field, and
    ``memory_bound`` marks the rows whose ``bound`` is ``"memory"``."""

    cycles: npt.NDArray[np.float64]
    compute_cycles: npt.NDArray[np.float64]
    memory_cycles: npt.NDArray[np.float64]
    overhead_cycles: npt.NDArray[np.float64]
    launch_cycles: float
    dram_bytes: npt.NDArray[np.float64]
    memory_bound: npt.NDArray[np.bool_]


class KernelCostModel:
    """Scores a :class:`KernelBatch` (:meth:`time_kernels`)."""

    def __init__(self, spec: GPUSpec) -> None:
        self.spec = spec

    def time_kernel_reference(self, stats: KernelStats) -> KernelTiming:
        """Score one kernel: the scalar formula :meth:`time_kernels`
        applies to every row, kept as its bit-identity oracle.

        kernel = max(compute, memory / hiding) + overhead + launch

        * compute: the busiest SM's issued lane-cycles, converted to
          cycles at ``warp_size`` lanes retired per cycle, scaled by the
          per-edge instruction cost.
        * memory: DRAM sectors (after the L2 reuse estimate) at device
          bandwidth; divided by a latency-hiding factor < 1 when fewer
          warps are in flight than the device needs to cover DRAM latency.
        * atomics: serialized collisions add compute cycles.
        """
        spec = self.spec
        stats.validate()

        # --- compute side -------------------------------------------------
        edge_cycles = spec.cycles_per_edge * stats.compute_scale
        compute_cycles = stats.busiest_lane_cycles * edge_cycles / spec.warp_size
        compute_cycles += stats.atomic_conflicts * edge_cycles

        # --- memory side --------------------------------------------------
        value_dram = estimate_dram_sectors(
            stats.value_sector_touches,
            stats.value_sector_unique,
            spec.l2_sectors,
        )
        dram_bytes = (
            (value_dram + stats.csr_sector_touches) * spec.sector_bytes
            + stats.extra_dram_bytes
        )
        memory_cycles = dram_bytes / spec.bytes_per_cycle
        hiding_needed = spec.num_sms * spec.latency_hiding_warps
        if stats.concurrency_warps > 0:
            shortfall = hiding_needed / stats.concurrency_warps
            if shortfall > 1.0:
                # Exposed latency: bounded by the full-stall case where
                # every transaction serializes behind DRAM latency.
                memory_cycles *= min(shortfall, spec.mem_latency_cycles / 8.0)

        total = (
            max(compute_cycles, memory_cycles)
            + stats.overhead_cycles
            + spec.kernel_launch_cycles
        )
        return KernelTiming(
            cycles=total,
            compute_cycles=compute_cycles,
            memory_cycles=memory_cycles,
            overhead_cycles=stats.overhead_cycles,
            launch_cycles=spec.kernel_launch_cycles,
            dram_bytes=dram_bytes,
            bound="compute" if compute_cycles >= memory_cycles else "memory",
        )

    def time_kernels(self, batch: KernelBatch) -> KernelBatchTiming:
        """Score every row of ``batch`` in one pass.

        Row ``i`` equals :meth:`time_kernel_reference` on kernel ``i``,
        bit for bit: every column takes the same float operations in the
        same order.
        """
        spec = self.spec
        batch.validate()
        unique = batch.value_sector_unique
        if np.any(unique < 0):  # estimate_dram_sectors' precondition
            raise InvalidParameterError("need touches >= unique >= 0")

        # --- compute side -------------------------------------------------
        edge_cycles = spec.cycles_per_edge * batch.compute_scale
        compute_cycles = batch.busiest_lane_cycles * edge_cycles / spec.warp_size
        compute_cycles += batch.atomic_conflicts * edge_cycles

        # --- memory side: estimate_dram_sectors, then the reference -------
        cold = unique > 0
        overflow = np.maximum(
            0.0, 1.0 - spec.l2_sectors / np.where(cold, unique, 1)
        )
        value_dram = np.where(
            cold, unique + (batch.value_sector_touches - unique) * overflow, 0.0
        )
        dram_bytes = (
            (value_dram + batch.csr_sector_touches) * spec.sector_bytes
            + batch.extra_dram_bytes
        )
        memory_cycles = dram_bytes / spec.bytes_per_cycle
        hiding_needed = spec.num_sms * spec.latency_hiding_warps
        concurrency = batch.concurrency_warps
        in_flight = concurrency > 0
        with np.errstate(over="ignore"):  # inf, silently, as a float division gives
            shortfall = hiding_needed / np.where(in_flight, concurrency, 1.0)
        exposed = in_flight & (shortfall > 1.0)
        memory_cycles = np.where(
            exposed,
            memory_cycles * np.minimum(shortfall, spec.mem_latency_cycles / 8.0),
            memory_cycles,
        )

        cycles = (
            np.maximum(compute_cycles, memory_cycles)
            + batch.overhead_cycles
            + spec.kernel_launch_cycles
        )
        return KernelBatchTiming(
            cycles=cycles,
            compute_cycles=compute_cycles,
            memory_cycles=memory_cycles,
            overhead_cycles=batch.overhead_cycles,
            launch_cycles=spec.kernel_launch_cycles,
            dram_bytes=dram_bytes,
            memory_bound=~(compute_cycles >= memory_cycles),
        )


def block_placement(
    per_block_lane_cycles: npt.ArrayLike, num_sms: int
) -> npt.NDArray[np.float64]:
    """Owner placement: blocks are bound round-robin to SMs.

    Work scheduled inside a block stays on its SM (no inter-SM stealing —
    the limitation of Tiled Partitioning alone and of B40C, Sections
    5.2/5.3), so a heavy block makes its SM the straggler.
    """
    per_block = np.asarray(per_block_lane_cycles, dtype=np.float64)
    out = np.zeros(num_sms, dtype=np.float64)
    if per_block.size == 0:
        return out
    sm_of_block = np.arange(per_block.size) % num_sms
    np.add.at(out, sm_of_block, per_block)
    return out
