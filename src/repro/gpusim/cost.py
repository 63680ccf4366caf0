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
from dataclasses import dataclass, field, fields

import numpy as np
import numpy.typing as npt

from repro.errors import InvalidParameterError, SchedulingError
from repro.gpusim.memory import estimate_dram_sectors
from repro.gpusim.spec import GPUSpec


@dataclass
class KernelStats:
    """Scheduler-reported execution shape of one kernel.

    Attributes:
        active_edges: edges actually processed (useful work).
        issued_lane_cycles: lane-slots issued including divergence waste;
            always >= active_edges.
        per_sm_lane_cycles: length ``num_sms`` array distributing the
            issued lane-cycles over SMs according to the scheduler's
            placement rule (max drives compute time).
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
    per_sm_lane_cycles: npt.NDArray[np.float64] = field(
        default_factory=lambda: np.zeros(0)
    )
    value_sector_touches: int = 0
    value_sector_unique: int = 0
    csr_sector_touches: int = 0
    concurrency_warps: float = 0.0
    overhead_cycles: float = 0.0
    extra_dram_bytes: float = 0.0
    atomic_conflicts: float = 0.0
    compute_scale: float = 1.0

    def validate(self, spec: GPUSpec) -> None:
        """Raise :class:`SchedulingError` on inconsistent stats."""
        if self.issued_lane_cycles + 1e-9 < self.active_edges:
            raise SchedulingError(
                f"issued lanes ({self.issued_lane_cycles}) < active edges "
                f"({self.active_edges})"
            )
        if self.value_sector_unique > self.value_sector_touches:
            raise SchedulingError("unique sectors exceed total touches")
        if self.per_sm_lane_cycles.size not in (0, spec.num_sms):
            raise SchedulingError(
                f"per-SM array has {self.per_sm_lane_cycles.size} entries, "
                f"expected 0 or {spec.num_sms}"
            )

    @property
    def lane_efficiency(self) -> float:
        """Active / issued lanes; 1.0 means divergence-free."""
        if self.issued_lane_cycles == 0:
            return 1.0
        return self.active_edges / self.issued_lane_cycles


@dataclass
class KernelBatch:
    """The :class:`KernelStats` of a queue of kernels, as columns.

    Row ``i`` of every field is kernel ``i``'s value of the
    :class:`KernelStats` field of the same name, except
    ``busiest_lane_cycles``: it stands for ``per_sm_lane_cycles`` and
    keeps only the busiest SM's lane-cycles, the one value of a
    placement the cost model reads.  A single kernel is a batch of one
    (:meth:`of`).
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
    def of(cls, rows: Sequence[KernelStats], spec: GPUSpec) -> KernelBatch:
        """``rows`` as one batch, in order.  Each row is checked by
        :meth:`KernelStats.validate` as it is stacked; a row without a
        placement has its issued lane-cycles spread evenly over SMs."""
        sms = max(1, spec.num_sms)
        ints, floats = [], []
        for row in rows:
            row.validate(spec)
            per_sm = row.per_sm_lane_cycles
            ints.append((row.active_edges, row.issued_lane_cycles, row.value_sector_touches,
                         row.value_sector_unique, row.csr_sector_touches))
            floats.append((
                float(per_sm.max()) if per_sm.size else row.issued_lane_cycles / sms,
                row.concurrency_warps, row.overhead_cycles, row.extra_dram_bytes,
                row.atomic_conflicts, row.compute_scale,
            ))
        active, issued, touches, unique, csr = np.array(ints, dtype=np.int64).reshape(-1, 5).T
        busiest, warps, overhead, extra, atomics, scale = (
            np.array(floats, dtype=np.float64).reshape(-1, 6).T
        )
        return cls(active, issued, busiest, touches, unique, csr, warps, overhead, extra,
                   atomics, scale)

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
        per row (the batch's form of the per-SM length check)."""
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
        stats.validate(spec)

        # --- compute side -------------------------------------------------
        if stats.per_sm_lane_cycles.size:
            busiest = float(stats.per_sm_lane_cycles.max())
        else:
            busiest = stats.issued_lane_cycles / max(1, spec.num_sms)
        edge_cycles = spec.cycles_per_edge * stats.compute_scale
        compute_cycles = busiest * edge_cycles / spec.warp_size
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


def even_placement(
    total_lane_cycles: float, num_sms: int
) -> npt.NDArray[np.float64]:
    """Work-conserving placement: every SM gets an equal share.

    This is what a device-global work queue (Resident Tile Stealing,
    Gunrock's balanced advance) achieves.
    """
    return np.full(num_sms, total_lane_cycles / max(1, num_sms))


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
