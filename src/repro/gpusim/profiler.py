"""Execution counters — the stand-in for NVIDIA Nsight Compute.

The paper profiles kernels with Nsight (Section 7.1); here every kernel's
stats and timing are accumulated into a :class:`Profiler` so experiments
can report lane efficiency, DRAM traffic, scheduling overhead share
(Table 3) and memory/compute boundedness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpusim.cost import KernelBatch, KernelBatchTiming

#: The float counters, in the order :meth:`Profiler.record_batch` folds them.
_FLOAT_COUNTERS = (
    "total_cycles", "compute_cycles", "memory_cycles", "overhead_cycles",
    "launch_cycles", "dram_bytes", "atomic_conflicts",
)


@dataclass
class Profiler:
    """Accumulated counters over a run."""

    kernels: int = 0
    total_cycles: float = 0.0
    compute_cycles: float = 0.0
    memory_cycles: float = 0.0
    overhead_cycles: float = 0.0
    launch_cycles: float = 0.0
    active_edges: int = 0
    issued_lane_cycles: int = 0
    value_sector_touches: int = 0
    csr_sector_touches: int = 0
    dram_bytes: float = 0.0
    atomic_conflicts: float = 0.0
    memory_bound_kernels: int = 0

    def record_batch(self, batch: KernelBatch, timing: KernelBatchTiming) -> None:
        """Fold a queue of kernels into the counters, in row order.

        Each float counter is a running sum seeded with its current
        value (``np.add.accumulate`` adds row by row, as a ``+=`` chain
        over the rows does), so folding one batch equals folding its
        rows in any split; integer sums are exact in any order.
        """
        rows = len(batch)
        if not rows:
            return
        columns = (
            timing.cycles, timing.compute_cycles, timing.memory_cycles,
            timing.overhead_cycles, timing.launch_cycles, timing.dram_bytes,
            batch.atomic_conflicts,
        )
        running = np.empty((rows + 1, len(_FLOAT_COUNTERS)))
        for index, (name, column) in enumerate(zip(_FLOAT_COUNTERS, columns)):
            running[0, index] = getattr(self, name)
            running[1:, index] = column
        totals = np.add.accumulate(running, axis=0)[-1].tolist()
        for name, total in zip(_FLOAT_COUNTERS, totals):
            setattr(self, name, total)
        self.kernels += rows
        self.active_edges += int(batch.active_edges.sum())
        self.issued_lane_cycles += int(batch.issued_lane_cycles.sum())
        self.value_sector_touches += int(batch.value_sector_touches.sum())
        self.csr_sector_touches += int(batch.csr_sector_touches.sum())
        self.memory_bound_kernels += int(np.count_nonzero(timing.memory_bound))

    @property
    def lane_efficiency(self) -> float:
        """Aggregate active / issued lanes (1.0 = divergence-free)."""
        if self.issued_lane_cycles == 0:
            return 1.0
        return self.active_edges / self.issued_lane_cycles

    @property
    def overhead_fraction(self) -> float:
        """Share of runtime spent on scheduling overhead (Table 3)."""
        if self.total_cycles == 0:
            return 0.0
        return self.overhead_cycles / self.total_cycles

    def summary(self) -> dict[str, float]:
        """Headline counters as a flat dict (for reports and the CLI)."""
        return {
            "kernels": float(self.kernels),
            "total_cycles": self.total_cycles,
            "lane_efficiency": self.lane_efficiency,
            "overhead_fraction": self.overhead_fraction,
            "dram_mb": self.dram_bytes / 1e6,
            "memory_bound_share": (
                self.memory_bound_kernels / self.kernels
                if self.kernels else 0.0
            ),
            "atomic_conflicts": self.atomic_conflicts,
        }

    def format_summary(self) -> str:
        """Human-readable multi-line summary."""
        s = self.summary()
        return "\n".join([
            f"kernels            {int(s['kernels']):10d}",
            f"lane efficiency    {s['lane_efficiency']:10.3f}",
            f"scheduling share   {100 * s['overhead_fraction']:9.1f} %",
            f"DRAM traffic       {s['dram_mb']:10.2f} MB",
            f"memory-bound share {100 * s['memory_bound_share']:9.1f} %",
            f"atomic conflicts   {s['atomic_conflicts']:10.0f}",
        ])

    def merged_with(self, other: "Profiler") -> "Profiler":
        """Return a new profiler summing both operands' counters."""
        out = Profiler()
        for name in (
            "kernels", "total_cycles", "compute_cycles", "memory_cycles",
            "overhead_cycles", "launch_cycles", "active_edges",
            "issued_lane_cycles", "value_sector_touches",
            "csr_sector_touches", "dram_bytes", "atomic_conflicts",
            "memory_bound_kernels",
        ):
            setattr(out, name, getattr(self, name) + getattr(other, name))
        return out
