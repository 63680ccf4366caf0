"""Simulated GPU device: scores kernels and accumulates counters."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.gpusim.cost import KernelCostModel, KernelStats, KernelTiming
from repro.gpusim.profiler import Profiler
from repro.gpusim.spec import GPUSpec
from repro.gpusim.streams import KERNEL, TraceNode, kernel_occupancy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.sanitizer import Sanitizer


class Device:
    """One simulated GPU.

    Runners submit :class:`KernelStats` via :meth:`run_kernel`; the
    device scores them with its cost model and records them in a
    :class:`Profiler`.  It keeps no clock: a run's time is its node trace
    (:func:`~repro.gpusim.streams.trace_seconds`).  An
    attached :class:`~repro.analysis.sanitizer.Sanitizer` audits every
    submitted batch for inconsistent stats before it is scored; it never
    affects timing.
    """

    def __init__(
        self,
        spec: GPUSpec | None = None,
        *,
        sanitizer: "Sanitizer | None" = None,
    ) -> None:
        self.spec = spec or GPUSpec()
        self.cost_model = KernelCostModel(self.spec)
        self.profiler = Profiler()
        self.sanitizer = sanitizer

    def run_kernel(self, stats: KernelStats) -> KernelTiming:
        """Execute one kernel and record it in the profiler."""
        if self.sanitizer is not None:
            self.sanitizer.check_kernel_stats(stats, self.spec)
        timing = self.cost_model.time_kernel(stats)
        self.profiler.record(stats, timing)
        return timing

    def kernel_node(self, timing: KernelTiming, iteration: int) -> TraceNode:
        """The trace node of a kernel this device ran in ``iteration``."""
        return TraceNode(
            KERNEL, self.spec.cycles_to_seconds(timing.cycles),
            occupancy=kernel_occupancy(timing), iteration=iteration,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Device({self.spec.name}, kernels={self.profiler.kernels})"
