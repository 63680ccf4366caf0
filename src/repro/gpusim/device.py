"""Simulated GPU device: executes kernels, accumulates time and counters."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.gpusim.cost import KernelCostModel, KernelStats, KernelTiming
from repro.gpusim.profiler import Profiler
from repro.gpusim.spec import GPUSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.sanitizer import Sanitizer


class Device:
    """One simulated GPU.

    Runners submit :class:`KernelStats` via :meth:`run_kernel`; the
    device scores them with its cost model and keeps a running clock plus
    a :class:`Profiler`.  Non-kernel time (host link transfers, inter-GPU
    exchange) is priced by the runners, never on this clock.  An
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
        self.elapsed_seconds = 0.0
        self.sanitizer = sanitizer

    def run_kernel(self, stats: KernelStats) -> KernelTiming:
        """Execute one kernel; advances the device clock."""
        if self.sanitizer is not None:
            self.sanitizer.check_kernel_stats(stats, self.spec)
        timing = self.cost_model.time_kernel(stats)
        self.profiler.record(stats, timing)
        self.elapsed_seconds += self.spec.cycles_to_seconds(timing.cycles)
        return timing

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Device({self.spec.name}, elapsed={self.elapsed_seconds * 1e3:.3f} ms, "
            f"kernels={self.profiler.kernels})"
        )
