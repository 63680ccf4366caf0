"""Simulated GPU device: scores kernels and accumulates counters."""

from __future__ import annotations

from collections.abc import Sequence

from repro.gpusim.cost import (
    KernelBatch,
    KernelBatchTiming,
    KernelCostModel,
    KernelStats,
)
from repro.gpusim.profiler import Profiler
from repro.gpusim.spec import GPUSpec
from repro.gpusim.streams import KERNEL, TraceNode, kernel_occupancies


class Device:
    """One simulated GPU.

    Runners submit kernels as one :class:`KernelBatch` via
    :meth:`run_kernels`; the device scores them with its cost model and
    records them in a :class:`Profiler`.  It keeps no clock: a run's
    time is its node trace (:func:`~repro.gpusim.streams.trace_seconds`).
    It audits nothing: a scheduler audits the batches it builds
    (:meth:`~repro.core.scheduler.Scheduler.audited`).
    """

    def __init__(self, spec: GPUSpec | None = None) -> None:
        self.spec = spec or GPUSpec()
        self.cost_model = KernelCostModel(self.spec)
        self.profiler = Profiler()

    def run_kernel(self, stats: KernelStats) -> KernelBatchTiming:
        """Execute one kernel: :meth:`run_kernels` on a batch of one.
        Nothing in the library calls it; perfbench's tracer hooks it."""
        return self.run_kernels(KernelBatch.of([stats]))

    def run_kernels(self, batch: KernelBatch) -> KernelBatchTiming:
        """Execute a queue of kernels, in row order, and record them in
        the profiler."""
        timing = self.cost_model.time_kernels(batch)
        self.profiler.record_batch(batch, timing)
        return timing

    def kernel_nodes(
        self, timing: KernelBatchTiming, iterations: Sequence[int]
    ) -> list[TraceNode]:
        """The trace node of each row of a batch this device ran, row
        ``i`` in ``iterations[i]``."""
        seconds = self.spec.cycles_to_seconds(timing.cycles)  # elementwise
        return [
            TraceNode(KERNEL, s, occupancy=o, iteration=i)
            for s, o, i in zip(
                seconds.tolist(), kernel_occupancies(timing).tolist(), iterations
            )
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Device({self.spec.name}, kernels={self.profiler.kernels})"
