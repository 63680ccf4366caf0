"""Tests for the kernel cost model, specs and device."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import InvalidParameterError, SchedulingError
from repro.gpusim.cost import (
    KernelBatch,
    KernelCostModel,
    KernelStats,
    block_placement,
)
from repro.gpusim.device import Device
from repro.gpusim.spec import CPUSpec, GPUSpec, LinkSpec


def stats(**overrides) -> KernelStats:
    spec = GPUSpec()
    base = dict(
        active_edges=10_000,
        issued_lane_cycles=10_000,
        busiest_lane_cycles=10_000 / spec.num_sms,
        value_sector_touches=2_000,
        value_sector_unique=1_000,
        csr_sector_touches=500,
        concurrency_warps=float(spec.num_sms * spec.latency_hiding_warps),
        overhead_cycles=0.0,
    )
    base.update(overrides)
    return KernelStats(**base)


class TestSpec:
    def test_sector_width(self):
        assert GPUSpec().sector_width == 8

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            GPUSpec(block_size=100)  # not a warp multiple
        with pytest.raises(InvalidParameterError):
            GPUSpec(sector_bytes=30)
        with pytest.raises(InvalidParameterError):
            GPUSpec(num_sms=0)

    def test_cycles_conversion_roundtrip(self):
        spec = GPUSpec()
        assert spec.cycles_to_seconds(spec.clock_ghz * 1e9) == pytest.approx(1.0)

    def test_cpu_spec(self):
        cpu = CPUSpec()
        assert cpu.bytes_per_cycle > 0
        assert cpu.cycles_to_seconds(cpu.clock_ghz * 1e9) == pytest.approx(1.0)


class TestLink:
    def test_zero_transfer(self):
        assert LinkSpec().transfer_seconds(0, 0) == 0.0

    def test_request_overhead_dominates_small_requests(self):
        link = LinkSpec()
        bulk = link.transfer_seconds(1 << 20, requests=1)
        fragmented = link.transfer_seconds(1 << 20, requests=10_000)
        assert fragmented > bulk

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            LinkSpec().transfer_seconds(-1)


class TestStatsValidation:
    def test_issued_below_active_rejected(self):
        bad = stats(issued_lane_cycles=1)
        with pytest.raises(SchedulingError):
            KernelBatch.of([bad]).validate()

    def test_unique_above_touches_rejected(self):
        bad = stats(value_sector_unique=10_000)
        with pytest.raises(SchedulingError):
            KernelBatch.of([bad]).validate()

    def test_lane_efficiency(self):
        s = stats(issued_lane_cycles=20_000)
        assert s.lane_efficiency == pytest.approx(0.5)
        assert stats(active_edges=0, issued_lane_cycles=0,
                     value_sector_touches=0, value_sector_unique=0,
                     ).lane_efficiency == 1.0


class TestCostMonotonicity:
    def setup_method(self):
        self.model = KernelCostModel(GPUSpec())

    def time_kernel(self, kernel: KernelStats) -> SimpleNamespace:
        """``kernel`` scored as a batch of one: its row, as scalars."""
        timing = self.model.time_kernels(KernelBatch.of([kernel]))
        return SimpleNamespace(
            cycles=float(timing.cycles[0]),
            compute_cycles=float(timing.compute_cycles[0]),
            memory_cycles=float(timing.memory_cycles[0]),
            memory_bound=bool(timing.memory_bound[0]),
        )

    def test_more_sectors_never_faster(self):
        fast = self.time_kernel(stats())
        slow = self.time_kernel(stats(value_sector_touches=50_000,
                                            value_sector_unique=40_000))
        assert slow.cycles >= fast.cycles

    def test_divergence_never_faster(self):
        spec = GPUSpec()
        fast = self.time_kernel(stats())
        slow = self.time_kernel(stats(
            issued_lane_cycles=100_000,
            busiest_lane_cycles=100_000 / spec.num_sms,
        ))
        assert slow.cycles >= fast.cycles

    def test_imbalance_never_faster(self):
        fast = self.time_kernel(stats())
        # same total, one straggler SM
        slow = self.time_kernel(stats(busiest_lane_cycles=10_000.0))
        assert slow.cycles >= fast.cycles

    def test_low_concurrency_never_faster(self):
        fast = self.time_kernel(stats())
        slow = self.time_kernel(stats(concurrency_warps=2.0))
        assert slow.memory_cycles >= fast.memory_cycles

    def test_overhead_additive(self):
        base = self.time_kernel(stats())
        extra = self.time_kernel(stats(overhead_cycles=1234.0))
        assert extra.cycles == pytest.approx(base.cycles + 1234.0)

    def test_atomics_add_compute(self):
        base = self.time_kernel(stats())
        atomic = self.time_kernel(stats(atomic_conflicts=10_000.0))
        assert atomic.compute_cycles > base.compute_cycles

    def test_compute_scale(self):
        light = self.time_kernel(stats())
        heavy = self.time_kernel(stats(compute_scale=4.0))
        assert heavy.compute_cycles == pytest.approx(
            4.0 * light.compute_cycles
        )

    def test_bound_classification(self):
        mem = self.time_kernel(stats(value_sector_touches=10**6,
                                           value_sector_unique=10**6))
        assert mem.memory_bound
        comp = self.time_kernel(stats(value_sector_touches=0,
                                            value_sector_unique=0,
                                            csr_sector_touches=0))
        assert not comp.memory_bound


class TestPlacement:
    def test_block_round_robin(self):
        out = block_placement(np.array([10.0, 20.0, 30.0]), 2)
        assert out.tolist() == [40.0, 20.0]

    def test_block_empty(self):
        assert block_placement(np.array([]), 4).sum() == 0


class TestDevice:
    def test_profiler_records(self):
        device = Device()
        device.run_kernel(stats())
        assert device.profiler.kernels == 1
        assert device.profiler.active_edges == 10_000
