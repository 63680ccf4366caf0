"""Hardware descriptions for the simulator.

Defaults approximate the paper's testbed (Section 7.1): NVIDIA Quadro RTX
8000 GPUs (72 SMs, 4608 cores, 48 GB, ~672 GB/s GDDR6), dual Xeon Gold
6140 hosts, and a PCIe 3.0 x16 host link.  Every constant the cost model
uses lives here so experiments can vary the architecture (e.g. the
out-of-core scenario shrinks ``device_memory_bytes``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidParameterError


@dataclass(frozen=True)
class GPUSpec:
    """First-order model of one GPU.

    Attributes:
        name: label for reports.
        num_sms: streaming multiprocessors.
        warp_size: lanes per warp (32 on all NVIDIA parts).
        block_size: threads per block used by the graph kernels; this is
            also the largest cooperative-group tile SAGE starts from.
        max_resident_warps_per_sm: occupancy ceiling.
        clock_ghz: SM clock.
        mem_bandwidth_gbps: device DRAM bandwidth (GB/s).
        mem_latency_cycles: DRAM round-trip latency ("generally hundreds
            of cycles", paper Section 5.2).
        latency_hiding_warps: resident warps per SM needed to fully hide
            ``mem_latency_cycles``; below this, memory time inflates.
        sector_bytes: memory transaction granularity (32 B sectors; the
            128 B cache line of Section 2.1 is four sectors).
        value_bytes: size of one node attribute (4-byte labels,
            Section 3.2).
        l2_bytes: device L2 capacity.  NOTE: scaled down with the
            synthetic datasets — the paper's graphs keep |V| * 4 B far
            above the 6 MB L2, so the scaled default preserves the
            value-array : L2 ratio instead of the absolute size.
        cycles_per_edge: SM lane-cycles to process one edge's filter work.
        kernel_launch_us: fixed host-side launch latency per kernel.
        device_memory_bytes: DRAM capacity (bounds in-core graphs).
    """

    name: str = "rtx8000-like"
    num_sms: int = 72
    warp_size: int = 32
    block_size: int = 256
    max_resident_warps_per_sm: int = 32
    clock_ghz: float = 1.77
    mem_bandwidth_gbps: float = 672.0
    mem_latency_cycles: int = 400
    latency_hiding_warps: int = 12
    sector_bytes: int = 32
    value_bytes: int = 4
    l2_bytes: int = 4 * 2**10
    cycles_per_edge: float = 4.0
    kernel_launch_us: float = 1.0
    device_memory_bytes: int = 48 * 2**30

    def __post_init__(self) -> None:
        if self.warp_size < 1 or self.block_size % self.warp_size:
            raise InvalidParameterError(
                "block_size must be a positive multiple of warp_size"
            )
        if self.sector_bytes % self.value_bytes:
            raise InvalidParameterError(
                "sector_bytes must be a multiple of value_bytes"
            )
        if min(self.num_sms, self.clock_ghz, self.mem_bandwidth_gbps) <= 0:
            raise InvalidParameterError("GPU spec quantities must be positive")

    @property
    def sector_width(self) -> int:
        """Node values per memory sector (the paper's SECTOR_WIDE)."""
        return self.sector_bytes // self.value_bytes

    @property
    def bytes_per_cycle(self) -> float:
        """Device DRAM bytes deliverable per SM clock cycle."""
        return self.mem_bandwidth_gbps * 1e9 / (self.clock_ghz * 1e9)

    @property
    def l2_sectors(self) -> int:
        """L2 capacity in sectors."""
        return self.l2_bytes // self.sector_bytes

    @property
    def kernel_launch_cycles(self) -> float:
        """Kernel launch latency converted to cycles."""
        return self.kernel_launch_us * 1e-6 * self.clock_ghz * 1e9

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert SM cycles to wall-clock seconds."""
        return cycles / (self.clock_ghz * 1e9)


@dataclass(frozen=True)
class CPUSpec:
    """First-order model of the host CPU (for the Ligra baseline).

    Defaults approximate 2x Xeon Gold 6140: 36 cores / 72 threads at
    2.3 GHz.  Bandwidth and per-edge cycle counts are de-rated for the
    random-access, frontier-managed workload (cross-socket traffic,
    cache-unfriendly gathers) rather than quoting peak stream numbers.
    """

    name: str = "xeon6140x2-like"
    num_threads: int = 72
    clock_ghz: float = 2.3
    mem_bandwidth_gbps: float = 60.0
    cycles_per_edge: float = 10.0
    sync_us: float = 15.0

    @property
    def bytes_per_cycle(self) -> float:
        return self.mem_bandwidth_gbps * 1e9 / (self.clock_ghz * 1e9)

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / (self.clock_ghz * 1e9)


@dataclass(frozen=True)
class LinkSpec:
    """A host<->device or device<->device communication link.

    Models the framing behaviour of Section 3.3: every request carries a
    control segment (header) and a fixed controller cost
    (``request_overhead_us`` — DMA descriptor/fault handling), so many
    small requests collapse the effective bandwidth even when the pipe
    is wide.
    """

    name: str = "pcie3-x16"
    bandwidth_gbps: float = 12.0
    latency_us: float = 5.0
    frame_overhead_bytes: int = 24
    request_overhead_us: float = 0.5
    max_payload_bytes: int = 4096

    def transfer_seconds(self, payload_bytes: float, requests: int = 1) -> float:
        """Time to move ``payload_bytes`` split across ``requests`` frames.

        Each request pays the header; one-shot latency is charged once
        (requests are pipelined).
        """
        if payload_bytes < 0 or requests < 0:
            raise InvalidParameterError("transfer sizes must be non-negative")
        if payload_bytes == 0 and requests == 0:
            return 0.0
        wire_bytes = payload_bytes + requests * self.frame_overhead_bytes
        request_cost = requests * self.request_overhead_us * 1e-6
        return (self.latency_us * 1e-6 + request_cost
                + wire_bytes / (self.bandwidth_gbps * 1e9))


#: NVLink-ish peer link used by the multi-GPU scenario.
NVLINK2 = LinkSpec(
    name="nvlink2", bandwidth_gbps=50.0, latency_us=0.8,
    frame_overhead_bytes=16, request_overhead_us=0.05,
    max_payload_bytes=256,
)

#: PCIe 3.0 x16 host link used by the out-of-core scenario.
PCIE3_X16 = LinkSpec()
