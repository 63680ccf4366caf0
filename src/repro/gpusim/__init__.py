"""Functional + analytic GPU execution simulator (the hardware substrate)."""

from repro.gpusim.cost import (
    KernelCostModel,
    KernelStats,
    KernelTiming,
    block_placement,
)
from repro.gpusim.device import Device
from repro.gpusim.events import (
    MakespanReport,
    MakespanSimulator,
    Task,
    tasks_from_decomposition,
)
from repro.gpusim.memory import (
    coalesced_sectors,
    distinct_sectors,
    estimate_dram_sectors,
    sector_ids,
    segmented_distinct_sectors,
)
from repro.gpusim.profiler import Profiler
from repro.gpusim.spec import NVLINK2, PCIE3_X16, CPUSpec, GPUSpec, LinkSpec
from repro.gpusim.streams import (
    D2H,
    H2D,
    HOST,
    KERNEL,
    BatchDag,
    DagCompletion,
    DagNode,
    StreamDevice,
    TraceNode,
    dag_from_run,
    kernel_occupancies,
    trace_seconds,
)
from repro.gpusim.trace import CacheTraceReport, LRUCacheModel, replay_cache_trace

__all__ = [
    "BatchDag",
    "CPUSpec",
    "CacheTraceReport",
    "D2H",
    "DagCompletion",
    "DagNode",
    "Device",
    "GPUSpec",
    "H2D",
    "HOST",
    "KERNEL",
    "StreamDevice",
    "TraceNode",
    "KernelCostModel",
    "KernelStats",
    "KernelTiming",
    "LinkSpec",
    "MakespanReport",
    "MakespanSimulator",
    "Task",
    "LRUCacheModel",
    "NVLINK2",
    "PCIE3_X16",
    "Profiler",
    "block_placement",
    "coalesced_sectors",
    "dag_from_run",
    "distinct_sectors",
    "estimate_dram_sectors",
    "kernel_occupancies",
    "replay_cache_trace",
    "sector_ids",
    "segmented_distinct_sectors",
    "tasks_from_decomposition",
    "trace_seconds",
]
