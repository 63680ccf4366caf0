"""Multi-GPU execution: partitioning + collaborative traversal (Figure 9)."""

from repro.multigpu.partition import (
    chunk_partition,
    edge_cut,
    metis_like,
    random_partition,
)
from repro.multigpu.runner import MultiGpuRunner

__all__ = [
    "MultiGpuRunner",
    "chunk_partition",
    "edge_cut",
    "metis_like",
    "random_partition",
]
