"""SAGE: self-adaptive graph traversal (the paper's core contribution)."""

from repro.core.compressed import CompressedTraversalScheduler
from repro.core.engine import SageScheduler
from repro.core.hybrid import HybridConfig, HybridStats, direction_optimized_bfs
from repro.core.pipeline import RunResult, TraversalPipeline, run_app
from repro.core.reorder import RoundOutcome, SamplingReorderer
from repro.core.resident import ResidentTileStore
from repro.core.sampling import TileAccessSampler, exact_locality_counts
from repro.core.scheduler import ReorderCommit, Scheduler
from repro.core.tiling import (
    DEFAULT_MIN_TILE,
    TileDecomposition,
    decompose_degree,
    decompose_frontier,
    tile_size_levels,
)

__all__ = [
    "CompressedTraversalScheduler",
    "DEFAULT_MIN_TILE",
    "HybridConfig",
    "HybridStats",
    "ReorderCommit",
    "ResidentTileStore",
    "RoundOutcome",
    "RunResult",
    "SageScheduler",
    "SamplingReorderer",
    "Scheduler",
    "TileAccessSampler",
    "TileDecomposition",
    "TraversalPipeline",
    "decompose_degree",
    "direction_optimized_bfs",
    "decompose_frontier",
    "exact_locality_counts",
    "run_app",
    "tile_size_levels",
]
