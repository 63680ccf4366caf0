"""Round-by-round driver for Sampling-based Reordering.

Figure 6 and Table 2 need SAGE's reordering applied for a controlled
number of rounds with the per-round cost measured.  One *round* samples
tile accesses worth ``|E|`` responded edges (the paper's threshold) and
commits one permutation; the driver uses a full-graph sweep per round —
the access pattern of a PR iteration and a superset of any frontier
workload — so every adjacency list contributes samples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.reorder import SamplingReorderer
from repro.core.tiling import DEFAULT_MIN_TILE, decompose_frontier
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.gpusim.spec import GPUSpec


@dataclass
class ReorderRounds:
    """Outcome of a multi-round reordering session.

    Attributes:
        snapshots: graphs after each requested checkpoint round, keyed by
            round number (1-based; round ``r`` means ``r`` commits).
        perms: cumulative permutation (original -> current ids) at each
            checkpoint.
        per_round_seconds: wall-clock cost of each round (Table 2's
            "SAGE per round").
    """

    snapshots: dict[int, CSRGraph] = field(default_factory=dict)
    perms: dict[int, np.ndarray] = field(default_factory=dict)
    per_round_seconds: list[float] = field(default_factory=list)

    @property
    def mean_round_seconds(self) -> float:
        if not self.per_round_seconds:
            return 0.0
        return float(np.mean(self.per_round_seconds))


def sage_reorder_rounds(
    graph: CSRGraph,
    rounds: int,
    *,
    spec: GPUSpec | None = None,
    checkpoints: tuple[int, ...] | None = None,
) -> ReorderRounds:
    """Run ``rounds`` reordering rounds, snapshotting at ``checkpoints``.

    Args:
        graph: starting graph (left unmodified; rounds work on copies).
        rounds: number of sample-and-commit rounds.
        spec: hardware description (sector width, block size).
        checkpoints: round numbers to snapshot; defaults to every round
            for small counts, else (1, 5, ...) growing geometrically.

    Tiles use SAGE's default MIN_TILE_SIZE; sampling uses the
    reorderer's default seed.
    """
    if rounds < 1:
        raise InvalidParameterError("rounds must be >= 1")
    spec = spec or GPUSpec()
    if checkpoints is None:
        checkpoints = tuple(r for r in (1, 2, 5, 10, 20, 50, 100) if r <= rounds)
        if rounds not in checkpoints:
            checkpoints = checkpoints + (rounds,)
    wanted = set(checkpoints)

    reorderer = SamplingReorderer(
        graph.num_nodes, spec,
        threshold_edges=graph.num_edges,
    )
    current = graph
    total_perm = np.arange(graph.num_nodes, dtype=np.int64)
    out = ReorderRounds()
    for round_no in range(1, rounds + 1):
        started = time.perf_counter()
        degrees = current.out_degrees()
        decomp = decompose_frontier(degrees, spec.block_size, DEFAULT_MIN_TILE)
        cum_deg = np.cumsum(degrees) - degrees
        seg_starts = decomp.segment_starts(cum_deg)
        # Full sweep in id order: the expanded edge array is `targets`.
        reorderer.observe(current.targets, seg_starts)
        outcome = reorderer.compute_round()
        if not outcome.is_identity:
            current = current.permute(outcome.perm)
            total_perm = outcome.perm[total_perm]
        out.per_round_seconds.append(time.perf_counter() - started)
        if round_no in wanted:
            out.snapshots[round_no] = current
            out.perms[round_no] = total_perm.copy()
    return out
