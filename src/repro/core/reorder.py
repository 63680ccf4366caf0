"""Sampling-based Reordering (paper Section 6, Figure 5).

Finding the permutation that minimizes sector transactions is NP-hard
(Theorem 6.1, by reduction from minimum linear arrangement with binary
distancing), so SAGE iterates a lightweight three-stage heuristic round:

* **Stage 1** — measure each node's locality: sampled count of intra-tile
  co-members that share its memory sector.
* **Stage 2** — search a potentially better index per node by binary
  search over the id range, each step descending into the half containing
  more of the node's sampled co-members, until one sector remains.
* **Stage 3** — re-measure locality at the candidate index with the same
  samples; commit the move only if locality improves by more than the
  damping margin ``min_gain`` (moving every marginal node each round
  makes placements chase each other and stalls convergence; requiring a
  clear win lets the arrangement settle).

All three stages count from one sorted ``u * n + co`` key over the
sampled pairs (:func:`locality_stages`), which the sampler builds once
per round.  The expected-index array
(moved nodes at their candidates, others at their current ids) is
stably sorted to a dense permutation and applied to the CSR — the step
the paper performs with bb_segsort on the GPU.

One *round* completes when the sampler has observed ``threshold`` edges
(the paper uses ``|E|``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.sampling import TileAccessSampler
from repro.errors import InvalidParameterError
from repro.gpusim.cost import KernelStats
from repro.gpusim.spec import GPUSpec
from repro.obs import NULL_REGISTRY, MetricsRegistry

#: Co-accessed nodes each sampled tile member records (Stage 1).
CO_SAMPLES = 6


@dataclass(frozen=True)
class RoundOutcome:
    """Result of one reordering round."""

    perm: np.ndarray
    moved_nodes: int
    sampled_tiles: int
    sampled_pairs: int

    @property
    def is_identity(self) -> bool:
        return self.moved_nodes == 0


Stages = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def locality_stages(key: np.ndarray, num_nodes: int, sector_width: int) -> Stages:
    """Stages 1-3 over one sorted pair key.

    ``key`` holds the sampled pairs as ``u * n + co``
    (:meth:`~repro.core.sampling.TileAccessSampler.pair_key`), in any
    order and of dtype :func:`~repro.graph.coo.pair_key_dtype`.
    Returns ``(nodes, old_locality, candidate_lo, new_locality)``: the
    sorted distinct sampled nodes, each one's sampled co-members in its
    current sector, the first id of the sector Stage 2 found, and its
    co-members there.  Sorted once, the key gives each node one run of
    ascending co-member ids, and one search for every ``v * n`` finds
    all runs' bounds; every count is then a range count — the difference
    of two positions in ``key`` — found by binary search.
    O(P log P) for the sort, O(n log P) for the run bounds and O(m log P)
    per search level, for P pairs over m distinct nodes.  Every search
    value is cast to the key's dtype, so no search copies the key.  Needs
    ``n * n < 2**63`` (:data:`~repro.graph.coo.MAX_PAIR_KEY_NODES`),
    which the sampler checks.
    """
    n = num_nodes
    w = sector_width
    key = np.sort(key)
    dtype = key.dtype
    bounds = np.searchsorted(key, np.arange(n + 1, dtype=dtype) * dtype.type(n))
    nodes = np.flatnonzero(bounds[1:] != bounds[:-1])
    base = nodes * n

    def search(offset: np.ndarray) -> np.ndarray:
        return np.searchsorted(key, (base + offset).astype(dtype, copy=False))

    def in_sector(lo: np.ndarray) -> np.ndarray:
        # The upper bound is clipped to n: a sector past n would
        # otherwise count the next owner's pairs.
        return search(np.minimum(lo + w, n)) - search(lo)

    # Stage 1: locality of the current index, from the same samples
    # Stage 3 will use (apples-to-apples comparison).
    old_locality = in_sector((nodes // w) * w)

    # Stage 2: per-node binary search toward the majority half.  Each
    # node's range [lo, hi) keeps its run positions [p_lo, p_hi), so a
    # level needs one search, at the midpoint.
    lo = np.zeros(nodes.size, dtype=np.int64)
    hi = np.full(nodes.size, n, dtype=np.int64)
    p_lo = bounds[nodes]
    p_hi = bounds[nodes + 1]
    while True:
        open_range = hi - lo > w
        if not open_range.any():
            break
        mid = (lo + hi) // 2
        p_mid = search(mid)
        # Ties keep the left half.
        go_right = open_range & (p_hi - p_mid > p_mid - p_lo)
        go_left = open_range & ~go_right
        lo = np.where(go_right, mid, lo)
        p_lo = np.where(go_right, p_mid, p_lo)
        hi = np.where(go_left, mid, hi)
        p_hi = np.where(go_left, p_mid, p_hi)
    candidate_lo = (lo // w) * w

    # Stage 3: locality at the candidate sector, same samples.
    new_locality = in_sector(candidate_lo)
    return nodes, old_locality, candidate_lo, new_locality


def locality_stages_reference(
    u: np.ndarray, co: np.ndarray, num_nodes: int, sector_width: int
) -> Stages:
    """Pre-optimization formulation of :func:`locality_stages`, kept as
    the reference for the equivalence property tests.

    Compacts pair owners with ``np.unique`` and ``searchsorted``, then
    counts with masks and ``bincount`` over every pair — twice per
    Stage-2 level.
    """
    n = num_nodes
    w = sector_width
    nodes = np.unique(u)
    u_c = np.searchsorted(nodes, u)
    m = nodes.size

    current_sector_lo = (u // w) * w
    in_current = (co >= current_sector_lo) & (co < current_sector_lo + w)
    old_locality = np.bincount(u_c[in_current], minlength=m)

    lo = np.zeros(m, dtype=np.int64)
    hi = np.full(m, n, dtype=np.int64)
    while True:
        open_range = hi - lo > w
        if not open_range.any():
            break
        mid = (lo + hi) // 2
        pair_mid = mid[u_c]
        in_left = (co >= lo[u_c]) & (co < pair_mid)
        in_right = (co >= pair_mid) & (co < hi[u_c])
        left = np.bincount(u_c[in_left], minlength=m)
        right = np.bincount(u_c[in_right], minlength=m)
        go_right = open_range & (right > left)
        go_left = open_range & ~go_right
        lo[go_right] = mid[go_right]
        hi[go_left] = mid[go_left]
    candidate_lo = (lo // w) * w

    cand_lo_per_pair = candidate_lo[u_c]
    in_cand = (co >= cand_lo_per_pair) & (co < cand_lo_per_pair + w)
    new_locality = np.bincount(u_c[in_cand], minlength=m)
    return nodes, old_locality, candidate_lo, new_locality


def commit_moves(
    nodes: np.ndarray,
    old_locality: np.ndarray,
    candidate_lo: np.ndarray,
    new_locality: np.ndarray,
    num_nodes: int,
    sector_width: int,
    min_gain: int,
) -> np.ndarray:
    """The commit rule: the round's permutation (``new_id = perm[old_id]``).

    Moves only nodes whose locality improves by more than ``min_gain``
    (damping, see module docstring).
    """
    w = sector_width
    ids = np.arange(num_nodes, dtype=np.int64)
    improves = new_locality > old_locality + min_gain
    expected = ids.astype(np.float64)
    # Candidate index: middle of the target sector; the stable sort
    # below resolves collisions between movers and incumbents.
    expected[nodes[improves]] = candidate_lo[improves] + (w - 1) / 2.0
    order = np.argsort(expected, kind="stable")
    perm = np.empty(num_nodes, dtype=np.int64)
    perm[order] = ids
    return perm


class SamplingReorderer:
    """Drives rounds of Sampling-based Reordering.

    Feed tile accesses via :meth:`observe`; when :attr:`ready`, call
    :meth:`compute_round` to run Stages 1-3 and obtain the permutation
    for this round.  The caller (the SAGE engine or a benchmark harness)
    applies the permutation to the graph and application state.
    """

    def __init__(
        self,
        num_nodes: int,
        spec: GPUSpec | None = None,
        *,
        threshold_edges: int | None = None,
        tile_sample_rate: float = 0.75,
        min_gain: int = 4,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if num_nodes < 1:
            raise InvalidParameterError("num_nodes must be >= 1")
        if min_gain < 0:
            raise InvalidParameterError("min_gain must be >= 0")
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.spec = spec or GPUSpec()
        self.num_nodes = num_nodes
        self.threshold_edges = threshold_edges
        self.min_gain = min_gain
        self.sampler = TileAccessSampler(
            num_nodes,
            self.spec.sector_width,
            co_samples=CO_SAMPLES,
            tile_sample_rate=tile_sample_rate,
            seed=seed,
        )
        self.rounds_completed = 0

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def observe(self, edge_dst: np.ndarray, segment_starts: np.ndarray) -> None:
        """Sample one iteration's tile accesses (Stage-1 collection)."""
        self.sampler.observe(edge_dst, segment_starts)

    @property
    def ready(self) -> bool:
        """Whether enough accesses were observed to run a round."""
        if self.threshold_edges is None:
            return self.sampler.observed_edges > 0
        return self.sampler.observed_edges >= self.threshold_edges

    # ------------------------------------------------------------------
    # The three-stage round
    # ------------------------------------------------------------------

    def compute_round(self) -> RoundOutcome:
        """Run Stages 1-3 on the accumulated samples and finish the round.

        Returns the permutation (``new_id = perm[old_id]``); identity when
        no improving move was found.  Samples are cleared afterwards.
        """
        key = self.sampler.pair_key()
        sampled_tiles = self.sampler.sampled_tiles
        n = self.num_nodes
        w = self.spec.sector_width
        if key.size == 0:
            self._finish_round()
            return RoundOutcome(
                np.arange(n, dtype=np.int64), 0, sampled_tiles, 0
            )

        perm = commit_moves(*locality_stages(key, n, w), n, w, self.min_gain)
        moved = int(np.count_nonzero(perm != np.arange(n)))
        pairs = int(key.size)
        self._finish_round()
        self.metrics.count("reorder.moved_nodes", moved)
        self.metrics.count("reorder.sampled_pairs", pairs)
        self.metrics.count("reorder.sampled_tiles", sampled_tiles)
        return RoundOutcome(perm, moved, sampled_tiles, pairs)

    def _finish_round(self) -> None:
        self.sampler.reset()
        self.rounds_completed += 1
        self.metrics.count("reorder.rounds")

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------

    def update_stats(self, num_nodes: int, num_edges: int) -> KernelStats:
        """Kernel stats charging the graph-representation update.

        Sorting the expected-index array and rewriting CSR is
        O(|V| + |E|) GPU work (bb_segsort + gather, Section 6); modeled
        as a balanced, divergence-free kernel moving both arrays.
        """
        work = num_nodes + num_edges
        spec = self.spec
        touches = -(-work // spec.sector_width) * 2  # read + write, coalesced
        return KernelStats(
            active_edges=work,
            issued_lane_cycles=work,
            busiest_lane_cycles=work / spec.num_sms,
            value_sector_touches=touches,
            value_sector_unique=touches,
            csr_sector_touches=0,
            concurrency_warps=spec.num_sms * spec.latency_hiding_warps,
            overhead_cycles=0.0,
        )
