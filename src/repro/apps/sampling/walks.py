"""Biased random walks and node2vec transition sampling on the engine.

Each walk is an independent stream: walk ``w`` started at ``source`` has
identity ``(source, w)`` and its step-``t`` draw is
``uniform(derive(seed, source, w), t)`` — a pure function of those
coordinates (see :mod:`repro.apps.sampling.rng`).  The app advances all
live walks one hop per pipeline iteration; the frontier it hands the
engine is the set of *unique* current nodes, so thousands of concurrent
walks coalesce MS-BFS-style: the expansion kernel gathers each node's
adjacency once no matter how many walks currently sit on it.  That
shared gather — not any change to the per-walk streams — is where the
batched serving tier's speedup comes from, and why a batch of
walk queries is bit-identical to running each query alone.

Walks stop early at dangling nodes (out-degree 0); the remaining trace
slots stay ``-1``.  Node ids recorded in traces are always expressed in
the *original* labeling even if a self-adaptive scheduler commits a
reordering mid-run (the apps maintain the inverse relabeling), but the
*selection* itself reads the current CSR, so bit-stable sampling should
use a non-reordering scheduler — every serving path does (the default
``SageScheduler`` never commits reorders).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import App
from repro.apps.sampling import rng
from repro.apps.sssp import synthetic_weights
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph


class BiasedRandomWalkApp(App):
    """Fixed-length random walks, uniform or edge-weight-biased.

    One query's worth of walks is ``num_walks`` streams from a single
    ``source`` (passed to :meth:`setup`); the batched executor instead
    passes ``sources`` — one group of ``num_walks`` streams per unique
    query source — and gets the exact concatenation of the per-source
    runs, because stream identity includes the source.
    ``result()["walks"]`` is an int64 ``(num_walks * num_sources,
    walk_length + 1)`` trace matrix, source in column 0, ``-1`` padding
    after a walk dies at a dangling node.

    ``weighted=True`` biases each hop by the deterministic synthetic
    edge weights (:func:`repro.apps.sssp.synthetic_weights`), the same
    weights the SSSP workload traverses.
    """

    name = "walk"
    uses_atomics = False
    value_access_factor = 1.0
    edge_compute_factor = 1.2

    def __init__(
        self,
        num_walks: int = 4,
        walk_length: int = 8,
        seed: int = 0,
        weighted: bool = False,
        sources: np.ndarray | None = None,
    ) -> None:
        super().__init__()
        if num_walks < 1:
            raise InvalidParameterError("num_walks must be >= 1")
        if walk_length < 1:
            raise InvalidParameterError("walk_length must be >= 1")
        self.num_walks = int(num_walks)
        self.walk_length = int(walk_length)
        self.seed = int(seed)
        self.weighted = bool(weighted)
        self._sources_arg = (
            None if sources is None else np.asarray(sources, dtype=np.int64)
        )
        self.sources: np.ndarray | None = None
        self.trace: np.ndarray | None = None
        self.cur: np.ndarray | None = None
        self.prev: np.ndarray | None = None
        self.active: np.ndarray | None = None
        self.keys: np.ndarray | None = None
        self._step = 0
        self._inv: np.ndarray | None = None  # current id -> original id
        self._weights: np.ndarray | None = None  # per-edge weights
        self._cumw: np.ndarray | None = None  # inclusive weight prefix sums

    # ------------------------------------------------------------------
    # App contract
    # ------------------------------------------------------------------

    def setup(self, graph: CSRGraph, source: int | None = None) -> None:
        if self._sources_arg is not None:
            groups = self._sources_arg
            if groups.size == 0:
                raise InvalidParameterError("sources must be non-empty")
        else:
            if source is None:
                raise InvalidParameterError(
                    f"{self.name} requires a source node"
                )
            groups = np.array([source], dtype=np.int64)
        if groups.min() < 0 or groups.max() >= graph.num_nodes:
            raise InvalidParameterError("walk source out of range")
        self.graph = graph
        self.sources = groups
        walk_sources = np.repeat(groups, self.num_walks)
        walk_indices = np.tile(
            np.arange(self.num_walks, dtype=np.int64), groups.size
        )
        # Stream identity: key_w = derive(seed, source_w, index_w); the
        # per-step draw is uniform(key_w, step) — batch-independent.
        self.keys = rng.derive(self.seed, walk_sources, walk_indices)
        total = walk_sources.size
        self.trace = np.full(
            (total, self.walk_length + 1), -1, dtype=np.int64
        )
        self.trace[:, 0] = walk_sources
        self.cur = walk_sources.copy()
        self.prev = np.full(total, -1, dtype=np.int64)
        self.active = np.ones(total, dtype=bool)
        self._step = 0
        self._inv = None
        if self.weighted:
            self._weights = synthetic_weights(graph).astype(np.float64)
            self._cumw = np.cumsum(self._weights)
        else:
            self._weights = None
            self._cumw = None

    def initial_frontier(self) -> np.ndarray:
        assert self.cur is not None and self.active is not None
        return np.unique(self.cur[self.active])

    def process_level(
        self,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_pos: np.ndarray | None = None,
    ) -> np.ndarray:
        assert self.graph is not None and self.cur is not None
        assert self.active is not None and self.trace is not None
        assert self.keys is not None and self.prev is not None
        offsets = self.graph.offsets
        walk_ids = np.flatnonzero(self.active)
        cur = self.cur[walk_ids]
        degrees = offsets[cur + 1] - offsets[cur]
        # Walks at dangling nodes die; their remaining trace stays -1.
        dead = walk_ids[degrees == 0]
        self.active[dead] = False
        live = degrees > 0
        walk_ids, cur = walk_ids[live], cur[live]
        if walk_ids.size:
            u = rng.uniform(self.keys[walk_ids], self._step)
            nxt = self._choose_next(walk_ids, cur, u)
            self.prev[walk_ids] = cur
            self.cur[walk_ids] = nxt
            recorded = nxt if self._inv is None else self._inv[nxt]
            self.trace[walk_ids, self._step + 1] = recorded
        self._step += 1
        if self._step >= self.walk_length:
            self.active[:] = False
        if not self.active.any():
            return np.empty(0, dtype=np.int64)
        return np.unique(self.cur[self.active])

    def result(self) -> dict[str, np.ndarray]:
        assert self.trace is not None
        return {"walks": self.trace}

    # ------------------------------------------------------------------
    # Hop selection (overridden by node2vec)
    # ------------------------------------------------------------------

    def _choose_next(
        self, walk_ids: np.ndarray, cur: np.ndarray, u: np.ndarray
    ) -> np.ndarray:
        """One hop for every live walk (``cur`` has out-degree >= 1)."""
        assert self.graph is not None
        offsets, targets = self.graph.offsets, self.graph.targets
        starts = offsets[cur]
        if self._cumw is None:
            degrees = offsets[cur + 1] - starts
            return targets[starts + rng.choose_index(u, degrees)]
        # Weighted: invert the per-slice CDF through the *global* prefix
        # sums (strictly increasing, weights >= 1), so one vectorized
        # searchsorted lands inside each walk's adjacency slice.
        ends = offsets[cur + 1]
        base = np.where(starts > 0, self._cumw[starts - 1], 0.0)
        total = self._cumw[ends - 1] - base
        pos = np.searchsorted(self._cumw, base + u * total, side="right")
        return targets[np.clip(pos, starts, ends - 1)]

    # ------------------------------------------------------------------
    # Reordering hooks
    # ------------------------------------------------------------------

    def remap_nodes(self, perm: np.ndarray) -> None:
        assert self.graph is not None
        # Traces hold original ids (via self._inv) and keys are frozen
        # at setup; only the current-labeling cursors move.
        if self.cur is not None:
            self.cur = perm[self.cur]
        if self.prev is not None:
            valid = self.prev >= 0
            self.prev[valid] = perm[self.prev[valid]]
        n = self.graph.num_nodes
        if self._inv is None:
            self._inv = np.empty(n, dtype=np.int64)
            self._inv[perm] = np.arange(n, dtype=np.int64)
        else:
            updated = np.empty(n, dtype=np.int64)
            updated[perm] = self._inv
            self._inv = updated
        if self.weighted:
            # Synthetic weights are endpoint hashes: recompute on the
            # relabeled CSR so biases track the current adjacency.
            self._weights = synthetic_weights(self.graph).astype(np.float64)
            self._cumw = np.cumsum(self._weights)


def node2vec_transition_probabilities(
    graph: CSRGraph,
    prev: int,
    cur: int,
    p: float,
    q: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact unweighted node2vec transition distribution out of ``cur``
    given ``prev``.

    Returns ``(neighbors, probabilities)`` — the statistical oracle the
    chi-square/TV-distance tests compare empirical walk frequencies
    against.  Weights follow Grover & Leskovec: a neighbor ``x`` of
    ``cur`` is scaled by ``1/p`` if ``x == prev`` (return), ``1`` if
    ``x`` is also a neighbor of ``prev`` (distance 1), else ``1/q``.
    """
    neighbors = np.asarray(graph.neighbors(cur), dtype=np.int64)
    if neighbors.size == 0:
        return neighbors, np.empty(0, dtype=np.float64)
    prev_adj = graph.neighbors(prev)
    weights = np.where(
        neighbors == prev,
        1.0 / p,
        np.where(np.isin(neighbors, prev_adj), 1.0, 1.0 / q),
    )
    return neighbors, weights / weights.sum()


class Node2VecWalkApp(BiasedRandomWalkApp):
    """node2vec second-order walks (p/q return / in-out weighting).

    The first hop of every walk is the plain (optionally weighted)
    biased choice; every later hop rescales the candidate weights by the
    node2vec search bias relative to the previous node: ``1/p`` for
    returning, ``1`` for staying at distance one, ``1/q`` for moving
    outward.  Exactly one uniform is drawn per (walk, step), same
    coordinates as the parent class, so node2vec streams are just as
    batch-independent.
    """

    name = "node2vec"
    edge_compute_factor = 2.0

    def __init__(
        self,
        num_walks: int = 4,
        walk_length: int = 8,
        seed: int = 0,
        p: float = 1.0,
        q: float = 1.0,
        weighted: bool = False,
        sources: np.ndarray | None = None,
    ) -> None:
        super().__init__(
            num_walks=num_walks,
            walk_length=walk_length,
            seed=seed,
            weighted=weighted,
            sources=sources,
        )
        if p <= 0 or q <= 0:
            raise InvalidParameterError("p and q must be > 0")
        self.p = float(p)
        self.q = float(q)

    def _choose_next(
        self, walk_ids: np.ndarray, cur: np.ndarray, u: np.ndarray
    ) -> np.ndarray:
        if self._step == 0:
            return super()._choose_next(walk_ids, cur, u)
        assert self.graph is not None and self.prev is not None
        graph = self.graph
        prev = self.prev[walk_ids]
        nxt = np.empty(walk_ids.size, dtype=np.int64)
        for i in range(walk_ids.size):
            v, t = int(cur[i]), int(prev[i])
            adj = graph.neighbors(v)
            if self._weights is not None:
                start, end = int(graph.offsets[v]), int(graph.offsets[v + 1])
                base = self._weights[start:end]
            else:
                base = np.ones(adj.size, dtype=np.float64)
            factor = np.where(
                adj == t,
                1.0 / self.p,
                np.where(np.isin(adj, graph.neighbors(t)), 1.0, 1.0 / self.q),
            )
            cdf = np.cumsum(base * factor)
            pick = np.searchsorted(cdf, u[i] * cdf[-1], side="right")
            nxt[i] = adj[min(int(pick), adj.size - 1)]
        return nxt
