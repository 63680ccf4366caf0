"""Incremental PageRank: residual pushes over changed regions.

The engine maintains the pair ``(p, r)`` with the invariant

    ``r = A(p) - p``

where ``A`` is the exact PageRank operator of
:class:`~repro.apps.pagerank.PageRankApp` — ``A(x) = (1-d)/n + d *
(M^T D^{-1} x + dangling_mass(x)/n)``.  The invariant turns the
residual into a *computed* error certificate: ``A`` is a ``d``-Lipschitz
contraction in the L1 norm, so

    ``|p - pagerank*|_1 <= |r|_1 / (1 - d)``.

A :class:`~repro.graph.delta.GraphDelta` changes ``A`` only in the rows
of vertices whose out-adjacency changed (``delta.touched_sources``) and
in the uniform dangling term, so the invariant is restored by adjusting
``r`` at exactly those vertices' targets — O(degree of the touched
set), not O(E).  Residual mass is then drained by level-synchronous
pushes (:class:`_ResidualPushApp`): each level moves ``r`` into ``p``
for every vertex over the push threshold and scatters ``d``-scaled
shares to out-neighbors.  Because the operator is affine, the push
preserves the invariant to floating-point exactness, and every level
shrinks ``|r|_1`` by at least ``(1-d)`` of the moved mass — geometric
convergence on the changed cone only.
"""

from __future__ import annotations


import numpy as np

from repro.apps.base import App
from repro.apps.incremental.base import (
    MODE_FULL,
    MODE_INCREMENTAL,
    MODE_NOOP,
    IncrementalEngine,
    IncrementalReport,
)
from repro.apps.pagerank import PageRankApp
from repro.core import SageScheduler
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.graph.delta import GraphDelta
from repro.obs import MetricsRegistry

#: Iteration cap of the full PageRank solve.
MAX_ITERATIONS = 200


class _ResidualPushApp(App):
    """Level-synchronous residual pushes; invariant-exact by linearity."""

    name = "inc-pr-push"
    uses_atomics = True
    value_access_factor = 1.5
    edge_compute_factor = 1.5

    def __init__(
        self,
        estimate: np.ndarray,
        residual: np.ndarray,
        damping: float,
        push_tol: float,
        stop_norm: float,
    ) -> None:
        super().__init__()
        self._p_init = estimate
        self._r_init = residual
        self.damping = float(damping)
        self.push_tol = float(push_tol)
        self.stop_norm = float(stop_norm)
        self.p: np.ndarray | None = None
        self.r: np.ndarray | None = None
        self._deg: np.ndarray | None = None
        self._front: np.ndarray | None = None
        self.pushes = 0

    def setup(self, graph: CSRGraph, source: int | None = None) -> None:
        self.graph = graph
        self.p = self._p_init.astype(np.float64).copy()
        self.r = self._r_init.astype(np.float64).copy()
        self._deg = graph.out_degrees().astype(np.float64)
        self._front = np.flatnonzero(np.abs(self.r) > self.push_tol)
        self.pushes = 0

    def initial_frontier(self) -> np.ndarray:
        assert self._front is not None
        return self._front

    def process_level(
        self,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_pos: np.ndarray | None = None,
    ) -> np.ndarray:
        assert self.p is not None and self.r is not None
        assert self._deg is not None and self._front is not None
        assert self.graph is not None
        n = self.graph.num_nodes
        front = self._front
        moved = self.r[front].copy()
        self.p[front] += moved
        self.r[front] = 0.0
        if edge_src.size:
            spread = np.zeros(n, dtype=np.float64)
            spread[front] = moved
            np.add.at(
                self.r, edge_dst,
                self.damping * spread[edge_src] / self._deg[edge_src],
            )
        dangling = moved[self._deg[front] == 0.0].sum()
        if dangling:
            self.r += self.damping * dangling / n
        self.pushes += int(front.size)
        # The certificate is computed, not assumed: once the global
        # residual mass is under the target, more pushes only polish a
        # bound that already holds — stop.
        if np.abs(self.r).sum() <= self.stop_norm:
            self._front = np.empty(0, dtype=np.int64)
        else:
            self._front = np.flatnonzero(np.abs(self.r) > self.push_tol)
        return self._front

    def result(self) -> dict[str, np.ndarray]:
        assert self.p is not None and self.r is not None
        return {"pagerank": self.p, "residual": self.r}

    def remap_nodes(self, perm: np.ndarray) -> None:
        # The stored frontier holds node *ids* — map values, don't
        # permute positions like the size-n value arrays below.
        front = self._front
        self._front = None
        super().remap_nodes(perm)
        if front is not None:
            self._front = np.sort(perm[front])


class IncrementalPageRank(IncrementalEngine):
    """Delta-aware PageRank with a computed L1 error certificate."""

    kind = "pagerank"

    def __init__(
        self,
        graph: CSRGraph,
        *,
        damping: float = 0.85,
        tolerance: float = 1e-6,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(
            graph, scheduler_factory=SageScheduler, metrics=metrics
        )
        if not 0.0 < damping < 1.0:
            raise InvalidParameterError("damping must be in (0, 1)")
        if tolerance <= 0.0:
            raise InvalidParameterError("tolerance must be positive")
        self.damping = float(damping)
        self.tolerance = float(tolerance)
        self._p: np.ndarray = np.empty(0, dtype=np.float64)
        self._r: np.ndarray = np.empty(0, dtype=np.float64)
        self.initial_seconds = self._full(graph)

    # -- state -----------------------------------------------------------

    @property
    def pagerank(self) -> np.ndarray:
        """Current estimate (see :meth:`error_bound` for its quality)."""
        return self._p.copy()

    def error_bound(self) -> float:
        """Computed certificate: ``|p - pagerank*|_1`` is at most this.

        Derived from the maintained invariant ``r = A(p) - p`` and the
        ``d``-contractivity of ``A``, not from trusting convergence.
        """
        return float(np.abs(self._r).sum()) / (1.0 - self.damping)

    @property
    def push_tol(self) -> float:
        """Per-vertex push threshold; ``|r|_1 <= tolerance`` when drained."""
        return self.tolerance / max(1, self.graph.num_nodes)

    # -- the exact operator, host-side (invariant maintenance) -----------

    def _segment_image(
        self, graph: CSRGraph, x: np.ndarray, sources: np.ndarray
    ) -> np.ndarray:
        """``d``-scaled image of ``x`` restricted to ``sources``' rows.

        The constant ``(1-d)/n`` term and untouched rows are identical
        between two graphs that differ only at ``sources``, so the
        operator difference is the difference of these segments.
        """
        n = graph.num_nodes
        out = np.zeros(n, dtype=np.float64)
        deg = graph.out_degrees().astype(np.float64)
        edge_src, edge_dst, _ = graph.expand_frontier(sources)
        if edge_src.size:
            np.add.at(
                out, edge_dst,
                self.damping * x[edge_src] / deg[edge_src],
            )
        dangling = x[sources][deg[sources] == 0.0].sum()
        if dangling:
            out += self.damping * dangling / n
        return out

    def _operator_image(self, graph: CSRGraph, x: np.ndarray) -> np.ndarray:
        """``A(x)`` exactly as :class:`PageRankApp` computes one sweep."""
        n = graph.num_nodes
        everyone = np.arange(n, dtype=np.int64)
        return (1.0 - self.damping) / n + self._segment_image(
            graph, x, everyone
        )

    # -- solves ----------------------------------------------------------

    def _full(self, graph: CSRGraph) -> float:
        app = PageRankApp(
            damping=self.damping,
            max_iterations=MAX_ITERATIONS,
            tolerance=self.tolerance,
        )
        run = self._run(graph, app)
        p = np.asarray(run.result["pagerank"], dtype=np.float64).copy()
        self._p = p
        self._r = self._operator_image(graph, p) - p
        self.graph = graph
        return run.seconds

    def update(
        self, new_graph: CSRGraph, delta: GraphDelta
    ) -> IncrementalReport:
        """Restore the invariant for one merge, then drain residuals."""
        self._check_delta(new_graph, delta)
        with self.metrics.span("incremental.update", app=self.kind):
            if self._should_fallback(new_graph, delta):
                seconds = self._full(new_graph)
                return self._record(IncrementalReport(
                    mode=MODE_FULL, sim_seconds=seconds,
                ))
            report = self._push_repair(new_graph, delta)
        return self._record(report)

    def _push_repair(
        self, new_graph: CSRGraph, delta: GraphDelta
    ) -> IncrementalReport:
        old_graph = self.graph
        touched = delta.touched_sources
        if touched.size:
            # r = A_new(p) - p, via the row-difference of the operator.
            self._r = self._r + (
                self._segment_image(new_graph, self._p, touched)
                - self._segment_image(old_graph, self._p, touched)
            )
        self.graph = new_graph

        if np.abs(self._r).sum() <= self.tolerance:
            return IncrementalReport(
                mode=MODE_NOOP, sim_seconds=0.0,
                affected=int(touched.size),
            )
        over = np.flatnonzero(np.abs(self._r) > self.push_tol)

        app = _ResidualPushApp(
            self._p, self._r, self.damping, self.push_tol,
            self.tolerance,
        )
        run = self._run(new_graph, app)
        self._p = np.asarray(
            run.result["pagerank"], dtype=np.float64
        ).copy()
        self._r = np.asarray(
            run.result["residual"], dtype=np.float64
        ).copy()
        self.metrics.count("incremental.residual_pushes", app.pushes)
        return IncrementalReport(
            mode=MODE_INCREMENTAL,
            sim_seconds=run.seconds,
            affected=int(touched.size),
            frontier=int(over.size),
            iterations=run.iterations,
        )
