"""Traversal scheduling over compressed adjacency (see [41]).

Wraps any :class:`~repro.core.scheduler.Scheduler` so kernels account
for a :class:`~repro.graph.compressed.CompressedCSRGraph` image: CSR
gather traffic shrinks by the compression ratio, and every edge pays a
varint decode — the bandwidth-for-compute trade of the authors\'
compressed-graph traversal system (paper reference [41]).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.apps.base import App
from repro.core.scheduler import Scheduler
from repro.graph.compressed import CompressedCSRGraph
from repro.graph.csr import CSRGraph
from repro.gpusim.cost import KernelStats
from repro.obs import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.sanitizer import Sanitizer

#: per-edge varint decode cost in lane-cycles (shift/mask/branch).
DECODE_CYCLES_PER_EDGE = 2.0


class CompressedTraversalScheduler(Scheduler):
    """Run any scheduler over the compressed adjacency image.

    CSR gather traffic shrinks by the compression ratio (fewer bytes per
    edge on the wire); every edge pays a varint decode in exchange.
    Value-array accesses are unaffected — node attributes stay
    uncompressed.
    """

    def __init__(self, inner: Scheduler, compressed: CompressedCSRGraph) -> None:
        super().__init__(inner.spec)
        self.inner = inner
        self.compressed = compressed
        self.name = f"{inner.name}+compressed"

    def set_metrics(self, metrics: MetricsRegistry | None) -> None:
        super().set_metrics(metrics)
        self.inner.set_metrics(metrics)

    def set_sanitizer(self, sanitizer: Sanitizer | None) -> None:
        super().set_sanitizer(sanitizer)
        self.inner.set_sanitizer(sanitizer)

    def queue_edge_limit(self, graph: CSRGraph) -> int:
        return self.inner.queue_edge_limit(graph)

    def reset(self, graph: CSRGraph) -> None:
        self.inner.reset(graph)

    def kernel_stats(
        self,
        frontier: np.ndarray,
        degrees: np.ndarray,
        edge_dst: np.ndarray,
        graph: CSRGraph,
        app: App,
    ) -> KernelStats:
        stats = self.inner.kernel_stats(frontier, degrees, edge_dst, graph,
                                        app)
        ratio = self.compressed.compression_ratio
        stats.csr_sector_touches = int(
            np.ceil(stats.csr_sector_touches / max(1.0, ratio))
        )
        stats.overhead_cycles += (
            stats.active_edges * DECODE_CYCLES_PER_EDGE
            / (self.spec.num_sms * self.spec.warp_size)
        )
        return stats

    def post_level(self, graph: CSRGraph):
        return self.inner.post_level(graph)

    def notify_reordered(self, perm: np.ndarray, graph: CSRGraph) -> None:
        self.inner.notify_reordered(perm, graph)
