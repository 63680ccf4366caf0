"""External-memory layout of an out-of-core graph.

The host-resident graph image is addressed in sectors: first the CSR
``targets`` array, then the node value (attribute) region.  Runners map
their accesses (adjacency gathers, value reads/writes) to sector ids in
this space so the :class:`~repro.outofcore.pool.SectorPool` can track
residency uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.gpusim.spec import GPUSpec


@dataclass(frozen=True)
class GraphLayout:
    """Sector addressing of one graph's external image."""

    sector_width: int
    sector_bytes: int
    targets_sectors: int
    values_sectors: int

    def target_sectors_of(self, positions: np.ndarray) -> np.ndarray:
        """Sector ids of CSR ``targets`` positions."""
        return np.asarray(positions, dtype=np.int64) // self.sector_width


def layout_for(graph: CSRGraph, spec: GPUSpec) -> GraphLayout:
    """Compute the external layout of ``graph`` under ``spec``."""
    w = spec.sector_width
    return GraphLayout(
        sector_width=w,
        sector_bytes=spec.sector_bytes,
        targets_sectors=max(1, -(-graph.num_edges // w)),
        values_sectors=max(1, -(-graph.num_nodes // w)),
    )
