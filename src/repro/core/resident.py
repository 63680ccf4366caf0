"""Resident tiles and work stealing (paper Section 5.2, Algorithm 3).

Tiled partitions computed during expansion are kept in device memory as
*resident tiles* — scheduling logs reusable whenever the same node is
visited again, so the dynamic arrangement is paid once per node.  Being
in device memory also makes the tiles visible to every SM: any
cooperative group of the right size may consume any tile (*Resident Tile
Stealing*), which removes inter-SM load imbalance and raises the number
of independent work units in flight.

The store tracks which nodes currently have resident tiles and the
device-memory footprint; the decomposition itself is shared with
:mod:`repro.core.tiling`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.graph.csr import CSRGraph

#: bytes per stored tile record: (node, global offset, size) packed.
TILE_RECORD_BYTES = 12


class ResidentTileStore:
    """Device-global store of expanded tiled partitions."""

    def __init__(self, graph: CSRGraph) -> None:
        self._resident = np.zeros(graph.num_nodes, dtype=bool)
        # Once every node is resident, a visit reuses its whole frontier
        # without reading the mask.  The bound (at least the resident
        # count) tells when a visit may have completed the mask.
        self._all_resident = False
        self._resident_bound = 0
        self.reuse_hits = 0
        self.expansions = 0
        self.stored_tiles = 0

    def visit(
        self, frontier: np.ndarray, tiles_per_node: np.ndarray
    ) -> tuple[int, int, int]:
        """Record one frontier visit.

        Args:
            frontier: active node ids.
            tiles_per_node: number of tiles (including fragments) each
                frontier node decomposes into, frontier order.

        Returns:
            ``(reused_nodes, new_nodes, new_tiles)`` — reused nodes cost
            nothing to schedule; new nodes pay the tile-store write.
        """
        if self._all_resident:
            self.reuse_hits += frontier.size
            return frontier.size, 0, 0
        is_resident = self._resident[frontier]
        reused = int(is_resident.sum())
        new_nodes = int(frontier.size - reused)
        new_tiles = int(tiles_per_node[~is_resident].sum())
        self._resident[frontier] = True
        self.reuse_hits += reused
        self.expansions += new_nodes
        self.stored_tiles += new_tiles
        self._note_new(new_nodes)
        return reused, new_nodes, new_tiles

    def visit_queue(
        self,
        nodes: np.ndarray,
        sizes: Sequence[int],
        tiles_per_node: np.ndarray,
    ) -> np.ndarray:
        """Record a queue of frontier visits, in order, in one pass.

        ``nodes`` concatenates the queue's frontiers (level ``k`` holds
        ``sizes[k]`` entries) and ``tiles_per_node`` their tile counts.
        Equal to :meth:`visit` on each level in turn: a node is new at
        its first level in the queue unless it was resident before, and
        every later level reuses it.  Returns each level's new tiles as
        an int64 array.
        """
        count = len(sizes)
        if count == 1:  # one visit: a mask gather, no minimum.at
            return np.array([self.visit(nodes, tiles_per_node)[2]], dtype=np.int64)
        if self._all_resident:
            self.reuse_hits += int(nodes.size)
            return np.zeros(count, dtype=np.int64)
        level = np.repeat(np.arange(count), sizes)
        first = np.full(self._resident.size, count)
        np.minimum.at(first, nodes, level)
        new = (level == first[nodes]) & ~self._resident[nodes]
        self._resident[nodes] = True
        units = tiles_per_node[new]
        # integer tile counts: the float sums are exact
        new_tiles = np.bincount(
            level[new], weights=units, minlength=count
        ).astype(np.int64)
        self.reuse_hits += int(nodes.size - units.size)
        self.expansions += int(units.size)
        self.stored_tiles += int(units.sum())
        self._note_new(int(units.size))
        return new_tiles

    def _note_new(self, new_entries: int) -> None:
        """Note a visit's new frontier entries (a duplicate counts twice)
        and whether every node is now resident."""
        self._resident_bound += new_entries
        if self._resident_bound >= self._resident.size:
            # an O(|V|) count, made again only after more new entries
            self._resident_bound = int(np.count_nonzero(self._resident))
            self._all_resident = self._resident_bound == self._resident.size

    def invalidate_all(self) -> None:
        """Drop every resident tile (after reordering or graph updates).

        Reordering rewrites the CSR, so stored (offset, size) records no
        longer point at valid adjacency slices; the next visit re-expands.
        """
        self._resident[:] = False
        self._all_resident = False
        self._resident_bound = 0
        self.stored_tiles = 0
