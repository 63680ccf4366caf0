"""Double-buffered frontier queues (paper Figure 2).

The pipeline iterates over frontiers: the *current* buffer is consumed by
expansion while the *next* buffer collects filtered neighbors; the
buffers swap between iterations.  In the vectorized implementation the
contraction already produces a dense array, so the queue only does the
swap bookkeeping.
"""

from __future__ import annotations

import numpy as np


class FrontierQueue:
    """Two-buffer frontier manager."""

    def __init__(self, initial: np.ndarray) -> None:
        self._current = np.asarray(initial, dtype=np.int64)
        self._next: np.ndarray | None = None

    @property
    def current(self) -> np.ndarray:
        """The active frontier."""
        return self._current

    @property
    def empty(self) -> bool:
        """Whether traversal has converged."""
        return self._current.size == 0

    def publish_next(self, frontier: np.ndarray) -> None:
        """Store the contracted next frontier (once per iteration)."""
        self._next = np.asarray(frontier, dtype=np.int64)

    def swap(self) -> np.ndarray:
        """Swap buffers and return the new current frontier."""
        if self._next is None:
            self._current = np.empty(0, dtype=np.int64)
        else:
            self._current = self._next
        self._next = None
        return self._current

    def remap(self, perm: np.ndarray) -> None:
        """Relabel queued node ids after a reordering commit."""
        self._current = perm[self._current]
        if self._next is not None:
            self._next = perm[self._next]
