"""Device-resident sector pool for out-of-core graphs.

When the graph exceeds device memory (paper Section 3.3), data lives in
host memory and the device keeps a cache-like pool.  The pool tracks
which 32 B sectors of the external graph image are resident, evicting
least-recently-touched sectors when capacity is exceeded — the behaviour
of CUDA unified memory at sector/page granularity, vectorized so whole
access batches are processed at once.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError


class SectorPool:
    """LRU-approximating resident-set of external-memory sectors."""

    def __init__(self, capacity_sectors: int, total_sectors: int) -> None:
        if capacity_sectors < 1 or total_sectors < 1:
            raise InvalidParameterError("pool sizes must be positive")
        self.capacity = int(capacity_sectors)
        self.total_sectors = int(total_sectors)
        self._resident = np.zeros(total_sectors, dtype=bool)
        self._last_touch = np.zeros(total_sectors, dtype=np.int64)
        self._clock = 0
        self.hits = 0
        self.misses = 0

    def access(self, sectors: np.ndarray) -> np.ndarray:
        """Touch a batch of sector ids; return the missing (fetched) ones.

        Missing sectors become resident; if the pool overflows, the
        least-recently-touched residents are evicted (batch LRU).
        """
        sectors = np.unique(np.asarray(sectors, dtype=np.int64))
        if sectors.size == 0:
            return sectors
        if sectors.min() < 0 or sectors.max() >= self.total_sectors:
            raise InvalidParameterError("sector id out of range")
        self._clock += 1
        resident = self._resident[sectors]
        missing = sectors[~resident]
        self.hits += int(resident.sum())
        self.misses += int(missing.size)
        self._resident[missing] = True
        self._last_touch[sectors] = self._clock
        self._evict_overflow()
        return missing

    def _evict_overflow(self) -> None:
        count = int(self._resident.sum())
        excess = count - self.capacity
        if excess <= 0:
            return
        resident_ids = np.flatnonzero(self._resident)
        ages = self._last_touch[resident_ids]
        oldest = resident_ids[np.argpartition(ages, excess - 1)[:excess]]
        self._resident[oldest] = False

    @property
    def resident_count(self) -> int:
        return int(self._resident.sum())


def contiguous_runs(sectors: np.ndarray) -> int:
    """Number of maximal contiguous runs in a sorted sector-id array.

    One PCIe request can cover a contiguous range; SAGE's tile alignment
    makes missing sectors cluster into few runs, while page-less
    on-demand access issues one request per hole (Section 3.3 / 7.2).
    """
    sectors = np.asarray(sectors, dtype=np.int64)
    if sectors.size == 0:
        return 0
    return int(1 + np.count_nonzero(np.diff(np.sort(sectors)) != 1))
