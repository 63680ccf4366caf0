"""A fixed host workload timed beside the measured one.

On a machine shared with other work, host time drifts by tens of percent
over minutes while the code under test stays the same.  Each run times
this kernel between its units of work and scales its host metrics by
``REFERENCE_S`` over the kernel's first-quartile time: they read as on a
machine where the kernel takes ``REFERENCE_S``, and a load that slows
both the kernel and the program cancels.  The first quartile, like the
least-of-passes program timings it scales, tracks the machine's faster
moments, so one slow spell moves neither.  The kernel is benchmark code,
so a change to the program never moves it.  It mixes what the program's
host time is made of: interpreter loops, many small numpy calls, and
level-by-level frontier expansion over a grid (hundreds of tiny levels)
and a random graph (a few large ones).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: Kernel seconds on the reference machine: the median first-quartile
#: time of 36 runs on the 2-vCPU x86-64 VM the workloads were sized on
#: (Python 3.11, numpy 2.4).
REFERENCE_S = 0.034


def _csr(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, ...]:
    order = np.lexsort((dst, src))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return offsets, dst[order].astype(np.int64)


def _bfs_levels(offsets: np.ndarray, targets: np.ndarray) -> int:
    n = offsets.size - 1
    dist = np.full(n, -1)
    dist[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    level = 0
    while frontier.size:
        starts = offsets[frontier]
        counts = offsets[frontier + 1] - starts
        pos = (np.repeat(starts - (np.cumsum(counts) - counts), counts)
               + np.arange(counts.sum()))
        reached = targets[pos]
        frontier = np.unique(reached[dist[reached] < 0])
        level += 1
        dist[frontier] = level
    return level


class Calibration:
    """Times the kernel on demand and turns the samples into a factor."""

    def __init__(self) -> None:
        side = 48
        ids = np.arange(side * side).reshape(side, side)
        src = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
        dst = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
        self._grid = _csr(side * side, np.concatenate([src, dst]),
                          np.concatenate([dst, src]))
        rng = np.random.default_rng(7)
        n = 1 << 13
        self._random = _csr(n, rng.integers(0, n, 8 * n),
                            rng.integers(0, n, 8 * n))
        self._small = [rng.integers(0, 100, size=64) for _ in range(8)]
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time the kernel once."""
        start = perf_counter()
        total = 0
        for i in range(1500):
            small = self._small[i % 8]
            total += np.unique(small[small > 10]).size
        for i in range(200_000):
            total += i & 7
        for _ in range(4):
            total += _bfs_levels(*self._grid) + _bfs_levels(*self._random)
        self.samples.append(perf_counter() - start)

    @property
    def speed(self) -> float:
        """``REFERENCE_S`` over the first-quartile sample: below 1 on a
        machine running slower than the reference; 1 with no samples."""
        if not self.samples:
            return 1.0
        if len(self.samples) == 1:
            return REFERENCE_S / self.samples[0]
        return REFERENCE_S / statistics.quantiles(self.samples, n=4)[0]
