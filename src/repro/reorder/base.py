"""Shared utilities for node reordering methods.

All methods in this package return a permutation in the convention of
:meth:`repro.graph.csr.CSRGraph.permute`: ``new_id = perm[old_id]``.
Ordering algorithms naturally produce an *order* (old ids in placement
sequence); :func:`order_to_perm` converts between the two.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph


def order_to_perm(order: np.ndarray) -> np.ndarray:
    """Convert a placement order (old ids in sequence) to a permutation."""
    order = np.asarray(order, dtype=np.int64)
    perm = np.empty(order.size, dtype=np.int64)
    perm[order] = np.arange(order.size, dtype=np.int64)
    return perm


def is_permutation(perm: np.ndarray, n: int) -> bool:
    """Whether ``perm`` is a bijection on ``0..n-1``."""
    perm = np.asarray(perm)
    if perm.shape != (n,):
        return False
    seen = np.zeros(n, dtype=bool)
    valid = (perm >= 0) & (perm < n)
    if not valid.all():
        return False
    seen[perm] = True
    return bool(seen.all())


def random_perm(n: int, seed: int = 0) -> np.ndarray:
    """A uniformly random ordering (the worst-case locality control)."""
    return np.random.default_rng(seed).permutation(n).astype(np.int64)


@dataclass(frozen=True)
class TimedOrdering:
    """A permutation together with the wall-clock cost of computing it.

    Table 2 of the paper compares exactly this: how long each reordering
    method takes on each dataset.
    """

    method: str
    perm: np.ndarray
    seconds: float


def timed_ordering(
    method: str, fn: Callable[[CSRGraph], np.ndarray], graph: CSRGraph
) -> TimedOrdering:
    """Run a reordering method under a wall-clock timer."""
    started = time.perf_counter()
    perm = fn(graph)
    elapsed = time.perf_counter() - started
    if not is_permutation(perm, graph.num_nodes):
        raise InvalidParameterError(f"{method} returned a non-permutation")
    return TimedOrdering(method, perm, elapsed)
