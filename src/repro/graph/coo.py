"""Coordinate (COO) edge-list representation.

The paper (Section 2.2, Figure 1) introduces graphs as a sorted edge list
held in two parallel arrays ``u`` and ``v``.  :class:`COOGraph` is exactly
that: the universal interchange format every generator produces and from
which :class:`~repro.graph.csr.CSRGraph` is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import GraphFormatError

EDGE_DTYPE = np.int64

#: Largest node count ``n`` with ``n * n < 2**63``: every pair key
#: ``u * n + v`` over ids in ``[0, n)`` (and the ``u * n + n`` sentinel)
#: is exact in int64.
MAX_PAIR_KEY_NODES = math.isqrt(2**63 - 1)


def pair_key_dtype(num_nodes: int) -> np.dtype:
    """The narrowest exact dtype of a ``u * n + v`` pair key: uint32
    while ``n * n < 2**32``, else int64.

    ``n * n`` is the largest value a key array stores or is searched
    for (the end of the last node's run), so it must fit too.  Sorting
    uint32 keys takes about half the time of int64 ones.
    """
    return np.dtype(np.uint32 if num_nodes * num_nodes < 2**32 else np.int64)


def edge_key_dtype(num_nodes: int) -> np.dtype:
    """:func:`pair_key_dtype` for sorting edges as ``src * n + dst``
    keys.

    Raises:
        GraphFormatError: ``num_nodes`` exceeds
            :data:`MAX_PAIR_KEY_NODES`, so the key would overflow int64.
    """
    if num_nodes > MAX_PAIR_KEY_NODES:
        raise GraphFormatError(
            f"num_nodes must be <= {MAX_PAIR_KEY_NODES} to sort edges: "
            "the src * num_nodes + dst key would overflow int64"
        )
    return pair_key_dtype(num_nodes)


@dataclass(frozen=True)
class COOGraph:
    """A directed graph as parallel source/target arrays.

    Attributes:
        num_nodes: number of nodes; node ids are ``0 .. num_nodes - 1``.
        src: 1-D array of edge sources.
        dst: 1-D array of edge targets, same length as ``src``.
    """

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray

    def __post_init__(self) -> None:
        src = np.ascontiguousarray(self.src, dtype=EDGE_DTYPE)
        dst = np.ascontiguousarray(self.dst, dtype=EDGE_DTYPE)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        if self.num_nodes < 0:
            raise GraphFormatError("num_nodes must be non-negative")
        if src.ndim != 1 or dst.ndim != 1:
            raise GraphFormatError("src and dst must be 1-D arrays")
        if src.shape != dst.shape:
            raise GraphFormatError(
                f"src/dst length mismatch: {src.shape} vs {dst.shape}"
            )
        if src.size:
            lo = min(src.min(), dst.min())
            hi = max(src.max(), dst.max())
            if lo < 0 or hi >= self.num_nodes:
                raise GraphFormatError(
                    f"edge endpoint out of range [0, {self.num_nodes}): "
                    f"saw [{lo}, {hi}]"
                )

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return int(self.src.size)

    def sorted(self) -> "COOGraph":
        """Return a copy with edges sorted by (src, dst)."""
        return self._from_keys(self._sorted_keys())

    def deduplicated(self) -> "COOGraph":
        """Return a sorted copy with duplicate edges removed."""
        key = self._sorted_keys()
        keep = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        return self._from_keys(key[keep])

    def _sorted_keys(self) -> np.ndarray:
        """Edges as ascending ``src * n + dst`` keys of dtype
        :func:`edge_key_dtype`.

        Ordering keys is ordering (src, dst) pairs, because every
        endpoint lies in ``[0, n)``.
        """
        n = self.num_nodes
        dtype = edge_key_dtype(n)
        key = self.src.astype(dtype)
        key *= dtype.type(n)
        key += self.dst.astype(dtype, copy=False)
        key.sort()
        return key

    def _from_keys(self, key: np.ndarray) -> "COOGraph":
        # An empty key array decodes to empty edges even when n is 0.
        src = key // self.num_nodes
        return COOGraph(self.num_nodes, src, key - src * self.num_nodes)

    def without_self_loops(self) -> "COOGraph":
        """Return a copy with self loops removed."""
        keep = self.src != self.dst
        return COOGraph(self.num_nodes, self.src[keep], self.dst[keep])

    def symmetrized(self) -> "COOGraph":
        """Return the undirected closure: both (u, v) and (v, u) present."""
        src = np.concatenate([self.src, self.dst])
        dst = np.concatenate([self.dst, self.src])
        return COOGraph(self.num_nodes, src, dst).deduplicated()

    def reversed(self) -> "COOGraph":
        """Return the transpose graph (every edge flipped)."""
        return COOGraph(self.num_nodes, self.dst.copy(), self.src.copy())

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every node as an int64 array."""
        return np.bincount(self.src, minlength=self.num_nodes).astype(EDGE_DTYPE)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"COOGraph(|V|={self.num_nodes}, |E|={self.num_edges})"
