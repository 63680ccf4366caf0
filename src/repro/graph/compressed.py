"""Delta-varint compressed adjacency (CSR companion representation).

The paper cites the authors' companion system for traversal over
*compressed* graphs (reference [41], Sha et al., SIGMOD'19).  This module
provides that representation as an optional extension: adjacency lists
are gap-encoded (each sorted neighbor list stored as deltas) and packed
as LEB128 varints, typically compressing social-network CSRs 2-4x.

Both directions are fully vectorized: encoding computes per-value byte
widths with masks; decoding reconstructs all values in one pass from the
continuation-bit structure.  :class:`repro.core.compressed.CompressedTraversalScheduler` wraps any
scheduler so traversals can run *directly* on the compressed image: CSR
read traffic shrinks by the measured compression ratio while each edge
pays a small decode cost — the classic bandwidth-for-compute trade.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph


def _encode_varints(values: np.ndarray) -> np.ndarray:
    """LEB128-encode a non-negative int64 array into a uint8 stream."""
    values = np.asarray(values, dtype=np.int64)
    if values.size and values.min() < 0:
        raise GraphFormatError("varint encoding needs non-negative values")
    if values.size == 0:
        return np.zeros(0, dtype=np.uint8)
    # bytes needed: 1 + floor(log128(v)) for v > 0
    widths = np.ones(values.size, dtype=np.int64)
    v = values >> 7
    while np.any(v):
        widths += (v > 0)
        v >>= 7
    total = int(widths.sum())
    out = np.zeros(total, dtype=np.uint8)
    starts = np.cumsum(widths) - widths
    remaining = values.copy()
    # fill byte position k of every value that has one
    max_width = int(widths.max())
    for k in range(max_width):
        has_k = widths > k
        idx = starts[has_k] + k
        chunk = (remaining[has_k] & 0x7F).astype(np.uint8)
        more = widths[has_k] > k + 1
        out[idx] = chunk | (more.astype(np.uint8) << 7)
        remaining[has_k] >>= 7
    return out


def _decode_varints(stream: np.ndarray) -> np.ndarray:
    """Decode a LEB128 uint8 stream back to int64 values."""
    stream = np.asarray(stream, dtype=np.uint8)
    if stream.size == 0:
        return np.zeros(0, dtype=np.int64)
    is_start = np.ones(stream.size, dtype=bool)
    is_start[1:] = (stream[:-1] & 0x80) == 0
    group = np.cumsum(is_start) - 1
    start_positions = np.flatnonzero(is_start)
    pos_in_group = np.arange(stream.size) - start_positions[group]
    contributions = (stream.astype(np.int64) & 0x7F) << (7 * pos_in_group)
    values = np.zeros(start_positions.size, dtype=np.int64)
    np.add.at(values, group, contributions)
    return values


@dataclass(frozen=True)
class CompressedCSRGraph:
    """Gap + varint compressed adjacency structure.

    Attributes:
        num_nodes: node count.
        num_edges: edge count.
        byte_offsets: per-node byte ranges into ``payload``
            (length ``num_nodes + 1``).
        edge_offsets: per-node edge counts, CSR-style (for degree
            queries without decoding).
        payload: concatenated varint streams; node ``u``'s sorted
            adjacency is gap-decoded from
            ``payload[byte_offsets[u]:byte_offsets[u + 1]]``.
    """

    num_nodes: int
    num_edges: int
    byte_offsets: np.ndarray
    edge_offsets: np.ndarray
    payload: np.ndarray

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    @classmethod
    def from_csr(cls, graph: CSRGraph) -> "CompressedCSRGraph":
        """Compress a CSR graph (adjacency lists must be sorted — the
        CSR construction invariant)."""
        degrees = graph.out_degrees()
        # gaps: first neighbor absolute, rest deltas (sorted => >= 0)
        deltas = graph.targets.copy()
        if graph.num_edges:
            inner = np.ones(graph.num_edges, dtype=bool)
            inner[graph.offsets[:-1][degrees > 0]] = False
            deltas[inner] = np.diff(graph.targets)[inner[1:]]
        stream = _encode_varints(deltas)
        # byte widths per value -> per node byte offsets
        widths = np.ones(graph.num_edges, dtype=np.int64)
        v = deltas >> 7
        while np.any(v):
            widths += (v > 0)
            v >>= 7
        byte_offsets = np.zeros(graph.num_nodes + 1, dtype=np.int64)
        np.add.at(
            byte_offsets,
            1 + np.repeat(np.arange(graph.num_nodes), degrees),
            widths,
        )
        np.cumsum(byte_offsets, out=byte_offsets)
        return cls(
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            byte_offsets=byte_offsets,
            edge_offsets=graph.offsets.copy(),
            payload=stream,
        )

    def to_csr(self) -> CSRGraph:
        """Decompress back to plain CSR (exact round trip)."""
        deltas = _decode_varints(self.payload)
        if deltas.size != self.num_edges:
            raise GraphFormatError("payload decodes to wrong edge count")
        targets = np.cumsum(deltas)
        if self.num_edges:
            # Each segment's first value is absolute, so subtract the
            # running total accumulated before the segment began.
            degrees = np.diff(self.edge_offsets)
            seg_starts = self.edge_offsets[:-1][degrees > 0]
            seg_of = np.repeat(np.arange(self.num_nodes), degrees)
            seg_base = np.zeros(self.num_nodes, dtype=np.int64)
            nonzero_start = seg_starts[seg_starts > 0]
            seg_ids = seg_of[nonzero_start]
            seg_base[seg_ids] = targets[nonzero_start - 1]
            targets = targets - seg_base[seg_of]
        return CSRGraph(self.num_nodes, self.edge_offsets.copy(), targets)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def neighbors(self, node: int) -> np.ndarray:
        """Decode one node's sorted adjacency list."""
        chunk = self.payload[
            self.byte_offsets[node]:self.byte_offsets[node + 1]
        ]
        return np.cumsum(_decode_varints(chunk))

    @property
    def compressed_bytes(self) -> int:
        return int(self.payload.size)

    @property
    def uncompressed_bytes(self) -> int:
        """Plain CSR targets footprint (4-byte ids, as in the paper)."""
        return self.num_edges * 4

    @property
    def compression_ratio(self) -> float:
        """uncompressed / compressed size (> 1 means smaller)."""
        if self.compressed_bytes == 0:
            return 1.0
        return self.uncompressed_bytes / self.compressed_bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompressedCSRGraph(|V|={self.num_nodes}, |E|={self.num_edges}, "
            f"ratio={self.compression_ratio:.2f}x)"
        )
