"""Micro-batching compatibility: which queries may share one batched kernel.

Two queries are *compatible* when they target the same graph with the
same application and parameters (:func:`batch_key`) — exactly the
condition under which the MS-BFS-style batched executor answers them
with one traversal.  The threaded broker coalesces on this key, and so
does the virtual-time replay
(:func:`~repro.serve.cluster.simulate_cluster_open_loop`), which also
owns the windowing policy.
"""

from __future__ import annotations

from typing import Any

from repro.serve.request import QueryRequest

#: A compatibility key: (graph handle, app kind, normalized params).
BatchKey = tuple[str, str, tuple[tuple[str, Any], ...]]


def batch_key(request: QueryRequest) -> BatchKey:
    """Queries coalesce iff they share this key (source excluded)."""
    return (request.graph, request.app, request.params)
