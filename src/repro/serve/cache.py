"""Versioned query-result cache and the graph store that versions it.

Repeated traversal queries are the common case of a serving deployment
(hot sources, shared PageRank parameter sets), and their results are
pure functions of ``(graph contents, app, params, source)`` — so a cache
can short-circuit execution entirely *provided it can never serve a
stale read*.  Staleness is ruled out structurally, not by TTLs:

* every cache key embeds the owning graph's **update epoch** and a
  content **fingerprint**; a :class:`~repro.graph.dynamic.DynamicGraph`
  merge bumps the epoch via its listener hook, so post-update lookups
  simply miss (and the old epoch's entries are purged);
* values are stored and returned as **copies**, so cached arrays can
  never alias a caller's (or another response's) buffers.

Invalidation is *selective* when the update arrives as a structured
:class:`~repro.graph.delta.GraphDelta`: entries whose results are
provably unaffected by the changed edges (see
:meth:`ResultCache.apply_delta`) are re-keyed to the new epoch instead
of purged, so a hot source keeps hitting across merges that cannot
change its answer.

:class:`GraphStore` owns the handle → graph mapping shared by every
replica of a cluster, tracks epochs/fingerprints, and fans updated CSR
snapshots *and their deltas* out to subscribers (the serving event
loop, which fixes its cache up from each delta).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from collections.abc import Callable, Mapping
from typing import Any

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.graph.delta import GraphDelta
from repro.graph.dynamic import DynamicGraph
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.serve.request import QueryRequest

#: A cache key: (graph handle, epoch, fingerprint, app, params, source).
CacheKey = tuple[str, int, str, str, tuple[tuple[str, Any], ...], int | None]


def graph_fingerprint(graph: CSRGraph) -> str:
    """Content hash of a CSR (shape + offsets + targets bytes).

    Two structurally identical graphs fingerprint equally even when they
    are distinct objects, so a cache survives graph re-registration; any
    edge difference changes the digest.
    """
    digest = hashlib.sha256()
    digest.update(int(graph.num_nodes).to_bytes(8, "little"))
    digest.update(np.ascontiguousarray(graph.offsets).tobytes())
    digest.update(np.ascontiguousarray(graph.targets).tobytes())
    return digest.hexdigest()[:16]


def result_cache_key(
    request: QueryRequest, epoch: int, fingerprint: str
) -> CacheKey:
    """The canonical key a request's result is cached under."""
    return (
        request.graph,
        epoch,
        fingerprint,
        request.app,
        request.params,
        None if request.source is None else int(request.source),
    )


#: Apps whose cached result carries a per-node ``dist`` array rooted at
#: one source — the shapes :func:`_survives_delta` can reason about.
_SOURCE_DIST_APPS = frozenset({"bfs", "sssp"})


def _survives_delta(
    key: CacheKey, entry: Mapping[str, np.ndarray], delta: GraphDelta
) -> bool:
    """Whether a cached result is provably unchanged by ``delta``.

    The argument (DESIGN.md, "Structured deltas & incremental repair"):
    for a source-rooted distance result, take any path from the source
    in the *new* graph that uses an inserted edge and look at the first
    inserted edge ``(u, v)`` along it — its prefix uses only old edges,
    so ``u`` was reachable in the old graph.  Contrapositive: if every
    changed edge departs a vertex the cached run never reached
    (``dist`` at its unreachable sentinel), no new-graph path can use
    any inserted edge and no old shortest path used any deleted one —
    the distance array is bit-identical across the epochs.  Deltas with
    no applied changes trivially preserve every entry.
    """
    if delta.is_empty:
        return True
    app, source = key[3], key[5]
    if source is None or app not in _SOURCE_DIST_APPS:
        return False
    dist = entry.get("dist")
    if dist is None or dist.ndim != 1 or dist.size != delta.num_nodes:
        return False
    touched = delta.touched_sources
    values = dist[touched]
    if app == "bfs":
        return bool((values < 0).all())
    from repro.apps.sssp import INF

    return bool((values >= INF).all())


class ResultCache:
    """Bounded LRU cache of query results, versioned by graph epoch.

    ``capacity`` bounds the entry count (0 disables caching entirely:
    the serving replay then makes no lookup, so hits and misses stay 0,
    and every ``put`` is dropped).  Not thread-safe:
    the serving event loop owns it.
    """

    def __init__(
        self,
        capacity: int = 1024,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 0:
            raise InvalidParameterError("capacity must be >= 0")
        self.capacity = int(capacity)
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._entries: OrderedDict[CacheKey, dict[str, np.ndarray]] = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.rekeyed = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @staticmethod
    def _copy(result: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        return {key: np.asarray(value).copy() for key, value in result.items()}

    def get(self, key: CacheKey) -> dict[str, np.ndarray] | None:
        """A fresh copy of the cached result, or ``None`` on a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self.metrics.count("cluster.cache_misses")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self.metrics.count("cluster.cache_hits")
        return self._copy(entry)

    def put(self, key: CacheKey, result: Mapping[str, np.ndarray]) -> None:
        """Store a copy of ``result``; evicts LRU entries past capacity."""
        if self.capacity == 0:
            return
        self._entries[key] = self._copy(result)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            self.metrics.count("cluster.cache_evictions")

    def apply_delta(
        self,
        handle: str,
        delta: GraphDelta,
        *,
        new_epoch: int,
        new_fingerprint: str,
    ) -> tuple[int, int]:
        """Selective invalidation for one structured update.

        Entries of ``handle`` at exactly the pre-update epoch
        (``new_epoch - 1``) whose results are provably unaffected by
        ``delta`` (:func:`_survives_delta`) are *re-keyed* to
        ``(new_epoch, new_fingerprint)`` — they keep hitting after the
        merge.  Everything else stale is purged, including entries from
        older epochs (those skipped an intermediate delta's check, so
        survival cannot be argued from this delta alone).  Returns
        ``(kept, purged)``.
        """
        stale = [
            key
            for key in self._entries
            if key[0] == handle and key[1] < new_epoch
        ]
        kept = 0
        for key in stale:
            new_key = (handle, new_epoch, new_fingerprint) + key[3:]
            if (
                key[1] == new_epoch - 1
                and new_key not in self._entries
                and _survives_delta(key, self._entries[key], delta)
            ):
                self._entries[new_key] = self._entries.pop(key)
                kept += 1
            else:
                del self._entries[key]
        purged = len(stale) - kept
        self.invalidations += purged
        self.rekeyed += kept
        if purged:
            self.metrics.count("cluster.cache_invalidations", purged)
            self.metrics.count("delta.cache_entries_purged", purged)
        if kept:
            self.metrics.count("delta.cache_entries_kept", kept)
        return kept, purged

    def clear(self) -> None:
        self._entries.clear()


#: The delta-aware subscriber contract of :meth:`GraphStore.subscribe`.
StoreSubscriber = Callable[[str, CSRGraph, int, GraphDelta], None]


class GraphStore:
    """Handle → graph mapping with epochs, fingerprints and update fanout.

    Accepts plain :class:`CSRGraph` values (epoch pinned at 0) and
    :class:`DynamicGraph` values (epoch bumped on every merge via the
    dynamic graph's listener hook).  Every serving batch reads its graph
    from :meth:`graph` at dispatch.  ``subscribe`` registers a callback
    fired with ``(handle, csr, epoch, delta)`` after every update — the
    serving event loop uses the delta to invalidate its cache
    selectively.  Batched updates go through :meth:`apply_edges` /
    :meth:`apply_delta`.  Thread-safe: a merge may come from any thread.
    """

    _guarded_by = {
        "_current": "_lock",
        "_epochs": "_lock",
        "_fingerprints": "_lock",
        "_deltas": "_lock",
        "_subscribers": "_lock",
    }

    def __init__(
        self,
        graphs: Mapping[str, CSRGraph | DynamicGraph],
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not graphs:
            raise InvalidParameterError("at least one graph is required")
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._lock = threading.Lock()
        self._dynamic: dict[str, DynamicGraph] = {}
        self._current: dict[str, CSRGraph] = {}
        self._epochs: dict[str, int] = {}
        self._fingerprints: dict[str, str] = {}
        self._deltas: dict[str, GraphDelta] = {}
        self._subscribers: list[StoreSubscriber] = []
        for handle, graph in graphs.items():
            if isinstance(graph, DynamicGraph):
                self._dynamic[handle] = graph
                csr = graph.graph  # flushes anything already pending
                graph.add_listener(
                    lambda new, delta, handle=handle: self._on_update(
                        handle, new, delta
                    )
                )
            else:
                csr = graph
            self._current[handle] = csr
            self._epochs[handle] = 0
            self._fingerprints[handle] = graph_fingerprint(csr)

    @property
    def handles(self) -> list[str]:
        with self._lock:
            return sorted(self._current)

    def subscribe(self, callback: StoreSubscriber) -> None:
        """Register a ``(handle, csr, epoch, delta)`` update callback."""
        with self._lock:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: StoreSubscriber) -> None:
        """Remove a callback :meth:`subscribe` registered."""
        with self._lock:
            self._subscribers.remove(callback)

    def _on_update(
        self, handle: str, csr: CSRGraph, delta: GraphDelta
    ) -> None:
        with self._lock:
            self._current[handle] = csr
            self._epochs[handle] += 1
            self._fingerprints[handle] = graph_fingerprint(csr)
            self._deltas[handle] = delta
            epoch = self._epochs[handle]
            subscribers = list(self._subscribers)
        self.metrics.count("delta.flushes")
        if delta.num_inserted:
            self.metrics.count("delta.edges_inserted", delta.num_inserted)
        if delta.num_deleted:
            self.metrics.count("delta.edges_deleted", delta.num_deleted)
        # Fan out with the lock dropped: a subscriber may call back into
        # the store (the event loop reads the new fingerprint).
        for callback in subscribers:
            callback(handle, csr, epoch, delta)

    def refresh(self, handle: str) -> None:
        """Flush any pending dynamic updates so the epoch is current.

        Cache-key computation must see the post-update epoch; touching
        the dynamic graph's ``.graph`` property forces the flush (which
        fires the listener, which bumps the epoch).
        """
        dynamic = self._dynamic.get(handle)
        if dynamic is not None and dynamic.pending_updates:
            _ = dynamic.graph

    def _dynamic_for(self, handle: str) -> DynamicGraph:
        self._check(handle)
        dynamic = self._dynamic.get(handle)
        if dynamic is None:
            raise InvalidParameterError(
                f"graph {handle!r} is not dynamic; register a "
                "DynamicGraph to apply updates"
            )
        return dynamic

    def apply_edges(
        self,
        handle: str,
        src: Any,
        dst: Any,
        *,
        delete_src: Any = None,
        delete_dst: Any = None,
    ) -> int:
        """Apply one batched update to a dynamic handle and flush.

        ``src``/``dst`` are inserted; ``delete_src``/``delete_dst``
        (optional, matching 1-D arrays) are deleted in the same merge,
        with deletes winning over same-batch inserts of the same pair.
        Returns the post-merge epoch; the resulting
        :class:`~repro.graph.delta.GraphDelta` is available via
        :meth:`last_delta` and is fanned out to every subscriber.
        Raises for handles registered as plain (non-dynamic) CSR graphs.
        """
        dynamic = self._dynamic_for(handle)
        src = np.asarray(src)
        dst = np.asarray(dst)
        if src.size:
            dynamic.insert_edges(src, dst)
        if delete_src is not None:
            dynamic.delete_edges(
                np.asarray(delete_src), np.asarray(delete_dst)
            )
        dynamic.flush()
        return self.epoch(handle)

    def apply_delta(self, handle: str, delta: GraphDelta) -> int:
        """Replay a :class:`~repro.graph.delta.GraphDelta` onto a handle.

        Applies the delta's inserted and deleted edge instances as one
        merge (the typical use is forwarding a delta produced by
        another store or process).  Returns the post-merge epoch.
        """
        dynamic = self._dynamic_for(handle)
        if delta.is_empty:
            return self.epoch(handle)
        if delta.num_inserted:
            dynamic.insert_edges(delta.inserted_src, delta.inserted_dst)
        if delta.num_deleted:
            dynamic.delete_edges(delta.deleted_src, delta.deleted_dst)
        dynamic.flush()
        return self.epoch(handle)

    def last_delta(self, handle: str) -> GraphDelta | None:
        """The delta of the handle's most recent merge (``None`` before
        any update or for non-dynamic handles)."""
        self._check(handle)
        self.refresh(handle)
        with self._lock:
            return self._deltas.get(handle)

    def graph(self, handle: str) -> CSRGraph:
        self._check(handle)
        self.refresh(handle)
        with self._lock:
            return self._current[handle]

    def epoch(self, handle: str) -> int:
        self._check(handle)
        self.refresh(handle)
        with self._lock:
            return self._epochs[handle]

    def fingerprint(self, handle: str) -> str:
        self._check(handle)
        self.refresh(handle)
        with self._lock:
            return self._fingerprints[handle]

    def snapshot(self, handle: str) -> tuple[CSRGraph, int, str]:
        """The handle's ``(graph, epoch, fingerprint)``, read together:
        a merge from another thread cannot land between the three, so a
        result computed on the graph is keyed by that graph's version."""
        self._check(handle)
        self.refresh(handle)
        with self._lock:
            return (
                self._current[handle],
                self._epochs[handle],
                self._fingerprints[handle],
            )

    def _check(self, handle: str) -> None:
        with self._lock:
            known = handle in self._current
            registered = sorted(self._current) if not known else []
        if not known:
            raise InvalidParameterError(
                f"unknown graph handle {handle!r}; "
                f"registered: {registered}"
            )
