"""Structured deltas and incremental recompute (the ``dynamic`` tier).

Three layers under test, bottom-up:

* :class:`~repro.graph.delta.GraphDelta` — the frozen merge record —
  and :func:`~repro.graph.delta.patch_csr`, whose replay contract
  ("applied, not requested") everything above relies on.
* The delta-aware engines of :mod:`repro.apps.incremental`: BFS/SSSP
  repair must be *bit-identical* to a from-scratch run at every epoch
  (no tolerance — the affected-cone argument claims exactness), and
  PageRank must stay inside its own computed residual certificate.
* The serving plumbing: batched :meth:`GraphStore.apply_edges` /
  ``apply_delta``, the delta-carrying listener/subscriber signatures,
  selective cache survival, and ``repro.api.update``.

The hypothesis properties interleave random insert/delete batches with
queries so the exactness claims are exercised on merges the authors
never hand-picked.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.apps.incremental import (
    IncrementalBFS,
    IncrementalPageRank,
    IncrementalSSSP,
)
from repro.core import SageScheduler
from repro.errors import GraphFormatError, InvalidParameterError
from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.graph.delta import GraphDelta, patch_csr
from repro.graph.dynamic import DynamicGraph
from repro.obs import MetricsRegistry
from repro.serve import (
    GraphStore,
    QueryRequest,
    ResultCache,
    graph_fingerprint,
    result_cache_key,
    run_direct,
)

pytestmark = pytest.mark.dynamic

#: Graphs are immutable and expensive; share across hypothesis examples.
_GRAPH_CACHE: dict[tuple[int, int, int], CSRGraph] = {}


def cached_rmat(scale: int, edge_factor: int, seed: int) -> CSRGraph:
    key = (scale, edge_factor, seed)
    if key not in _GRAPH_CACHE:
        _GRAPH_CACHE[key] = generators.rmat(
            scale, edge_factor=edge_factor, seed=seed
        )
    return _GRAPH_CACHE[key]


def assert_same_csr(a: CSRGraph, b: CSRGraph) -> None:
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.targets, b.targets)


def _update_batch(rng, n, coo, insert=24, delete=8):
    """One random merge: ``insert`` new pairs, ``delete`` existing ones."""
    src = rng.integers(0, n, size=insert)
    dst = rng.integers(0, n, size=insert)
    keep = src != dst
    pick = rng.choice(
        coo.src.size, size=min(delete, coo.src.size), replace=False
    )
    return src[keep], dst[keep], coo.src[pick], coo.dst[pick]


# ---------------------------------------------------------------------------
# GraphDelta and patch_csr
# ---------------------------------------------------------------------------


class TestGraphDelta:
    def test_flush_records_applied_changes_only(self, tiny_graph):
        dyn = DynamicGraph(tiny_graph)
        dyn.insert_edges(np.array([3, 1]), np.array([0, 3]))
        dyn.delete_edges(np.array([1, 2]), np.array([3, 99 % 4]))
        # (1, 3) is inserted and deleted in the same batch: the delete
        # wins and *neither* side of the pair appears in the delta.
        dyn.flush()
        delta = dyn.last_delta
        assert delta is not None
        ins = set(zip(delta.inserted_src, delta.inserted_dst))
        dels = set(zip(delta.deleted_src, delta.deleted_dst))
        assert ins == {(3, 0)}
        assert dels == {(2, 3)}
        assert (delta.old_epoch, delta.new_epoch) == (0, 1)

    def test_noop_delete_does_not_appear(self, tiny_graph):
        dyn = DynamicGraph(tiny_graph)
        dyn.delete_edges(np.array([1]), np.array([0]))  # edge absent
        dyn.flush()
        assert dyn.last_delta.is_empty

    def test_arrays_are_frozen(self, tiny_graph):
        dyn = DynamicGraph(tiny_graph)
        dyn.insert_edges(np.array([3]), np.array([0]))
        dyn.flush()
        with pytest.raises(ValueError):
            dyn.last_delta.inserted_src[0] = 7

    def test_affected_vertices_union_of_endpoints(self, tiny_graph):
        delta = GraphDelta(
            num_nodes=4, old_epoch=0, new_epoch=1,
            inserted_src=[3], inserted_dst=[0],
            deleted_src=[2], deleted_dst=[3],
        )
        assert delta.touched_sources.tolist() == [2, 3]
        assert delta.affected_vertices.tolist() == [0, 2, 3]

    def test_patch_csr_rejects_node_count_mismatch(self, tiny_graph):
        delta = GraphDelta(
            num_nodes=9, old_epoch=0, new_epoch=1,
            inserted_src=[], inserted_dst=[],
            deleted_src=[], deleted_dst=[],
        )
        with pytest.raises(GraphFormatError):
            patch_csr(tiny_graph, delta)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), epochs=st.integers(1, 4))
    def test_patch_replays_any_merge_exactly(self, seed, epochs):
        """patch_csr(old, delta) == new, forward *and* transposed."""
        graph = cached_rmat(7, 6, 3)
        dyn = DynamicGraph(graph)
        rng = np.random.default_rng(seed)
        for _ in range(epochs):
            old = dyn.graph
            old_rev = old.reversed()
            ins_s, ins_d, del_s, del_d = _update_batch(
                rng, old.num_nodes, old.to_coo()
            )
            dyn.insert_edges(ins_s, ins_d)
            dyn.delete_edges(del_s, del_d)
            dyn.flush()
            delta = dyn.last_delta
            assert_same_csr(patch_csr(old, delta), dyn.graph)
            assert_same_csr(
                patch_csr(old_rev, delta.reversed()),
                dyn.graph.reversed(),
            )


# ---------------------------------------------------------------------------
# Delta-carrying listeners
# ---------------------------------------------------------------------------


class TestListenerWidening:
    def test_two_arg_listener_receives_delta(self, tiny_graph):
        dyn = DynamicGraph(tiny_graph)
        seen = []
        dyn.add_listener(lambda graph, delta: seen.append((graph, delta)))
        dyn.insert_edges(np.array([3]), np.array([0]))
        dyn.flush()
        (graph, delta), = seen
        assert graph.has_edge(3, 0)
        assert delta.num_inserted == 1 and delta.num_deleted == 0


# ---------------------------------------------------------------------------
# GraphStore batched updates
# ---------------------------------------------------------------------------


class TestStoreDeltas:
    def test_apply_edges_mixed_batch_bumps_epoch(self, tiny_graph):
        store = GraphStore({"g": DynamicGraph(tiny_graph)})
        epoch = store.apply_edges(
            "g", [3], [0], delete_src=[0], delete_dst=[1]
        )
        assert epoch == 1 == store.epoch("g")
        graph = store.graph("g")
        assert graph.has_edge(3, 0) and not graph.has_edge(0, 1)
        delta = store.last_delta("g")
        assert delta.num_inserted == 1 and delta.num_deleted == 1

    def test_apply_delta_forwards_a_merge_between_stores(self, tiny_graph):
        producer = GraphStore({"g": DynamicGraph(tiny_graph)})
        consumer = GraphStore({"g": DynamicGraph(tiny_graph)})
        producer.apply_edges(
            "g", [3, 1], [0, 0], delete_src=[2], delete_dst=[3]
        )
        consumer.apply_delta("g", producer.last_delta("g"))
        assert_same_csr(consumer.graph("g"), producer.graph("g"))
        assert consumer.fingerprint("g") == producer.fingerprint("g")

    def test_apply_edges_rejects_static_handles(self, tiny_graph):
        store = GraphStore({"g": tiny_graph})
        with pytest.raises(InvalidParameterError, match="not dynamic"):
            store.apply_edges("g", [3], [0])
        assert store.last_delta("g") is None

    def test_delta_counters_emitted_on_flush(self, tiny_graph):
        metrics = MetricsRegistry()
        store = GraphStore(
            {"g": DynamicGraph(tiny_graph)}, metrics=metrics
        )
        store.apply_edges("g", [3], [0], delete_src=[0], delete_dst=[1])
        counters = metrics.counters
        assert counters["delta.flushes"] == 1
        assert counters["delta.edges_inserted"] == 1
        assert counters["delta.edges_deleted"] == 1


# ---------------------------------------------------------------------------
# Incremental engines: unit behavior
# ---------------------------------------------------------------------------


def _one_merge(dyn, rng, insert=24, delete=8):
    coo = dyn.graph.to_coo()
    ins_s, ins_d, del_s, del_d = _update_batch(
        rng, dyn.graph.num_nodes, coo, insert=insert, delete=delete
    )
    dyn.insert_edges(ins_s, ins_d)
    dyn.delete_edges(del_s, del_d)
    dyn.flush()
    return dyn.graph, dyn.last_delta


class TestIncrementalEngines:
    def test_bfs_insert_shortcut_is_repaired(self):
        # 0 -> 1 -> 2 -> 3; inserting 0 -> 3 must pull 3 to distance 1.
        g = CSRGraph.from_edges(
            4, np.array([0, 1, 2]), np.array([1, 2, 3])
        )
        eng = IncrementalBFS(g, source=0)
        assert eng.distances.tolist() == [0, 1, 2, 3]
        dyn = DynamicGraph(g)
        dyn.insert_edges(np.array([0]), np.array([3]))
        dyn.flush()
        report = eng.update(dyn.graph, dyn.last_delta)
        assert report.mode == "incremental"
        assert eng.distances.tolist() == [0, 1, 2, 1]

    def test_bfs_deletion_invalidates_the_cone(self):
        # 0 -> 1 -> 2 -> 3 plus 0 -> 2; deleting 0 -> 1 must push 1 to
        # unreachable while 2 and 3 keep their alternate-path distances.
        g = CSRGraph.from_edges(
            5,
            np.array([0, 1, 2, 0]),
            np.array([1, 2, 3, 2]),
        )
        # fallback_fraction=1.0: a 1-edge delta on a 4-edge toy graph
        # would otherwise trip the too-large-to-repair heuristic.
        eng = IncrementalBFS(g, source=0, fallback_fraction=1.0)
        dyn = DynamicGraph(g)
        dyn.delete_edges(np.array([0]), np.array([1]))
        dyn.flush()
        report = eng.update(dyn.graph, dyn.last_delta)
        assert report.mode == "incremental"
        assert eng.distances.tolist() == [0, -1, 1, 2, -1]

    def test_large_delta_falls_back_to_full_recompute(self):
        graph = cached_rmat(7, 6, 3)
        eng = IncrementalBFS(graph, source=0, fallback_fraction=0.01)
        dyn = DynamicGraph(graph)
        rng = np.random.default_rng(0)
        new_graph, delta = _one_merge(dyn, rng, insert=200, delete=100)
        report = eng.update(new_graph, delta)
        assert report.mode == "full"
        assert eng.full_recomputes == 1

    def test_empty_delta_is_a_noop(self, tiny_graph):
        eng = IncrementalBFS(tiny_graph, source=0)
        dyn = DynamicGraph(tiny_graph)
        dyn.delete_edges(np.array([1]), np.array([0]))  # absent edge
        dyn.flush()
        report = eng.update(dyn.graph, dyn.last_delta)
        assert report.mode == "noop"
        assert eng.noops == 1

    def test_vertex_set_change_is_rejected(self, tiny_graph):
        eng = IncrementalBFS(tiny_graph, source=0)
        bigger = CSRGraph.from_edges(5, np.array([0]), np.array([1]))
        delta = GraphDelta(
            num_nodes=5, old_epoch=0, new_epoch=1,
            inserted_src=[], inserted_dst=[],
            deleted_src=[], deleted_dst=[],
        )
        with pytest.raises(InvalidParameterError):
            eng.update(bigger, delta)

    def test_engine_emits_registered_counters(self):
        metrics = MetricsRegistry()
        graph = cached_rmat(7, 6, 3)
        eng = IncrementalBFS(graph, source=0, metrics=metrics)
        dyn = DynamicGraph(graph)
        rng = np.random.default_rng(1)
        new_graph, delta = _one_merge(dyn, rng)
        eng.update(new_graph, delta)
        counters = metrics.counters
        assert counters["incremental.updates"] == 1
        assert counters.get("incremental.repairs", 0) + counters.get(
            "incremental.full_recomputes", 0
        ) + counters.get("incremental.noops", 0) == 1

    def test_pagerank_bound_is_a_real_certificate(self):
        graph = cached_rmat(7, 6, 3)
        eng = IncrementalPageRank(graph, tolerance=1e-6)
        dyn = DynamicGraph(graph)
        rng = np.random.default_rng(2)
        new_graph, delta = _one_merge(dyn, rng)
        eng.update(new_graph, delta)
        # The certificate bounds the distance to the *true* fixpoint:
        # compare against a much more converged reference.
        ref = IncrementalPageRank(new_graph, tolerance=1e-12)
        gap = float(np.abs(eng.pagerank - ref.pagerank).sum())
        assert gap <= eng.error_bound() + ref.error_bound() + 1e-12

    def test_pagerank_rejects_bad_parameters(self, tiny_graph):
        with pytest.raises(InvalidParameterError):
            IncrementalPageRank(tiny_graph, damping=1.0)
        with pytest.raises(InvalidParameterError):
            IncrementalPageRank(tiny_graph, tolerance=0.0)


# ---------------------------------------------------------------------------
# The exactness properties (hypothesis)
# ---------------------------------------------------------------------------


def _full_distances(graph, kind, source):
    engine_cls = IncrementalBFS if kind == "bfs" else IncrementalSSSP
    return engine_cls(graph, source=source).distances


class TestIncrementalProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        epochs=st.integers(1, 4),
        kind=st.sampled_from(["bfs", "sssp"]),
    )
    def test_distance_repair_bit_identical_every_epoch(
        self, seed, epochs, kind
    ):
        graph = cached_rmat(7, 6, 3)
        source = int(np.argmax(graph.out_degrees()))
        engine_cls = IncrementalBFS if kind == "bfs" else IncrementalSSSP
        eng = engine_cls(graph, source=source)
        dyn = DynamicGraph(graph)
        rng = np.random.default_rng(seed)
        for _ in range(epochs):
            new_graph, delta = _one_merge(dyn, rng)
            eng.update(new_graph, delta)
            assert np.array_equal(
                eng.distances, _full_distances(new_graph, kind, source)
            )

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), epochs=st.integers(1, 3))
    def test_pagerank_repair_stays_inside_certificates(self, seed, epochs):
        graph = cached_rmat(7, 6, 3)
        eng = IncrementalPageRank(graph, tolerance=1e-6)
        dyn = DynamicGraph(graph)
        rng = np.random.default_rng(seed)
        for _ in range(epochs):
            new_graph, delta = _one_merge(dyn, rng)
            eng.update(new_graph, delta)
            oracle = IncrementalPageRank(new_graph, tolerance=1e-6)
            gap = float(np.abs(eng.pagerank - oracle.pagerank).sum())
            assert gap <= eng.error_bound() + oracle.error_bound() + 1e-12
            # The true fixpoint has unit mass, so the estimate's mass
            # deviates by at most the certificate.
            assert abs(float(eng.pagerank.sum()) - 1.0) <= (
                eng.error_bound() + 1e-12
            )


# ---------------------------------------------------------------------------
# Selective cache invalidation
# ---------------------------------------------------------------------------


def _cache_key(store, request):
    """The cache key of ``request`` against the store's current graph."""
    _, epoch, fingerprint = store.snapshot(request.graph)
    return result_cache_key(request, epoch, fingerprint)


def _distances_entry(graph, source, app="bfs"):
    if app == "bfs":
        return {"dist": IncrementalBFS(graph, source=source).distances}
    dist = IncrementalSSSP(graph, source=source).distances
    return {"dist": dist}


class TestSelectiveCacheInvalidation:
    def _setup(self, graph):
        cache = ResultCache(capacity=16)
        fp_old = graph_fingerprint(graph)
        return cache, fp_old

    def _key(self, epoch, fp, app="bfs", source=0):
        return result_cache_key(
            QueryRequest(app, "g", source), epoch, fp
        )

    def test_unreachable_rooted_entry_survives_rekeyed(self):
        # Two components: source 3's BFS never reaches 0/1, so an
        # update touching only 0 -> 1 provably cannot change it.
        g = CSRGraph.from_edges(
            4, np.array([0, 2]), np.array([1, 3])
        )
        cache, fp_old = self._setup(g)
        key = self._key(0, fp_old, source=2)
        cache.put(key, _distances_entry(g, 2))
        dyn = DynamicGraph(g)
        dyn.insert_edges(np.array([0]), np.array([1]))  # duplicate copy
        dyn.flush()
        new_fp = graph_fingerprint(dyn.graph)
        kept, purged = cache.apply_delta(
            "g", dyn.last_delta, new_epoch=1, new_fingerprint=new_fp
        )
        assert (kept, purged) == (1, 0)
        surviving = cache.get(self._key(1, new_fp, source=2))
        assert surviving is not None
        assert np.array_equal(
            surviving["dist"], _distances_entry(dyn.graph, 2)["dist"]
        )

    def test_reachable_touched_source_purges_entry(self):
        g = CSRGraph.from_edges(4, np.array([0, 1]), np.array([1, 2]))
        cache, fp_old = self._setup(g)
        cache.put(self._key(0, fp_old, source=0), _distances_entry(g, 0))
        dyn = DynamicGraph(g)
        dyn.insert_edges(np.array([1]), np.array([3]))  # 1 is reachable
        dyn.flush()
        kept, purged = cache.apply_delta(
            "g", dyn.last_delta, new_epoch=1,
            new_fingerprint=graph_fingerprint(dyn.graph),
        )
        assert (kept, purged) == (0, 1)

    def test_non_distance_apps_never_survive(self):
        g = CSRGraph.from_edges(4, np.array([0, 2]), np.array([1, 3]))
        cache, fp_old = self._setup(g)
        key = result_cache_key(QueryRequest("pr", "g"), 0, fp_old)
        cache.put(key, {"pagerank": np.full(4, 0.25)})
        dyn = DynamicGraph(g)
        dyn.insert_edges(np.array([0]), np.array([1]))
        dyn.flush()
        kept, purged = cache.apply_delta(
            "g", dyn.last_delta, new_epoch=1,
            new_fingerprint=graph_fingerprint(dyn.graph),
        )
        assert (kept, purged) == (0, 1)

    def test_entries_older_than_one_epoch_are_purged(self):
        g = CSRGraph.from_edges(4, np.array([0, 2]), np.array([1, 3]))
        cache, fp_old = self._setup(g)
        cache.put(self._key(0, fp_old, source=2), _distances_entry(g, 2))
        dyn = DynamicGraph(g)
        dyn.insert_edges(np.array([0]), np.array([1]))
        dyn.flush()
        # Two epochs ahead: survival can't be argued from this delta.
        kept, purged = cache.apply_delta(
            "g", dyn.last_delta, new_epoch=2,
            new_fingerprint=graph_fingerprint(dyn.graph),
        )
        assert (kept, purged) == (0, 1)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), epochs=st.integers(1, 3))
    def test_cache_never_serves_a_stale_epoch(self, seed, epochs):
        """Every post-update hit is bit-identical to an uncached rerun."""
        graph = cached_rmat(6, 5, 9)
        store = GraphStore({"g": DynamicGraph(graph)})
        cache = ResultCache(capacity=32)
        store.subscribe(
            lambda handle, csr, epoch, delta: cache.apply_delta(
                handle, delta, new_epoch=epoch,
                new_fingerprint=graph_fingerprint(csr),
            )
        )
        rng = np.random.default_rng(seed)
        sources = rng.integers(0, graph.num_nodes, size=4)
        requests = [
            QueryRequest("bfs", "g", int(source)) for source in sources
        ]
        for request in requests:  # warm the cache at epoch 0
            cache.put(
                _cache_key(store, request),
                run_direct(
                    store.graph("g"), request, SageScheduler
                ).result,
            )
        for _ in range(epochs):
            coo = store.graph("g").to_coo()
            ins_s, ins_d, del_s, del_d = _update_batch(
                rng, graph.num_nodes, coo
            )
            store.apply_edges(
                "g", ins_s, ins_d, delete_src=del_s, delete_dst=del_d
            )
            current = store.graph("g")
            for request in requests:
                cached = cache.get(_cache_key(store, request))
                if cached is None:
                    continue
                oracle = run_direct(current, request, SageScheduler)
                assert np.array_equal(
                    cached["dist"], oracle.result["dist"]
                )


# ---------------------------------------------------------------------------
# api.update
# ---------------------------------------------------------------------------


class TestApiUpdate:
    def test_update_dynamic_graph_returns_delta(self, tiny_graph):
        dyn = DynamicGraph(tiny_graph)
        delta = api.update(
            dyn, insert=([3], [0]), delete=([0], [1])
        )
        assert delta.num_inserted == 1 and delta.num_deleted == 1
        assert dyn.graph.has_edge(3, 0)
        assert not dyn.graph.has_edge(0, 1)

    def test_update_store_fans_out_and_returns_delta(self, tiny_graph):
        store = GraphStore({"default": DynamicGraph(tiny_graph)})
        seen = []
        store.subscribe(
            lambda handle, csr, epoch, delta: seen.append(epoch)
        )
        delta = api.update(store, insert=([3], [0]))
        assert delta.num_inserted == 1
        assert seen == [1]

    def test_update_requires_some_change(self, tiny_graph):
        dyn = DynamicGraph(tiny_graph)
        with pytest.raises(InvalidParameterError):
            api.update(dyn)

    def test_update_counts_metric(self, tiny_graph):
        metrics = MetricsRegistry()
        dyn = DynamicGraph(tiny_graph)
        api.update(dyn, insert=([3], [0]), metrics=metrics)
        assert metrics.counters["api.updates"] == 1
