"""Tests for the extension features: SCC, hybrid BFS, functional apps,
compressed graphs, trace replay."""

import networkx as nx
import numpy as np
import pytest

from repro.apps import (
    BFSApp,
    FunctionalApp,
    make_app,
    one_hot,
    strongly_connected_components,
)
from repro.core import (
    CompressedTraversalScheduler,
    HybridConfig,
    SageScheduler,
    direction_optimized_bfs,
    run_app,
)
from repro.analysis import Sanitizer
from repro.errors import InvalidParameterError
from repro.graph import CompressedCSRGraph, generators as gen
from repro.graph.compressed import _decode_varints, _encode_varints
from repro.graph.csr import CSRGraph
from repro.gpusim import GPUSpec, replay_cache_trace
from repro.obs import MetricsRegistry
from tests.conftest import bfs_oracle, to_networkx


class TestSCC:
    def scc_sets(self, labels):
        groups = {}
        for node, label in enumerate(labels):
            groups.setdefault(int(label), set()).add(node)
        return {frozenset(g) for g in groups.values()}

    def oracle_sets(self, graph):
        return {frozenset(c)
                for c in nx.strongly_connected_components(to_networkx(graph))}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_networkx(self, seed):
        g = gen.power_law_configuration(150, 2.0, 3.0, seed=seed)
        result = strongly_connected_components(g, SageScheduler)
        assert self.scc_sets(result.labels) == self.oracle_sets(g)
        assert result.num_components == len(self.oracle_sets(g))

    def test_cycle_is_one_scc(self):
        g = gen.cycle_graph(10)
        result = strongly_connected_components(g, SageScheduler)
        assert result.num_components == 1

    def test_dag_is_all_singletons(self):
        g = gen.path_graph(10)
        result = strongly_connected_components(g, SageScheduler)
        assert result.num_components == 10
        # a path trims entirely without reachability sweeps
        assert result.sweeps == 0
        assert result.trimmed == 10

    def test_two_cycles_bridge(self):
        # cycle {0,1,2} -> bridge -> cycle {3,4,5}
        src = np.array([0, 1, 2, 2, 3, 4, 5])
        dst = np.array([1, 2, 0, 3, 4, 5, 3])
        g = CSRGraph.from_edges(6, src, dst)
        result = strongly_connected_components(g, SageScheduler)
        assert self.scc_sets(result.labels) == {
            frozenset({0, 1, 2}), frozenset({3, 4, 5})
        }

    def test_simulated_time_accumulates(self, skewed_graph):
        result = strongly_connected_components(skewed_graph, SageScheduler)
        assert result.seconds > 0 or result.sweeps == 0


class TestHybridBFS:
    @pytest.mark.parametrize("fixture", ["skewed_graph", "regular_graph",
                                         "web_graph"])
    def test_matches_plain_bfs(self, fixture, request):
        graph = request.getfixturevalue(fixture)
        source = int(np.argmax(graph.out_degrees()))
        result, stats = direction_optimized_bfs(graph, SageScheduler, source)
        assert np.array_equal(result.result["dist"],
                              bfs_oracle(graph, source))
        assert stats.push_iterations + stats.pull_iterations == \
            result.iterations

    def test_dense_graph_pulls(self, regular_graph):
        _, stats = direction_optimized_bfs(
            regular_graph, SageScheduler,
            int(np.argmax(regular_graph.out_degrees())),
            config=HybridConfig(alpha=20.0),
        )
        assert stats.pull_iterations >= 1

    def test_sparse_path_never_pulls(self):
        g = gen.path_graph(40)
        _, stats = direction_optimized_bfs(g, SageScheduler, 0)
        assert stats.pull_iterations == 0

    def test_validation(self, tiny_graph):
        with pytest.raises(InvalidParameterError):
            direction_optimized_bfs(tiny_graph, SageScheduler, 99)
        with pytest.raises(InvalidParameterError):
            HybridConfig(alpha=0)
        with pytest.raises(InvalidParameterError):
            HybridConfig(beta=-1.0)


class TestFunctionalApps:
    def reach_app(self):
        return make_app(
            "reach",
            init=lambda graph, source: {"seen": one_hot(graph, source)},
            edge_filter=lambda state, src, dst: ~state["seen"][dst],
            on_pass=lambda state, nodes:
                state["seen"].__setitem__(nodes, True),
        )

    def test_reachability(self, skewed_graph):
        result = run_app(skewed_graph, self.reach_app()(), SageScheduler(),
                         source=0)
        expected = bfs_oracle(skewed_graph, 0) >= 0
        assert np.array_equal(result.result["seen"], expected)

    def test_runs_under_every_scheduler(self, skewed_graph):
        from repro.baselines import B40CScheduler, GunrockScheduler
        reference = run_app(skewed_graph, self.reach_app()(),
                            SageScheduler(), source=2).result["seen"]
        for factory in (B40CScheduler, GunrockScheduler):
            got = run_app(skewed_graph, self.reach_app()(), factory(),
                          source=2).result["seen"]
            assert np.array_equal(got, reference)

    def test_survives_midrun_reorder(self):
        g = gen.power_law_configuration(
            300, 2.0, 10.0, seed=4, community_count=6, scramble_ids=True
        )
        sched = SageScheduler(sampling_reorder=True,
                              reorder_threshold_edges=g.num_edges // 4)
        result = run_app(g, self.reach_app()(), sched, source=0)
        expected = bfs_oracle(g, 0) >= 0
        assert np.array_equal(result.result["seen"], expected)

    def test_global_frontier_default(self, tiny_graph):
        counted = make_app(
            "touch",
            init=lambda graph, source: {
                "touches": np.zeros(graph.num_nodes, dtype=np.int64)
            },
            edge_filter=lambda state, src, dst: np.zeros(dst.size,
                                                         dtype=bool),
        )
        app = counted()
        result = run_app(tiny_graph, app, SageScheduler())
        assert result.iterations == 1  # all-nodes frontier, nothing passes

    def test_max_iterations(self, tiny_graph):
        looping = FunctionalApp(
            "loop",
            init=lambda graph, source: {},
            edge_filter=lambda state, src, dst: np.ones(dst.size,
                                                        dtype=bool),
            max_iterations=3,
        )
        result = run_app(tiny_graph, looping, SageScheduler(), source=0)
        assert result.iterations <= 3

    def test_bad_filter_shape_rejected(self, tiny_graph):
        bad = FunctionalApp(
            "bad",
            init=lambda graph, source: {},
            edge_filter=lambda state, src, dst: np.ones(1, dtype=bool),
        )
        with pytest.raises(InvalidParameterError):
            run_app(tiny_graph, bad, SageScheduler(), source=0)

    def test_bad_init_rejected(self, tiny_graph):
        bad = FunctionalApp(
            "bad",
            init=lambda graph, source: None,
            edge_filter=lambda state, src, dst: np.zeros(dst.size,
                                                         dtype=bool),
        )
        with pytest.raises(InvalidParameterError):
            run_app(tiny_graph, bad, SageScheduler(), source=0)


class TestVarints:
    def test_roundtrip_known_values(self):
        vals = np.array([0, 1, 127, 128, 300, 16383, 16384, 2**28, 2**40])
        assert np.array_equal(_decode_varints(_encode_varints(vals)), vals)

    def test_single_byte_values_stay_single(self):
        assert _encode_varints(np.array([5])).size == 1
        assert _encode_varints(np.array([127])).size == 1
        assert _encode_varints(np.array([128])).size == 2

    def test_negative_rejected(self):
        from repro.errors import GraphFormatError
        with pytest.raises(GraphFormatError):
            _encode_varints(np.array([-1]))

    def test_empty(self):
        assert _encode_varints(np.array([], dtype=np.int64)).size == 0
        assert _decode_varints(np.array([], dtype=np.uint8)).size == 0


class TestCompressedGraph:
    @pytest.mark.parametrize("fixture", ["tiny_graph", "skewed_graph",
                                         "web_graph"])
    def test_roundtrip(self, fixture, request):
        graph = request.getfixturevalue(fixture)
        compressed = CompressedCSRGraph.from_csr(graph)
        back = compressed.to_csr()
        assert np.array_equal(back.offsets, graph.offsets)
        assert np.array_equal(back.targets, graph.targets)

    def test_neighbors_decode(self, tiny_graph):
        compressed = CompressedCSRGraph.from_csr(tiny_graph)
        for node in range(tiny_graph.num_nodes):
            assert np.array_equal(compressed.neighbors(node),
                                  tiny_graph.neighbors(node))

    def test_compression_helps_on_local_graphs(self, web_graph):
        compressed = CompressedCSRGraph.from_csr(web_graph)
        assert compressed.compression_ratio > 1.5

    def test_empty_graph(self):
        g = CSRGraph.from_edges(3, np.array([], dtype=int),
                                np.array([], dtype=int))
        compressed = CompressedCSRGraph.from_csr(g)
        assert compressed.compression_ratio == 1.0
        assert compressed.to_csr().num_edges == 0

    def test_traversal_on_compressed_image(self, skewed_graph):
        compressed = CompressedCSRGraph.from_csr(skewed_graph)
        sched = CompressedTraversalScheduler(SageScheduler(), compressed)
        result = run_app(skewed_graph, BFSApp(), sched, source=0)
        assert np.array_equal(result.result["dist"],
                              bfs_oracle(skewed_graph, 0))
        assert result.scheduler_name == "sage+tp+rts+compressed"

    def test_compressed_traversal_reduces_csr_traffic(self, skewed_graph):
        plain = run_app(skewed_graph, BFSApp(), SageScheduler(), source=0)
        compressed = CompressedCSRGraph.from_csr(skewed_graph)
        comp = run_app(
            skewed_graph, BFSApp(),
            CompressedTraversalScheduler(SageScheduler(), compressed),
            source=0,
        )
        assert comp.profiler.csr_sector_touches < \
            plain.profiler.csr_sector_touches

    def test_wrapped_scheduler_keeps_registry_and_sanitizer(self):
        def run(wrap):
            graph = gen.rmat(10, 8, seed=3)
            scheduler = SageScheduler()
            if wrap:
                scheduler = CompressedTraversalScheduler(
                    scheduler, CompressedCSRGraph.from_csr(graph))
            metrics, sanitizer = MetricsRegistry(), Sanitizer()
            calls = []
            check = sanitizer.check_work_units
            sanitizer.check_work_units = lambda *a: calls.append(a) or check(*a)
            run_app(graph, BFSApp(), scheduler, source=0, metrics=metrics,
                    sanitizer=sanitizer)
            counters = metrics.report()["counters"]
            return {k: v for k, v in counters.items()
                    if k.startswith("sage.")}, calls

        plain, plain_calls = run(wrap=False)
        wrapped, wrapped_calls = run(wrap=True)
        assert plain["sage.tiles"] > 0 and plain["sage.node_tables_built"] == 1
        assert wrapped == plain
        assert wrapped_calls == plain_calls != []


class TestTraceReplay:
    def test_report_fields(self, skewed_graph):
        report = replay_cache_trace(skewed_graph, BFSApp(), 0)
        assert report.accesses == report.hits + report.misses
        assert 0.0 <= report.hit_rate <= 1.0
        assert report.iterations > 0

    def test_bigger_cache_hits_more(self, skewed_graph):
        small = replay_cache_trace(skewed_graph, BFSApp(), 0,
                                   capacity_sectors=4)
        large = replay_cache_trace(skewed_graph, BFSApp(), 0,
                                   capacity_sectors=10_000)
        assert large.hit_rate >= small.hit_rate

    def test_reordering_improves_hit_rate(self):
        g = gen.power_law_configuration(
            500, 2.0, 12.0, seed=5, community_count=10,
            community_bias=0.9, scramble_ids=True,
        )
        from repro.reorder import gorder_order
        reordered = g.permute(gorder_order(g))
        spec = GPUSpec()
        base = replay_cache_trace(g, BFSApp(), 0, spec=spec,
                                  capacity_sectors=16)
        better = replay_cache_trace(
            reordered, BFSApp(), 0, spec=spec, capacity_sectors=16
        )
        assert better.hit_rate > base.hit_rate

    def test_zero_capacity_raises(self):
        # 0 is a capacity, not "unset": it must not fall back to the L2
        g = gen.rmat(8, 8, seed=3)
        with pytest.raises(InvalidParameterError):
            replay_cache_trace(g, BFSApp(), 0, capacity_sectors=0)
