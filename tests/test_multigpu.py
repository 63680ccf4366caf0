"""Tests for partitioning and the multi-GPU runner."""

import dataclasses

import numpy as np
import pytest

from repro.apps import BFSApp, PageRankApp
from repro.baselines import GunrockScheduler
from repro.core import SageScheduler
from repro.errors import InvalidParameterError
from repro.graph import generators as gen
from repro.multigpu import (
    MultiGpuRunner,
    chunk_partition,
    edge_cut,
    metis_like,
    random_partition,
)
from repro.obs import MetricsRegistry
from tests.conftest import bfs_oracle, pagerank_oracle


@pytest.fixture(scope="module")
def community_graph():
    return gen.power_law_configuration(
        400, 2.1, 10.0, seed=8,
        community_count=8, community_bias=0.9,
    )


class TestPartitioners:
    def test_chunk_balanced(self):
        a = chunk_partition(10, 3)
        assert np.bincount(a, minlength=3).tolist() == [4, 4, 2]

    def test_random_balanced(self):
        a = random_partition(100, 4, seed=1)
        sizes = np.bincount(a, minlength=4)
        assert sizes.sum() == 100
        assert sizes.max() - sizes.min() <= 1

    def test_metis_covers_all(self, community_graph):
        a = metis_like(community_graph, 2)
        assert a.min() >= 0 and a.max() <= 1
        assert a.size == community_graph.num_nodes

    def test_metis_beats_random_cut(self, community_graph):
        metis_cut = edge_cut(community_graph, metis_like(community_graph, 2))
        random_cut = edge_cut(
            community_graph, random_partition(community_graph.num_nodes, 2)
        )
        assert metis_cut < random_cut

    def test_metis_edge_balance(self, community_graph):
        a = metis_like(community_graph, 2)
        degrees = community_graph.out_degrees()
        w0 = degrees[a == 0].sum()
        w1 = degrees[a == 1].sum()
        assert min(w0, w1) > 0.25 * (w0 + w1)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            chunk_partition(10, 0)
        with pytest.raises(InvalidParameterError):
            random_partition(5, 9)

    def test_edge_cut_single_part_is_zero(self, community_graph):
        a = chunk_partition(community_graph.num_nodes, 1)
        assert edge_cut(community_graph, a) == 0


class TestMultiGpuRunner:
    def test_bfs_correct_on_two_gpus(self, community_graph):
        runner = MultiGpuRunner(
            GunrockScheduler, chunk_partition(community_graph.num_nodes, 2)
        )
        result = runner.run(community_graph, BFSApp(), 0)
        assert np.array_equal(result.result["dist"],
                              bfs_oracle(community_graph, 0))

    def test_pr_correct_on_two_gpus(self, community_graph):
        runner = MultiGpuRunner(
            SageScheduler, metis_like(community_graph, 2)
        )
        result = runner.run(
            community_graph,
            PageRankApp(max_iterations=100, tolerance=1e-12),
        )
        assert np.allclose(result.result["pagerank"],
                           pagerank_oracle(community_graph), atol=1e-6)

    def test_single_gpu_has_no_comm(self, community_graph):
        runner = MultiGpuRunner(
            GunrockScheduler, chunk_partition(community_graph.num_nodes, 1),
            num_gpus=1,
        )
        result = runner.run(community_graph, BFSApp(), 0)
        assert result.extras["comm_seconds"] == 0.0
        assert result.extras["messages"] == 0.0

    def test_two_gpus_exchange_messages(self, community_graph):
        runner = MultiGpuRunner(
            GunrockScheduler, random_partition(community_graph.num_nodes, 2)
        )
        result = runner.run(community_graph, BFSApp(), 0)
        assert result.extras["messages"] > 0
        assert result.extras["comm_seconds"] > 0

    def test_metis_reduces_messages(self, community_graph):
        def messages(assignment):
            runner = MultiGpuRunner(GunrockScheduler, assignment)
            return runner.run(community_graph, BFSApp(), 0).extras["messages"]

        assert messages(metis_like(community_graph, 2)) <= \
            messages(random_partition(community_graph.num_nodes, 2))

    def test_async_mode_cheaper_sync(self, community_graph):
        chunks = chunk_partition(community_graph.num_nodes, 2)
        sync = MultiGpuRunner(GunrockScheduler, chunks).run(
            community_graph, BFSApp(), 0)
        async_ = MultiGpuRunner(GunrockScheduler, chunks,
                                async_mode=True).run(
            community_graph, BFSApp(), 0)
        assert async_.seconds <= sync.seconds

    def test_assignment_validation(self):
        with pytest.raises(InvalidParameterError):
            MultiGpuRunner(GunrockScheduler, np.array([0, 5]), num_gpus=2)
        with pytest.raises(InvalidParameterError):
            MultiGpuRunner(GunrockScheduler, np.array([0]), num_gpus=0)

    def test_name(self):
        runner = MultiGpuRunner(GunrockScheduler, np.zeros(4, dtype=int),
                                num_gpus=2)
        assert runner.name == "gunrock-x2"


class TestRepeatedRuns:
    """A reused runner reports each run on its own (fresh devices)."""

    def _runs(self, count):
        metrics = MetricsRegistry()
        graph = gen.rmat(9, 8, seed=0)
        runner = MultiGpuRunner(
            SageScheduler, chunk_partition(graph.num_nodes, 2), num_gpus=2,
            metrics=metrics,
        )
        snapshots, results = [], []
        for _ in range(count):
            # An equal but distinct graph object per run: node tables are
            # built (and counted) once per graph object.
            results.append(runner.run(gen.rmat(9, 8, seed=0), BFSApp(), 0))
            snapshots.append(dict(metrics.counters))
        return results, snapshots

    def test_profiler_totals_equal_across_runs(self):
        (first, second), _ = self._runs(2)
        assert dataclasses.asdict(second.profiler) == dataclasses.asdict(
            first.profiler
        )
        assert second.seconds == first.seconds

    def test_each_run_adds_its_own_counts_per_gpu(self):
        (first, _), (after_one, after_two) = self._runs(2)
        per_gpu = {
            k: v for k, v in after_one.items()
            if k.split(".", 1)[0] in ("gpu0", "gpu1")
        }
        assert sum(
            per_gpu[f"gpu{i}.gpusim.kernels"] for i in range(2)
        ) == first.profiler.kernels
        for key, value in per_gpu.items():
            assert after_two[key] == 2 * value, key
