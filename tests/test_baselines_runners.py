"""Tests for the Ligra CPU runner and baseline-specific behaviours."""

import numpy as np

from repro.apps import BFSApp, PageRankApp
from repro.baselines import LigraRunner
from repro.baselines.ligra import DENSE_THRESHOLD
from repro.core import SageScheduler, run_app
from repro.graph import generators as gen
from repro.gpusim.spec import CPUSpec
from tests.conftest import bfs_oracle, pagerank_oracle


class TestLigra:
    def test_bfs_correct(self, skewed_graph):
        result = LigraRunner().run(skewed_graph, BFSApp(), 0)
        assert np.array_equal(result.result["dist"],
                              bfs_oracle(skewed_graph, 0))

    def test_pr_correct(self, skewed_graph):
        result = LigraRunner().run(
            skewed_graph, PageRankApp(max_iterations=100, tolerance=1e-12)
        )
        assert np.allclose(result.result["pagerank"],
                           pagerank_oracle(skewed_graph), atol=1e-6)

    def test_slower_than_gpu_at_scale(self):
        g = gen.power_law_configuration(3000, 2.0, 25.0, seed=2)
        cpu = LigraRunner().run(g, BFSApp(), 0)
        gpu = run_app(g, BFSApp(), SageScheduler(), source=0)
        assert cpu.seconds > gpu.seconds

    def test_dense_mode_discount(self):
        runner = LigraRunner(CPUSpec())
        total = 1000
        sparse = runner._iteration_seconds(
            int(total * DENSE_THRESHOLD * 0.5), total
        )
        dense = runner._iteration_seconds(
            int(total * DENSE_THRESHOLD * 2.5), total
        )
        # dense processes 5x the edges but pays less than 5x
        assert dense < 5 * sparse

    def test_scheduler_name(self, tiny_graph):
        result = LigraRunner().run(tiny_graph, BFSApp(), 0)
        assert result.scheduler_name == "ligra"
