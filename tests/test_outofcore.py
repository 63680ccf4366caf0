"""Tests for the out-of-core subsystem (pool, layout, runners)."""

import numpy as np
import pytest

from repro.apps import BFSApp
from repro.errors import InvalidParameterError
from repro.graph import generators as gen
from repro.gpusim.spec import GPUSpec
from repro.outofcore import (
    OnDemandUMRunner,
    SageOutOfCoreRunner,
    SectorPool,
    SubwayRunner,
    contiguous_runs,
    layout_for,
)
from tests.conftest import bfs_oracle


class TestSectorPool:
    def test_cold_misses(self):
        pool = SectorPool(10, 100)
        missing = pool.access(np.array([1, 2, 3]))
        assert missing.tolist() == [1, 2, 3]
        assert pool.misses == 3

    def test_hits_on_resident(self):
        pool = SectorPool(10, 100)
        pool.access(np.array([1, 2]))
        missing = pool.access(np.array([1, 2, 3]))
        assert missing.tolist() == [3]
        assert pool.hits == 2

    def test_eviction_lru(self):
        pool = SectorPool(2, 100)
        pool.access(np.array([1]))
        pool.access(np.array([2]))
        pool.access(np.array([3]))  # evicts 1 (oldest)
        assert pool.resident_count == 2
        missing = pool.access(np.array([1]))
        assert missing.size == 1

    def test_duplicates_collapse(self):
        pool = SectorPool(10, 100)
        missing = pool.access(np.array([5, 5, 5]))
        assert missing.tolist() == [5]

    def test_out_of_range(self):
        pool = SectorPool(4, 10)
        with pytest.raises(InvalidParameterError):
            pool.access(np.array([10]))

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SectorPool(0, 10)

    def test_hits_and_misses(self):
        pool = SectorPool(10, 100)
        pool.access(np.array([1]))
        pool.access(np.array([1]))
        assert (pool.hits, pool.misses) == (1, 1)


class TestContiguousRuns:
    def test_counts_runs(self):
        assert contiguous_runs(np.array([1, 2, 3, 7, 8, 20])) == 3

    def test_empty(self):
        assert contiguous_runs(np.array([])) == 0

    def test_single(self):
        assert contiguous_runs(np.array([5])) == 1

    def test_unsorted_input(self):
        assert contiguous_runs(np.array([8, 1, 2, 7])) == 2


class TestLayout:
    def test_addressing(self, tiny_graph):
        layout = layout_for(tiny_graph, GPUSpec())
        assert layout.sector_width == 8
        assert layout.targets_sectors == 1  # 7 edges fit one sector
        ts = layout.target_sectors_of(np.array([0, 6]))
        assert ts.tolist() == [0, 0]


@pytest.mark.parametrize("runner_factory", [
    SubwayRunner, SageOutOfCoreRunner, OnDemandUMRunner,
])
class TestRunners:
    def test_bfs_correct(self, runner_factory, skewed_graph):
        runner = runner_factory()
        result = runner.run(skewed_graph, BFSApp(), 0)
        assert np.array_equal(result.result["dist"],
                              bfs_oracle(skewed_graph, 0))

    def test_transfer_accounting(self, runner_factory, skewed_graph):
        runner = runner_factory()
        result = runner.run(skewed_graph, BFSApp(), 0)
        assert result.extras["transfer_seconds"] > 0
        assert result.extras["bytes_transferred"] > 0
        assert result.extras["requests"] >= 1



class TestComparativeBehavior:
    def test_device_fraction_validation(self):
        with pytest.raises(InvalidParameterError):
            SageOutOfCoreRunner(device_fraction=0.0)

    def test_um_issues_most_requests(self, skewed_graph):
        um = OnDemandUMRunner()
        um_result = um.run(skewed_graph, BFSApp(), 0)
        subway = SubwayRunner()
        subway_result = subway.run(skewed_graph, BFSApp(), 0)
        assert um_result.extras["requests"] > subway_result.extras["requests"]

    def test_sage_merges_requests(self, skewed_graph):
        sage = SageOutOfCoreRunner(device_fraction=0.3)
        result = sage.run(skewed_graph, BFSApp(), 0)
        # far fewer requests than sectors fetched
        sectors = result.extras["bytes_transferred"] / 32
        assert result.extras["requests"] < sectors

    def test_smaller_pool_more_traffic(self):
        g = gen.power_law_configuration(800, 2.0, 20.0, seed=6)
        small = SageOutOfCoreRunner(device_fraction=0.05)
        large = SageOutOfCoreRunner(device_fraction=0.9)
        b_small = small.run(g, BFSApp(), 0).extras["bytes_transferred"]
        b_large = large.run(g, BFSApp(), 0).extras["bytes_transferred"]
        assert b_small >= b_large
