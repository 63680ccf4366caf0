"""Tests for the discrete-event makespan simulator — and the executable
validation of the analytic cost model's placement assumptions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tiling import decompose_frontier
from repro.errors import InvalidParameterError
from repro.gpusim.events import (
    CYCLES_PER_EDGE,
    MakespanSimulator,
    Task,
    tasks_from_decomposition,
)


def uniform_tasks(n, duration=10.0, blocks=8):
    return [Task(duration, i % blocks) for i in range(n)]


class TestSimulatorBasics:
    def test_empty(self):
        sim = MakespanSimulator(4)
        report = sim.simulate([], stealing=True)
        assert report.makespan_cycles == 0.0

    def test_single_task(self):
        sim = MakespanSimulator(4, slots_per_sm=2)
        report = sim.simulate([Task(7.0, 0)], stealing=False)
        assert report.makespan_cycles == 7.0
        assert report.per_sm_busy_cycles[0] == 7.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            MakespanSimulator(0)

    def test_steal_counting(self):
        sim = MakespanSimulator(2, slots_per_sm=1)
        # four tasks all owned by block 0 (-> SM 0): with stealing, SM 1
        # must take some
        report = sim.simulate([Task(5.0, 0)] * 4, stealing=True)
        assert report.steals >= 1
        no_steal = sim.simulate([Task(5.0, 0)] * 4, stealing=False)
        assert no_steal.steals == 0


class TestPlacementRegimes:
    def test_owner_placement_bottlenecked_by_heavy_block(self):
        sim = MakespanSimulator(4, slots_per_sm=1)
        # one block owns 10x the work
        tasks = [Task(1.0, b) for b in (1, 2, 3)] + [Task(10.0, 0)]
        owner = sim.simulate(tasks, stealing=False)
        assert owner.makespan_cycles == 10.0
        assert owner.imbalance > 2.0

    def test_stealing_is_work_conserving(self):
        sim = MakespanSimulator(4, slots_per_sm=1)
        tasks = [Task(1.0, 0) for _ in range(40)]  # all owned by SM 0
        owner = sim.simulate(tasks, stealing=False)
        stolen = sim.simulate(tasks, stealing=True)
        assert owner.makespan_cycles == pytest.approx(40.0)
        assert stolen.makespan_cycles == pytest.approx(10.0)

    @given(
        st.lists(st.tuples(st.floats(0.1, 20.0), st.integers(0, 15)),
                 min_size=1, max_size=60),
        st.integers(1, 8),
        st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_stealing_within_graham_bound(self, raw, num_sms, slots):
        """Greedy stealing obeys Graham's list-scheduling guarantee.

        (It is NOT always <= a lucky static partition — classic
        scheduling anomaly — but it is always work-conserving:
        makespan <= total/servers + longest task.)"""
        tasks = [Task(d, b) for d, b in raw]
        sim = MakespanSimulator(num_sms, slots_per_sm=slots)
        stolen = sim.simulate(tasks, stealing=True)
        servers = num_sms * slots
        total = sum(t.duration_cycles for t in tasks)
        longest = max(t.duration_cycles for t in tasks)
        assert stolen.makespan_cycles <= total / servers + longest + 1e-9
        # and it can never beat the work-conserving lower bound
        assert stolen.makespan_cycles >= max(
            longest, total / servers) - 1e-9

    @given(
        st.lists(st.floats(0.5, 10.0), min_size=8, max_size=60),
        st.integers(2, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_stealing_near_lower_bound(self, durations, num_sms):
        """Work conservation: makespan <= total/servers + max task."""
        tasks = [Task(d, 0) for d in durations]
        sim = MakespanSimulator(num_sms, slots_per_sm=1)
        report = sim.simulate(tasks, stealing=True)
        lower = sum(durations) / num_sms
        assert report.makespan_cycles <= lower + max(durations) + 1e-9

    def test_busy_cycles_conserved(self):
        tasks = uniform_tasks(37, duration=3.0)
        sim = MakespanSimulator(6, slots_per_sm=2)
        for stealing in (True, False):
            report = sim.simulate(tasks, stealing=stealing)
            assert report.per_sm_busy_cycles.sum() == pytest.approx(
                37 * 3.0
            )


class TestCostModelValidation:
    """The analytic placement rules must match simulated makespans."""

    def test_block_placement_matches_owner_simulation(self):
        from repro.gpusim.cost import block_placement
        rng = np.random.default_rng(3)
        per_block = rng.integers(1, 200, size=24).astype(float)
        num_sms = 8
        tasks = [Task(float(w), b) for b, w in enumerate(per_block)]
        sim = MakespanSimulator(num_sms, slots_per_sm=1)
        report = sim.simulate(tasks, stealing=False)
        analytic = block_placement(per_block, num_sms).max()
        assert report.makespan_cycles == pytest.approx(analytic)

    def test_even_placement_matches_stealing_simulation(self):
        rng = np.random.default_rng(4)
        durations = rng.uniform(1.0, 3.0, size=400)
        tasks = [Task(float(d), i % 16) for i, d in enumerate(durations)]
        sim = MakespanSimulator(8, slots_per_sm=4)
        report = sim.simulate(tasks, stealing=True)
        even = durations.sum() / (8 * 4)
        # within one max-task granule of the work-conserving bound
        assert report.makespan_cycles <= even + durations.max() + 1e-9
        assert report.makespan_cycles >= even - 1e-9


class TestDecompositionTasks:
    def test_tasks_cover_edges(self):
        degrees = np.array([500, 3, 77, 0, 1000])
        decomp = decompose_frontier(degrees, 256, 8)
        tasks = tasks_from_decomposition(decomp)
        assert sum(t.duration_cycles for t in tasks) == pytest.approx(
            CYCLES_PER_EDGE * degrees.sum()
        )

    def test_skewed_frontier_benefits_from_stealing(self):
        rng = np.random.default_rng(5)
        degrees = rng.zipf(1.7, size=2000).astype(np.int64)
        degrees = np.minimum(degrees, 5000)
        decomp = decompose_frontier(degrees, 256, 8)
        tasks = tasks_from_decomposition(decomp)
        sim = MakespanSimulator(16, slots_per_sm=4)
        owner = sim.simulate(tasks, stealing=False)
        stolen = sim.simulate(tasks, stealing=True)
        assert stolen.makespan_cycles < owner.makespan_cycles
        assert stolen.imbalance < owner.imbalance
