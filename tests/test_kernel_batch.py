"""A run's kernels scored once, as one batch, equal each kernel scored.

``KernelBatch.of`` stacks :class:`KernelStats` rows and
``KernelBatch.row`` takes one back out,
``KernelCostModel.time_kernels`` scores a :class:`KernelBatch` in one
pass, ``Profiler.record_batch`` folds it, and ``Device.kernel_nodes``
makes its trace nodes.  Every row must equal the scalar formula
``time_kernel_reference``, bit for bit; scoring rows together must equal
scoring each as its own batch of one; and the rows
``KernelStats.validate`` rejects must fail the batch when it is scored.  A
``TraversalPipeline`` run, sanitized or not, and a direction-optimized
BFS score their kernels with one ``run_kernels`` call, and no runner
calls ``run_kernel``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.analysis import Sanitizer
from repro.apps import BFSApp
from repro.core import SageScheduler, TraversalPipeline
from repro.core.hybrid import direction_optimized_bfs
from repro.errors import SchedulingError
from repro.graph import generators
from repro.gpusim import Device, GPUSpec, KernelStats
from repro.gpusim.cost import KernelBatch, KernelCostModel
from tests.test_runner_golden import GOLDEN, RUNNERS, fingerprint

SPEC = GPUSpec()
#: a batch column for each KernelStats field
COLUMNS = [f.name for f in dataclasses.fields(KernelBatch)]
INTS = {
    "active_edges", "issued_lane_cycles", "value_sector_touches",
    "value_sector_unique", "csr_sector_touches",
}


@st.composite
def kernel_rows(draw):
    """One valid kernel's ``KernelStats``."""
    active = draw(st.integers(0, 10**6))
    issued = active + draw(st.integers(0, 10**5))
    touches = draw(st.integers(0, 10**6))
    # unique == 0, and unique both under and over the L2's sectors
    unique = draw(st.sampled_from([0, touches, min(touches, SPEC.l2_sectors)])
                  | st.integers(0, touches))
    return KernelStats(
        active_edges=active,
        issued_lane_cycles=issued,
        # an even placement, or any busiest SM
        busiest_lane_cycles=draw(st.sampled_from([issued / SPEC.num_sms])
                                 | st.floats(0, 1e6, allow_nan=False)),
        value_sector_touches=touches,
        value_sector_unique=unique,
        csr_sector_touches=draw(st.integers(0, 10**5)),
        # 0 (no hiding term), a few warps (shortfall > 1, and past the
        # full-stall cap) and a saturated device
        concurrency_warps=draw(st.sampled_from([0.0, 1.0, 3.0, 864.0])
                               | st.floats(0, 5e3, allow_nan=False)),
        overhead_cycles=draw(st.floats(0, 1e6, allow_nan=False)),
        extra_dram_bytes=draw(st.floats(0, 1e7, allow_nan=False)),
        # atomic apps report conflicts; the rest report 0.0
        atomic_conflicts=draw(st.sampled_from([0.0])
                              | st.floats(0, 1e4, allow_nan=False)),
        compute_scale=draw(st.sampled_from([1.0, 1.5, 2.0])),
    )


def batch_of(rows):
    columns = {}
    for name in COLUMNS:
        values = [getattr(stats, name) for stats in rows]
        dtype = np.int64 if name in INTS else np.float64
        columns[name] = np.array(values, dtype=dtype).reshape(len(rows))
    return KernelBatch(**columns)


def seeded_profiler():
    """A profiler with non-round running totals, so that a fold which
    summed in another order would show."""
    device = Device(SPEC)
    stats = KernelStats(active_edges=3, issued_lane_cycles=5,
                        busiest_lane_cycles=5 / SPEC.num_sms, atomic_conflicts=0.1)
    for _ in range(3):
        device.run_kernel(stats)
    return device.profiler


def row_of(batch, index):
    """Row ``index`` of a batch or of its timing, as a batch of one."""
    return dataclasses.replace(batch, **{
        column.name: getattr(batch, column.name)[index:index + 1]
        for column in dataclasses.fields(batch)
        if np.ndim(getattr(batch, column.name))
    })


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(kernel_rows(), min_size=0, max_size=12))
def test_columns_equal_each_row(rows):
    batch = batch_of(rows)
    stacked = KernelBatch.of(rows)
    for column in COLUMNS:
        np.testing.assert_array_equal(getattr(stacked, column), getattr(batch, column))
        assert getattr(stacked, column).dtype == getattr(batch, column).dtype
    # a row taken back out is the stats it was stacked from
    assert [batch.row(index) for index in range(len(rows))] == rows
    model = KernelCostModel(SPEC)
    got = model.time_kernels(batch)
    for index, stats in enumerate(rows):
        want = model.time_kernel_reference(stats)
        assert got.cycles[index] == want.cycles
        assert got.compute_cycles[index] == want.compute_cycles
        assert got.memory_cycles[index] == want.memory_cycles
        assert got.overhead_cycles[index] == want.overhead_cycles
        assert got.launch_cycles == want.launch_cycles
        assert got.dram_bytes[index] == want.dram_bytes
        assert bool(got.memory_bound[index]) == (want.bound == "memory")

    # scored once, or each kernel as its own batch of one
    rowwise, batched = Device(SPEC), Device(SPEC)
    rowwise.profiler = seeded_profiler()
    batched.profiler = seeded_profiler()
    iterations = list(range(7, 7 + len(rows)))
    want_nodes = [
        node
        for stats, iteration in zip(rows, iterations)
        for node in rowwise.kernel_nodes(rowwise.run_kernel(stats), [iteration])
    ]
    assert batched.kernel_nodes(batched.run_kernels(batch), iterations) == want_nodes
    assert batched.profiler == rowwise.profiler


@settings(max_examples=20, deadline=None)
@given(parts=st.lists(st.lists(kernel_rows(), min_size=1, max_size=4),
                      min_size=1, max_size=4))
def test_concat_equals_stacking_every_row(parts):
    batches = [KernelBatch.of(part) for part in parts]
    every_row = KernelBatch.of([stats for part in parts for stats in part])
    joined = KernelBatch.concat(batches)
    for column in COLUMNS:
        np.testing.assert_array_equal(getattr(joined, column), getattr(every_row, column))
        assert getattr(joined, column).dtype == getattr(every_row, column).dtype


def test_many_random_rows_equal_each_row():
    # a dense sample: some float reorderings differ from the scalar
    # path on under 1 % of inputs, too rarely for the property above
    rng = np.random.default_rng(26)
    rows = 3000
    active = rng.integers(0, 10**6, rows)
    issued = active + rng.integers(0, 10**4, rows)
    touches = rng.integers(0, 10**6, rows)
    unique = (touches * rng.random(rows)).astype(np.int64)
    unique[::7] = 0
    batch = KernelBatch(
        active_edges=active,
        issued_lane_cycles=issued,
        busiest_lane_cycles=issued / SPEC.num_sms,
        value_sector_touches=touches,
        value_sector_unique=unique,
        csr_sector_touches=rng.integers(0, 10**5, rows),
        concurrency_warps=np.maximum(1.0, rng.random(rows) * 2000),
        overhead_cycles=rng.random(rows) * 1e5,
        extra_dram_bytes=rng.random(rows) * 1e6,
        atomic_conflicts=np.where(rng.random(rows) < 0.5, 0.0, rng.random(rows) * 100),
        compute_scale=rng.choice([1.0, 1.5, 2.0], rows),
    )
    model = KernelCostModel(SPEC)
    got = model.time_kernels(batch)
    for index in range(rows):
        want = model.time_kernel_reference(batch.row(index))
        assert got.cycles[index] == want.cycles, index
        assert got.memory_cycles[index] == want.memory_cycles, index
        assert got.compute_cycles[index] == want.compute_cycles, index


def test_rows_hit_every_branch():
    # the property's edge cases, pinned: no value sectors, no edges, an
    # exposed-latency row past the stall cap and an atomic row
    rows = [
        KernelStats(active_edges=10, issued_lane_cycles=10,
                    busiest_lane_cycles=10 / SPEC.num_sms,
                    value_sector_touches=5, value_sector_unique=0,
                    concurrency_warps=2000.0),
        KernelStats(concurrency_warps=1.0),
        KernelStats(active_edges=300, issued_lane_cycles=300,
                    busiest_lane_cycles=300 / SPEC.num_sms,
                    value_sector_touches=900, value_sector_unique=400,
                    concurrency_warps=1.0),
        KernelStats(active_edges=64, issued_lane_cycles=96,
                    busiest_lane_cycles=96 / SPEC.num_sms,
                    value_sector_touches=40, value_sector_unique=30,
                    concurrency_warps=16.0, atomic_conflicts=0.7,
                    compute_scale=1.5),
    ]
    model = KernelCostModel(SPEC)
    got = model.time_kernels(batch_of(rows))
    want = [model.time_kernel_reference(stats) for stats in rows]
    np.testing.assert_array_equal(got.cycles, [w.cycles for w in want])
    np.testing.assert_array_equal(got.memory_cycles, [w.memory_cycles for w in want])
    assert want[2].memory_cycles > 0 and got.memory_bound[2]


@pytest.mark.parametrize(
    "field, value",
    [
        ("issued_lane_cycles", 9),       # issued lanes < active edges
        ("value_sector_unique", 41),     # unique sectors > touches
    ],
)
def test_one_invalid_row_fails_the_batch(field, value):
    good = KernelStats(active_edges=10, issued_lane_cycles=10,
                       busiest_lane_cycles=10 / SPEC.num_sms,
                       value_sector_touches=40, value_sector_unique=20,
                       concurrency_warps=8.0)
    bad = dataclasses.replace(good, **{field: value})
    with pytest.raises(SchedulingError):
        KernelCostModel(SPEC).time_kernel_reference(bad)
    with pytest.raises(SchedulingError):
        Device(SPEC).run_kernel(bad)
    for batch in (KernelBatch.of([good, bad, good]), batch_of([good, bad, good])):
        with pytest.raises(SchedulingError, match="row 1"):
            KernelCostModel(SPEC).time_kernels(batch)


def test_a_short_column_fails_the_batch():
    stats = KernelStats(active_edges=1, issued_lane_cycles=1)
    batch = batch_of([stats, stats])
    batch.overhead_cycles = batch.overhead_cycles[:1]
    with pytest.raises(SchedulingError, match="overhead_cycles"):
        KernelCostModel(SPEC).time_kernels(batch)


def test_fold_equals_sequential_records():
    # float counters that a pairwise or reordered sum would round apart
    cycles = [1e16, 1.0, 1.0, -1e16, 0.1, 0.2, 0.3, 3.3e-7]
    rows = [
        KernelStats(active_edges=i, issued_lane_cycles=i + 1,
                    value_sector_touches=2 * i, csr_sector_touches=i,
                    atomic_conflicts=c / 7.0)
        for i, c in enumerate(cycles)
    ]
    batch = batch_of(rows)
    timing = KernelCostModel(SPEC).time_kernels(batch)
    timing = dataclasses.replace(
        timing,
        cycles=np.array(cycles),
        dram_bytes=np.array(cycles[::-1]),
        memory_bound=np.arange(len(cycles)) % 3 == 0,
    )
    # the += chain, row by row: one add per counter per row
    want = seeded_profiler()
    for index, stats in enumerate(rows):
        want.kernels += 1
        for name, column in (
            ("total_cycles", timing.cycles), ("compute_cycles", timing.compute_cycles),
            ("memory_cycles", timing.memory_cycles),
            ("overhead_cycles", timing.overhead_cycles),
            ("dram_bytes", timing.dram_bytes),
        ):
            setattr(want, name, getattr(want, name) + float(column[index]))
        want.launch_cycles += timing.launch_cycles
        want.atomic_conflicts += stats.atomic_conflicts
        want.active_edges += stats.active_edges
        want.issued_lane_cycles += stats.issued_lane_cycles
        want.value_sector_touches += stats.value_sector_touches
        want.csr_sector_touches += stats.csr_sector_touches
        want.memory_bound_kernels += bool(timing.memory_bound[index])
    got = seeded_profiler()
    got.record_batch(batch, timing)
    assert got == want
    split = seeded_profiler()
    for index in range(len(rows)):
        split.record_batch(row_of(batch, index), row_of(timing, index))
    assert split == want


GRAPH = generators.rmat(8, 8, seed=3)


def _sampling_reorder():
    return SageScheduler(sampling_reorder=True, reorder_threshold_edges=256)


def test_a_sanitized_run_is_scored_like_any_other():
    sanitizer = Sanitizer()
    plain = TraversalPipeline(GRAPH, _sampling_reorder()).run(BFSApp(), 0)
    checked = TraversalPipeline(GRAPH, _sampling_reorder(), sanitizer=sanitizer).run(
        BFSApp(), 0
    )
    assert plain.reorder_commits > 0
    assert checked.node_trace == plain.node_trace
    assert checked.seconds == plain.seconds
    assert checked.profiler == plain.profiler
    # each kernel scored, levels plus commits, was audited once
    assert sanitizer.kernels_checked == checked.profiler.kernels == (
        checked.iterations + checked.reorder_commits
    )
    assert sanitizer.clean


def test_a_run_is_scored_with_one_run_kernels_call(monkeypatch):
    calls = []
    run_kernels = Device.run_kernels

    def spy(device, batch):
        calls.append(len(batch))
        return run_kernels(device, batch)

    monkeypatch.setattr(Device, "run_kernels", spy)
    pipeline = TraversalPipeline(GRAPH, _sampling_reorder())
    runs = [pipeline.run(BFSApp(), source) for source in (0, 7, 100)]
    assert len(calls) == len(runs)
    for rows, run in zip(calls, runs):
        assert rows == run.iterations + run.reorder_commits == len(run.node_trace)
    calls.clear()
    api.run(GRAPH, "pr", scheduler="gunrock")
    assert len(calls) == 1
    calls.clear()
    result, _ = direction_optimized_bfs(GRAPH, SageScheduler, 0)
    assert calls == [result.iterations]


@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_no_runner_calls_run_kernel(monkeypatch, runner):
    """Every runner scores its kernels with ``run_kernels``, and its BFS
    still reads its pin."""

    def refuse(device, stats):
        raise AssertionError("Device.run_kernel called")

    monkeypatch.setattr(Device, "run_kernel", refuse)
    assert fingerprint(runner, "bfs") == GOLDEN[runner, "bfs"]
