"""A queue of kernels priced as columns equals pricing each kernel.

``KernelCostModel.time_kernels`` scores a :class:`KernelBatch` in one
pass, ``Profiler.record_batch`` folds it, and ``Device.kernel_nodes``
makes its trace nodes.  Each must equal ``time_kernel``, ``record`` and
``kernel_node`` applied row by row, bit for bit, and reject the rows
``KernelStats.validate`` rejects.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.gpusim import Device, GPUSpec, KernelStats, Profiler
from repro.gpusim.cost import KernelBatch, KernelCostModel, KernelTiming

SPEC = GPUSpec()
#: a batch column for each KernelStats field, except the placement
COLUMNS = [f.name for f in dataclasses.fields(KernelBatch)]
INTS = {
    "active_edges", "issued_lane_cycles", "value_sector_touches",
    "value_sector_unique", "csr_sector_touches",
}


@st.composite
def kernel_rows(draw):
    """One valid kernel: its ``KernelStats`` and its batch row."""
    active = draw(st.integers(0, 10**6))
    issued = active + draw(st.integers(0, 10**5))
    touches = draw(st.integers(0, 10**6))
    # unique == 0, and unique both under and over the L2's sectors
    unique = draw(st.sampled_from([0, touches, min(touches, SPEC.l2_sectors)])
                  | st.integers(0, touches))
    placement = draw(st.sampled_from(["even", "skewed", "none"]))
    if placement == "even":
        per_sm = np.full(SPEC.num_sms, issued / SPEC.num_sms)
    elif placement == "skewed":
        per_sm = np.array(draw(st.lists(
            st.floats(0, 1e6, allow_nan=False), min_size=SPEC.num_sms,
            max_size=SPEC.num_sms,
        )))
    else:
        per_sm = np.zeros(0)
    stats = KernelStats(
        active_edges=active,
        issued_lane_cycles=issued,
        per_sm_lane_cycles=per_sm,
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
    busiest = (
        float(per_sm.max()) if per_sm.size else issued / max(1, SPEC.num_sms)
    )
    return stats, busiest


def batch_of(rows):
    columns = {}
    for name in COLUMNS:
        if name == "busiest_lane_cycles":
            values = [busiest for _, busiest in rows]
        else:
            values = [getattr(stats, name) for stats, _ in rows]
        dtype = np.int64 if name in INTS else np.float64
        columns[name] = np.array(values, dtype=dtype).reshape(len(rows))
    return KernelBatch(**columns)


def seeded_profiler():
    """A profiler with non-round running totals, so that a fold which
    summed in another order would show."""
    profiler = Profiler()
    stats = KernelStats(active_edges=3, issued_lane_cycles=5, atomic_conflicts=0.1)
    timing = KernelCostModel(SPEC).time_kernel(stats)
    for _ in range(3):
        profiler.record(stats, timing)
    return profiler


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(kernel_rows(), min_size=0, max_size=12))
def test_columns_equal_each_row(rows):
    batch = batch_of(rows)
    model = KernelCostModel(SPEC)
    got = model.time_kernels(batch)
    for index, (stats, _) in enumerate(rows):
        want = model.time_kernel(stats)
        assert got.cycles[index] == want.cycles
        assert got.compute_cycles[index] == want.compute_cycles
        assert got.memory_cycles[index] == want.memory_cycles
        assert got.overhead_cycles[index] == want.overhead_cycles
        assert got.launch_cycles == want.launch_cycles
        assert got.dram_bytes[index] == want.dram_bytes
        assert bool(got.memory_bound[index]) == (want.bound == "memory")

    rowwise, batched = Device(SPEC), Device(SPEC)
    rowwise.profiler = seeded_profiler()
    batched.profiler = seeded_profiler()
    iterations = list(range(7, 7 + len(rows)))
    want_nodes = [
        rowwise.kernel_node(rowwise.run_kernel(stats), iteration)
        for (stats, _), iteration in zip(rows, iterations)
    ]
    assert batched.kernel_nodes(batched.run_kernels(batch), iterations) == want_nodes
    assert batched.profiler == rowwise.profiler


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
        want = model.time_kernel(KernelStats(
            active_edges=int(active[index]),
            issued_lane_cycles=int(issued[index]),
            value_sector_touches=int(touches[index]),
            value_sector_unique=int(unique[index]),
            csr_sector_touches=int(batch.csr_sector_touches[index]),
            concurrency_warps=float(batch.concurrency_warps[index]),
            overhead_cycles=float(batch.overhead_cycles[index]),
            extra_dram_bytes=float(batch.extra_dram_bytes[index]),
            atomic_conflicts=float(batch.atomic_conflicts[index]),
            compute_scale=float(batch.compute_scale[index]),
        ))
        assert got.cycles[index] == want.cycles, index
        assert got.memory_cycles[index] == want.memory_cycles, index
        assert got.compute_cycles[index] == want.compute_cycles, index


def test_rows_hit_every_branch():
    # the property's edge cases, pinned: no value sectors, no edges, an
    # exposed-latency row past the stall cap and an atomic row
    rows = [
        (KernelStats(active_edges=10, issued_lane_cycles=10,
                     value_sector_touches=5, value_sector_unique=0,
                     concurrency_warps=2000.0), 10 / SPEC.num_sms),
        (KernelStats(concurrency_warps=1.0), 0.0),
        (KernelStats(active_edges=300, issued_lane_cycles=300,
                     value_sector_touches=900, value_sector_unique=400,
                     concurrency_warps=1.0), 300 / SPEC.num_sms),
        (KernelStats(active_edges=64, issued_lane_cycles=96,
                     value_sector_touches=40, value_sector_unique=30,
                     concurrency_warps=16.0, atomic_conflicts=0.7,
                     compute_scale=1.5), 96 / SPEC.num_sms),
    ]
    model = KernelCostModel(SPEC)
    got = model.time_kernels(batch_of(rows))
    want = [model.time_kernel(stats) for stats, _ in rows]
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
                       value_sector_touches=40, value_sector_unique=20,
                       concurrency_warps=8.0)
    bad = dataclasses.replace(good, **{field: value})
    model = KernelCostModel(SPEC)
    with pytest.raises(SchedulingError):
        model.time_kernel(bad)
    batch = batch_of([(good, 10 / SPEC.num_sms), (bad, 10 / SPEC.num_sms),
                      (good, 10 / SPEC.num_sms)])
    with pytest.raises(SchedulingError, match="row 1"):
        model.time_kernels(batch)


def test_a_short_column_fails_the_batch():
    stats = KernelStats(active_edges=1, issued_lane_cycles=1)
    batch = batch_of([(stats, 1.0), (stats, 1.0)])
    batch.overhead_cycles = batch.overhead_cycles[:1]
    with pytest.raises(SchedulingError, match="overhead_cycles"):
        KernelCostModel(SPEC).time_kernels(batch)


def test_fold_equals_sequential_records():
    # float counters that a pairwise or reordered sum would round apart
    cycles = [1e16, 1.0, 1.0, -1e16, 0.1, 0.2, 0.3, 3.3e-7]
    rows = [
        (KernelStats(active_edges=i, issued_lane_cycles=i + 1,
                     value_sector_touches=2 * i, csr_sector_touches=i,
                     atomic_conflicts=c / 7.0), 0.0)
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
    want = seeded_profiler()
    for index, (stats, _) in enumerate(rows):
        want.record(stats, _row_timing(timing, index))
    got = seeded_profiler()
    got.record_batch(batch, timing)
    assert got == want


def _row_timing(timing, index):
    return KernelTiming(
        cycles=float(timing.cycles[index]),
        compute_cycles=float(timing.compute_cycles[index]),
        memory_cycles=float(timing.memory_cycles[index]),
        overhead_cycles=float(timing.overhead_cycles[index]),
        launch_cycles=timing.launch_cycles,
        dram_bytes=float(timing.dram_bytes[index]),
        bound="memory" if timing.memory_bound[index] else "compute",
    )


def test_a_sanitized_device_takes_kernels_one_at_a_time():
    from repro.analysis import Sanitizer

    device = Device(SPEC, sanitizer=Sanitizer())
    stats = KernelStats(active_edges=1, issued_lane_cycles=1)
    with pytest.raises(ValueError):
        device.run_kernels(batch_of([(stats, 1.0)]))
