"""``distinct_counts`` gives each kernel's distinct sectors and addresses.

One pass over a queue of kernels, through a boolean node mask or, for a
queue with few edges per id, one sort, must give exactly what
``np.unique`` gives per kernel: the distinct ids and the distinct
``id // sector_width``.  Both branches are forced by setting
``SORT_COUNT_SHARE`` to 0 (never sort) and to infinity (always sort),
and also reached with the measured constant.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import kernel_distinct_counts
from repro.gpusim import memory
from repro.gpusim.memory import distinct_counts

WIDTHS = [1, 2, 3, 4, 8, 16]
SHARES = {"mask": 0.0, "sort": float("inf"), "measured": memory.SORT_COUNT_SHARE}


def unique_counts(batches, width):
    """The oracle: ``np.unique`` sizes of each batch's sectors and ids."""
    return (
        [np.unique(np.asarray(b) // width).size for b in batches],
        [np.unique(b).size for b in batches],
    )


def counted(batches, num_nodes, width, share):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(memory, "SORT_COUNT_SHARE", share)
        sectors, addresses = distinct_counts(batches, num_nodes, width)
    assert sectors.dtype == addresses.dtype == np.int64
    assert sectors.shape == addresses.shape == (len(batches),)
    return sectors.tolist(), addresses.tolist()


@st.composite
def queues(draw):
    """|V|, a width, and 1-6 batches of ids below |V|: some empty, some
    holding |V| - 1, some drawn from a few ids so duplicates pile up."""
    num_nodes = draw(st.integers(1, 300), label="num_nodes")
    width = draw(st.sampled_from(WIDTHS), label="width")
    batches = []
    for _ in range(draw(st.integers(1, 6), label="levels")):
        pool = draw(
            st.sampled_from(["any", "few", "last"]), label="pool"
        )
        hi = {"any": num_nodes - 1, "few": min(3, num_nodes - 1)}.get(pool, 0)
        ids = draw(st.lists(st.integers(0, hi), max_size=60), label="ids")
        batch = np.asarray(ids, dtype=np.int64)
        if pool == "last":  # every id is |V| - 1
            batch = np.full(batch.size, num_nodes - 1, dtype=np.int64)
        batches.append(batch)
    return num_nodes, width, batches


@pytest.mark.parametrize("branch", sorted(SHARES))
@settings(max_examples=150, deadline=None)
@given(case=queues())
def test_queue_matches_unique(branch, case):
    num_nodes, width, batches = case
    want = unique_counts(batches, width)
    assert counted(batches, num_nodes, width, SHARES[branch]) == want
    for batch in batches:  # one kernel alone
        assert counted([batch], num_nodes, width, SHARES[branch]) == unique_counts(
            [batch], width
        )


@pytest.mark.parametrize("branch", sorted(SHARES))
@pytest.mark.parametrize("width", WIDTHS)
class TestShapes:
    def test_empty_kernel(self, branch, width):
        empty = np.empty(0, dtype=np.int64)
        assert counted([empty], 10, width, SHARES[branch]) == ([0], [0])
        assert counted([empty, empty], 10, width, SHARES[branch]) == ([0, 0], [0, 0])

    def test_span_not_a_multiple_of_width(self, branch, width):
        # |V| = 4w + 1: the last sector holds one id, and the next
        # kernel's first sector starts at the rounded-up span, not at |V|.
        num_nodes = 4 * width + 1
        batches = [
            np.array([num_nodes - 1, 0], dtype=np.int64),
            np.array([0, 1, num_nodes - 1], dtype=np.int64),
            np.array([num_nodes - 1] * 5, dtype=np.int64),
        ]
        assert counted(batches, num_nodes, width, SHARES[branch]) == unique_counts(
            batches, width
        )

    def test_heavy_duplicates(self, branch, width):
        rng = np.random.default_rng(width)
        batches = [rng.integers(0, 5, 2000), np.full(500, 7, dtype=np.int64)]
        assert counted(batches, 50, width, SHARES[branch]) == unique_counts(
            batches, width
        )

    def test_int32_ids(self, branch, width):
        batches = [np.array([9, 3, 3, 7, 0, 9], dtype=np.int32)] * 2
        assert counted(batches, 10, width, SHARES[branch]) == unique_counts(
            batches, width
        )


def test_measured_constant_takes_both_branches(monkeypatch):
    """A queue sparse in its mask sorts; a dense one marks the mask."""
    calls = []
    sort = memory._sorted_distinct_counts
    monkeypatch.setattr(
        memory, "_sorted_distinct_counts", lambda *a: calls.append(1) or sort(*a)
    )
    rng = np.random.default_rng(0)
    sparse = [rng.integers(0, 4096, 10)]
    dense = [rng.integers(0, 64, 200)]
    assert counted(sparse, 4096, 8, memory.SORT_COUNT_SHARE) == unique_counts(sparse, 8)
    assert calls == [1]
    assert counted(dense, 64, 8, memory.SORT_COUNT_SHARE) == unique_counts(dense, 8)
    assert calls == [1]


@pytest.mark.parametrize("width", WIDTHS)
def test_kernel_distinct_counts_are_two_python_ints(width, monkeypatch):
    calls = []
    count = memory.distinct_counts
    monkeypatch.setattr(
        "repro.core.scheduler.distinct_counts",
        lambda *a: calls.append(1) or count(*a),
    )
    edge_dst = np.random.default_rng(width).integers(0, 97, 400)
    sectors, addresses = unique_counts([edge_dst], width)
    counts = kernel_distinct_counts(edge_dst, width, 97)
    assert counts == (sectors[0], addresses[0])
    assert calls == [1]  # both from one pass
    # KernelStats fields are hashed by repr(): a numpy scalar would show
    assert [type(c) for c in counts] == [int, int]
    assert kernel_distinct_counts(edge_dst[:0], width, 97) == (0, 0)
