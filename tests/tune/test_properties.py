"""Property: tuning moves cost, never answers.

Any point sampled from the default :class:`TuningSpace` must leave
every query result bit-identical to the direct single-query oracle (and
to the default configuration) across all four served apps — the knobs
may only change *when and how* work is scheduled, never *what* is
computed.  A companion test pins the converse: a known non-default
point does change the simulated metrics.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hybrid import direction_optimized_bfs
from repro.graph.generators import rmat
from repro.serve import (
    SINGLE_BROKER,
    QueryRequest,
    QueryStatus,
    open_loop_arrivals,
    run_direct,
    simulate_cluster_open_loop,
)
from repro.tune import DEFAULT_SPACE, CostModelEvaluator, TuningPoint
from tests.serve.conftest import assert_bit_identical

pytestmark = pytest.mark.tune

GRAPH = rmat(6, edge_factor=4, seed=17)
SOURCE = 3

REQUESTS = [
    QueryRequest(app="bfs", graph="g", source=1),
    QueryRequest(app="sssp", graph="g", source=5),
    QueryRequest(app="pr", graph="g", params={"max_iterations": 8}),
    QueryRequest(
        app="ppr", graph="g", source=2, params={"max_iterations": 8}
    ),
]
ARRIVALS = open_loop_arrivals(len(REQUESTS), 200.0, seed=0)

#: Oracle answers, computed once with the default scheduler.
ORACLE = [
    run_direct(GRAPH, request, TuningPoint().scheduler_factory()).result
    for request in REQUESTS
]


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_any_sampled_point_is_bit_identical_to_the_oracle(seed):
    point = DEFAULT_SPACE.sample(np.random.default_rng(seed))
    responses, _ = simulate_cluster_open_loop(
        {"g": GRAPH},
        REQUESTS,
        ARRIVALS,
        point.scheduler_factory(),
        batch_window=point.batch_window,
        max_batch_size=point.max_batch_size,
        **SINGLE_BROKER,
    )
    for request, response, oracle in zip(REQUESTS, responses, ORACLE):
        assert response.status is QueryStatus.OK
        assert_bit_identical(response.result, oracle, label=request.app)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_any_sampled_thresholds_leave_bfs_distances_exact(seed):
    point = DEFAULT_SPACE.sample(np.random.default_rng(seed))
    tuned, _ = direction_optimized_bfs(
        GRAPH, point.scheduler_factory(), SOURCE,
        config=point.hybrid_config(),
    )
    default, _ = direction_optimized_bfs(
        GRAPH, TuningPoint().scheduler_factory(), SOURCE,
    )
    assert tuned.result["dist"].dtype == default.result["dist"].dtype
    assert np.array_equal(tuned.result["dist"], default.result["dist"])


def test_a_non_default_point_does_move_the_metrics(tiny_workload):
    """The converse guard: knobs are not no-ops in the cost model."""
    evaluator = CostModelEvaluator(tiny_workload)
    default = evaluator.default()
    moved = evaluator.evaluate(
        TuningPoint(batch_window=0.2, min_tile=32, alpha=4.0)
    )
    assert moved.cost_seconds != default.cost_seconds
    assert moved.latency_p95 != default.latency_p95
