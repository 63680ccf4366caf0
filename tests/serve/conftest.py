"""Shared fixtures for the serving-layer test suite.

The central helper is :func:`assert_bit_identical`, which pins the
serving contract: every ``OK`` response is *bit-for-bit* equal to the
direct single-query ``run_app`` oracle — same keys, same dtypes, same
bytes.  Anything weaker (allclose, reordered keys) would let the
batched path drift from the paper's single-query semantics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SageScheduler
from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.serve import QueryResponse, QueryStatus, run_direct


@pytest.fixture(scope="package")
def serve_graph() -> CSRGraph:
    """A small R-MAT graph shared by the serving tests (read-only)."""
    return generators.rmat(7, edge_factor=8, seed=11)


@pytest.fixture(scope="package")
def second_graph() -> CSRGraph:
    """A second handle so tests can exercise per-graph batching."""
    return generators.rmat(6, edge_factor=6, seed=23)


def scheduler_factory() -> SageScheduler:
    return SageScheduler()


def assert_bit_identical(result, oracle_result, label="") -> None:
    """`result` must match the oracle dict bit-for-bit."""
    assert set(result) == set(oracle_result), label
    for key, want in oracle_result.items():
        want = np.asarray(want)
        got = np.asarray(result[key])
        assert got.dtype == want.dtype, f"{label}:{key} dtype"
        assert np.array_equal(got, want), f"{label}:{key} values"


def assert_response_sound(
    response: QueryResponse, graph: CSRGraph, request
) -> None:
    """The one safety property every path must satisfy: a response is
    either OK **and** bit-identical to the oracle, or a structured error
    carrying no result at all — never a wrong answer."""
    if response.status is QueryStatus.OK:
        oracle = run_direct(graph, request, scheduler_factory)
        assert_bit_identical(response.result, oracle.result,
                             label=request.app)
    else:
        assert response.result is None
        assert response.error, response
        assert response.error_type, response
