"""Tests for the query-session (time-to-insight) harness."""

import pytest

from repro.bench.session import (
    SessionTrace,
    crossover_query,
    run_query_session,
)
from repro.graph import datasets


class TestSessionTrace:
    def test_completion_times(self):
        trace = SessionTrace("x", setup_seconds=10.0,
                             query_seconds=[1.0, 2.0, 3.0])
        assert trace.completion_times.tolist() == [11.0, 13.0, 16.0]
        assert trace.total_seconds == 16.0

    def test_crossover(self):
        slow_start = SessionTrace("a", 10.0, [0.1] * 5)
        fast_start = SessionTrace("b", 0.0, [1.0] * 5)
        # a catches b when 10 + 0.1k < k  -> around query index 10... not
        # within 5 queries here
        assert crossover_query(fast_start, slow_start) is None
        longer_fast = SessionTrace("b", 0.0, [3.0] * 5)
        assert crossover_query(longer_fast, slow_start) == 3


class TestRunQuerySession:
    @pytest.fixture(scope="class")
    def traces(self):
        graph = datasets.ljournal_like(0.1).graph
        return run_query_session(graph, 6, seed=3)

    def test_all_profiles_present(self, traces):
        assert set(traces) == {"sage", "gorder+gunrock", "tigr"}

    def test_query_counts(self, traces):
        for trace in traces.values():
            assert len(trace.query_seconds) == 6

    def test_sage_answers_first(self, traces):
        sage = traces["sage"]
        gorder = traces["gorder+gunrock"]
        assert sage.setup_seconds == 0.0
        assert sage.completion_times[0] < gorder.completion_times[0]

    def test_preprocessing_dominates_gorder_profile(self, traces):
        gorder = traces["gorder+gunrock"]
        assert gorder.setup_seconds > sum(gorder.query_seconds)
