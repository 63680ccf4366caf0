"""The seeded UCB search: determinism, caching, never-worse-than-default."""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry
from repro.tune import CostModelEvaluator, TuningPoint, search

pytestmark = pytest.mark.tune

BUDGET = 6


def run_search(workload, space, *, budget=BUDGET, seed=0, metrics=None):
    evaluator = CostModelEvaluator(workload, metrics=metrics)
    return search(
        space, evaluator, budget=budget, seed=seed, metrics=metrics
    ), evaluator


class TestDeterminism:
    def test_same_seed_same_everything(self, tiny_workload, tiny_space):
        a, _ = run_search(tiny_workload, tiny_space, seed=3)
        b, _ = run_search(tiny_workload, tiny_space, seed=3)
        assert a.best.point == b.best.point
        assert a.best.cost_seconds == b.best.cost_seconds
        assert a.trace == b.trace
        assert a.evaluations == b.evaluations

    def test_budget_sets_the_rollout_count(self, tiny_workload, tiny_space):
        small, _ = run_search(tiny_workload, tiny_space, budget=3)
        large, _ = run_search(tiny_workload, tiny_space, budget=7)
        assert small.rollouts == 3 and len(small.trace) == 3
        assert large.rollouts == 7 and len(large.trace) == 7


class TestOutcome:
    def test_best_is_feasible_and_never_worse_than_default(
        self, tiny_workload, tiny_space
    ):
        result, _ = run_search(tiny_workload, tiny_space)
        assert result.best.feasible
        assert result.best.cost_seconds <= result.default.cost_seconds
        assert result.speedup >= 1.0
        assert result.default.point == TuningPoint()

    def test_a_default_built_evaluator_bounds_p95_at_slo_factor(self, tiny_workload):
        """The bench's re-evaluation and the tuner judge a point by one
        bound: a p95 2.4x the default's is out at ``SLO_FACTOR`` (2.0)."""
        from repro.tune import evaluator as evaluation

        tuner = CostModelEvaluator(tiny_workload)
        default = tuner.default()
        slow = tuner.evaluate(TuningPoint(batch_window=0.12))
        ratio = slow.latency_p95 / default.latency_p95
        assert evaluation.SLO_FACTOR == 2.0 < ratio < 2.5
        assert slow.all_ok and not slow.feasible

    def test_trace_records_every_rollout(self, tiny_workload, tiny_space):
        result, _ = run_search(tiny_workload, tiny_space)
        assert [entry["rollout"] for entry in result.trace] == list(
            range(BUDGET)
        )
        for entry in result.trace:
            assert entry["cost_seconds"] > 0
            assert entry["best_cost_seconds"] <= result.default.cost_seconds

    def test_evaluations_are_cached_across_revisits(
        self, tiny_workload, tiny_space
    ):
        metrics = MetricsRegistry()
        result, evaluator = run_search(
            tiny_workload, tiny_space, budget=12, metrics=metrics
        )
        # 12 rollouts in a 12-point space + the default: distinct
        # evaluations are capped by the space, revisits hit the cache.
        counters = metrics.report()["counters"]
        assert evaluator.evaluations <= tiny_space.size + 1
        assert counters["tune.evaluations"] == evaluator.evaluations
        assert counters["tune.rollouts"] == 12
        assert counters["tune.searches"] == 1
        assert result.evaluations == evaluator.evaluations

    def test_search_emits_speedup_gauge_and_span(
        self, tiny_workload, tiny_space
    ):
        metrics = MetricsRegistry()
        run_search(tiny_workload, tiny_space, metrics=metrics)
        report = metrics.report()
        assert report["gauges"]["tune.best_speedup"] >= 1.0
        assert any(
            span["name"] == "tune.search" for span in report["spans"]
        )
