"""Admission-control unit tests: token buckets, AIMD, the controller.

Everything is clock-injected and deterministic — the same policy object
backs the threaded pool (wall clock) and the virtual-time simulator, so
these tests pin the arithmetic both depend on.
"""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError
from repro.obs import MetricsRegistry
from repro.serve import (
    AdaptiveConcurrencyLimiter,
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
    TokenBucket,
)

pytestmark = pytest.mark.cluster


class TestTokenBucket:
    def test_burst_then_starve(self):
        bucket = TokenBucket(rate=1.0, burst=3.0)
        assert [bucket.try_acquire(0.0) for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=2.0, burst=2.0)
        assert bucket.try_acquire(0.0) and bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.25)  # only 0.5 tokens back
        assert bucket.try_acquire(0.5)       # 1.0 token back
        assert bucket.available == pytest.approx(0.0)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2.0)
        assert bucket.try_acquire(0.0)
        assert bucket.available == pytest.approx(1.0)
        assert bucket.try_acquire(1000.0)  # refilled to 2.0, not 1e5
        assert bucket.available == pytest.approx(1.0)

    def test_time_never_runs_backwards(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.try_acquire(10.0)
        # An out-of-order timestamp must not mint retroactive tokens.
        assert not bucket.try_acquire(5.0)
        assert not bucket.try_acquire(10.5)
        assert bucket.try_acquire(11.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(InvalidParameterError):
            TokenBucket(rate=1.0, burst=0.5)


class TestAdaptiveConcurrencyLimiter:
    def test_starts_fully_open(self):
        limiter = AdaptiveConcurrencyLimiter(max_limit=8)
        assert limiter.limit == 8
        assert limiter.throttle_level == 0.0
        assert limiter.allows(7)
        assert not limiter.allows(8)

    def test_multiplicative_backoff_floors_at_min(self):
        limiter = AdaptiveConcurrencyLimiter(
            max_limit=16, min_limit=2, backoff=0.5
        )
        limits = []
        for _ in range(6):
            limiter.on_overload()
            limits.append(limiter.limit)
        assert limits == [8, 4, 2, 2, 2, 2]
        assert limiter.throttle_level == pytest.approx(1 - 2 / 16)

    def test_additive_recovery_caps_at_max(self):
        limiter = AdaptiveConcurrencyLimiter(
            max_limit=4, min_limit=1, backoff=0.5, recovery=0.5
        )
        for _ in range(3):
            limiter.on_overload()
        assert limiter.limit == 1
        for _ in range(100):
            limiter.on_success()
        assert limiter.limit == 4
        assert limiter.throttle_level == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            AdaptiveConcurrencyLimiter(max_limit=2, min_limit=4)
        with pytest.raises(InvalidParameterError):
            AdaptiveConcurrencyLimiter(backoff=1.0)
        with pytest.raises(InvalidParameterError):
            AdaptiveConcurrencyLimiter(recovery=0.0)


class TestAdmissionController:
    def test_disabled_rate_limit_admits_until_concurrency(self):
        controller = AdmissionController(
            AdmissionConfig(max_concurrency=2)
        )
        assert controller.check(0.0, 0) is AdmissionDecision.ADMIT
        assert controller.check(0.0, 1) is AdmissionDecision.ADMIT
        assert controller.check(0.0, 2) is AdmissionDecision.OVERLOADED
        assert controller.admitted == 2
        assert controller.overloaded == 1

    def test_bucket_checked_before_limiter(self):
        """A throttled client must not tighten the AIMD limit."""
        controller = AdmissionController(
            AdmissionConfig(rate_qps=1.0, burst=1.0, max_concurrency=8)
        )
        assert controller.check(0.0, 0) is AdmissionDecision.ADMIT
        assert controller.check(0.0, 0) is AdmissionDecision.THROTTLED
        assert controller.concurrency_limit == 8
        assert controller.throttled == 1

    def test_per_client_buckets_are_independent(self):
        controller = AdmissionController(
            AdmissionConfig(rate_qps=1.0, burst=1.0)
        )
        assert controller.check(0.0, 0, "web") is AdmissionDecision.ADMIT
        assert (
            controller.check(0.0, 0, "web")
            is AdmissionDecision.THROTTLED
        )
        # The batch client rides its own, still full bucket.
        assert controller.check(0.0, 0, "batch") is AdmissionDecision.ADMIT
        assert (
            controller.check(0.0, 0, "batch")
            is AdmissionDecision.THROTTLED
        )

    @pytest.mark.parametrize("bad", [
        dict(rate_qps=-5.0), dict(rate_qps=0.0), dict(burst=0.5),
        dict(rate_qps=1.0, burst=0.0),
    ])
    def test_bad_rate_is_rejected_when_configured(self, bad):
        with pytest.raises(InvalidParameterError):
            AdmissionConfig(**bad)

    def test_overload_tightens_then_recovery_reopens(self):
        controller = AdmissionController(
            AdmissionConfig(max_concurrency=8, backoff=0.5, recovery=1.0)
        )
        assert controller.check(0.0, 8) is AdmissionDecision.OVERLOADED
        assert controller.concurrency_limit == 4
        assert controller.throttle_level == pytest.approx(0.5)
        for _ in range(4):
            controller.on_success()
        assert controller.concurrency_limit == 8
        assert controller.throttle_level == 0.0

    def test_counts_into_the_cluster_namespace(self):
        metrics = MetricsRegistry()
        controller = AdmissionController(
            AdmissionConfig(rate_qps=1.0, burst=1.0, max_concurrency=1),
            metrics=metrics,
        )
        controller.check(0.0, 0)   # admit
        controller.check(0.0, 0)   # throttled (bucket empty)
        controller.check(2.0, 1)   # refilled, then over concurrency
        counters = metrics.report()["counters"]
        assert counters["cluster.admitted"] == 1
        assert counters["cluster.throttled"] == 1
        assert counters["cluster.shed"] == 1
