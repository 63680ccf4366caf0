"""Adaptive admission control: token buckets + an AIMD concurrency limit.

The cluster's front door applies two independent brakes before a query
reaches any replica (in the spirit of token-bucket rate limiters such as
zae-limiter, adapted to a fully deterministic clock-injected form):

* **per-client token buckets** — each client gets a bucket with the
  same refill rate and burst capacity; a request arriving to an empty
  bucket is *throttled* (structured ``SHED`` response,
  ``ThrottledError``).  This is per-client fairness, not a statement
  about service health.
* **adaptive concurrency limiter** — one AIMD-controlled bound on
  cluster-wide outstanding queries.  Overload signals (broker sheds,
  deadline misses) multiplicatively tighten the limit; successful
  completions additively reopen it.  Degradation is graceful and
  structural: under pressure the cluster sheds *more* load *earlier*,
  and it never trades correctness for throughput — a shed is always a
  typed error, never a wrong answer.

Both pieces take ``now`` explicitly: the serving event loop passes the
time of the arrival on whichever clock drives it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import InvalidParameterError
from repro.obs import NULL_REGISTRY, MetricsRegistry


class AdmissionDecision(enum.Enum):
    """Outcome of one admission check."""

    ADMIT = "admit"
    THROTTLED = "throttled"    # client over its token-bucket budget
    OVERLOADED = "overloaded"  # cluster over its concurrency limit


class TokenBucket:
    """Deterministic token bucket (clock injected by the caller)."""

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise InvalidParameterError("rate must be > 0")
        if burst < 1:
            raise InvalidParameterError("burst must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._updated: float | None = None

    def try_acquire(self, now: float) -> bool:
        """Take one token if available at time ``now``."""
        if self._updated is not None and now > self._updated:
            self._tokens = min(
                self.burst, self._tokens + (now - self._updated) * self.rate
            )
        self._updated = now if self._updated is None else max(
            self._updated, now
        )
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    @property
    def available(self) -> float:
        return self._tokens


class AdaptiveConcurrencyLimiter:
    """AIMD bound on outstanding work: tighten on pressure, reopen on
    recovery.

    ``limit`` starts at ``max_limit`` (fully open).  Every overload
    signal multiplies it by ``backoff`` (floored at ``min_limit``);
    every success adds ``recovery`` (capped at ``max_limit``).  The
    published *throttle level* is ``1 - limit/max_limit``: 0.0 fully
    open, approaching 1.0 as the cluster sheds hard.
    """

    def __init__(
        self,
        *,
        max_limit: int = 64,
        min_limit: int = 1,
        backoff: float = 0.5,
        recovery: float = 0.5,
    ) -> None:
        if max_limit < 1 or min_limit < 1 or min_limit > max_limit:
            raise InvalidParameterError(
                "need 1 <= min_limit <= max_limit"
            )
        if not 0.0 < backoff < 1.0:
            raise InvalidParameterError("backoff must be in (0, 1)")
        if recovery <= 0:
            raise InvalidParameterError("recovery must be > 0")
        self.max_limit = int(max_limit)
        self.min_limit = int(min_limit)
        self.backoff = float(backoff)
        self.recovery = float(recovery)
        self._limit = float(max_limit)

    @property
    def limit(self) -> int:
        return int(self._limit)

    @property
    def throttle_level(self) -> float:
        return 1.0 - self._limit / self.max_limit

    def allows(self, outstanding: int) -> bool:
        return outstanding < self.limit

    def on_overload(self) -> None:
        """A shed or deadline miss: tighten multiplicatively."""
        self._limit = max(float(self.min_limit), self._limit * self.backoff)

    def on_success(self) -> None:
        """A served query: reopen additively."""
        self._limit = min(float(self.max_limit), self._limit + self.recovery)


@dataclass
class AdmissionConfig:
    """Tuning knobs of the cluster's admission controller.

    ``rate_qps``/``burst`` configure each client's token bucket;
    ``rate_qps=None`` disables rate limiting entirely.  A bad rate or
    burst raises ``InvalidParameterError`` here, not at the first query.
    """

    rate_qps: float | None = None
    burst: float = 16.0
    max_concurrency: int = 64
    min_concurrency: int = 1
    backoff: float = 0.5
    recovery: float = 0.5

    def __post_init__(self) -> None:
        if self.rate_qps is not None and not self.rate_qps > 0:
            raise InvalidParameterError("rate_qps must be > 0")
        if not self.burst >= 1:
            raise InvalidParameterError("burst must be >= 1")


class AdmissionController:
    """Combines per-client token buckets with the AIMD concurrency limit.

    The caller reports lifecycle signals (``on_success``,
    ``on_overload``) so the limiter can adapt, and tracks outstanding
    work itself.
    """

    def __init__(
        self,
        config: AdmissionConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config if config is not None else AdmissionConfig()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.limiter = AdaptiveConcurrencyLimiter(
            max_limit=self.config.max_concurrency,
            min_limit=self.config.min_concurrency,
            backoff=self.config.backoff,
            recovery=self.config.recovery,
        )
        self._buckets: dict[str, TokenBucket] = {}
        self.admitted = 0
        self.throttled = 0
        self.overloaded = 0

    def _bucket(self, client: str) -> TokenBucket | None:
        """The client's bucket (created lazily)."""
        if client in self._buckets:
            return self._buckets[client]
        if self.config.rate_qps is None:
            return None
        bucket = TokenBucket(self.config.rate_qps, self.config.burst)
        self._buckets[client] = bucket
        return bucket

    def check(
        self, now: float, outstanding: int, client: str = "default"
    ) -> AdmissionDecision:
        """Decide one arrival.  Does not mutate outstanding counts."""
        bucket = self._bucket(client)
        if bucket is not None and not bucket.try_acquire(now):
            self.throttled += 1
            self.metrics.count("cluster.throttled")
            return AdmissionDecision.THROTTLED
        if not self.limiter.allows(outstanding):
            self.overloaded += 1
            self.limiter.on_overload()
            self.metrics.count("cluster.shed")
            return AdmissionDecision.OVERLOADED
        self.admitted += 1
        self.metrics.count("cluster.admitted")
        return AdmissionDecision.ADMIT

    def on_success(self) -> None:
        self.limiter.on_success()

    def on_overload(self) -> None:
        """Report a downstream pressure signal (shed / deadline miss)."""
        self.limiter.on_overload()

    @property
    def throttle_level(self) -> float:
        return self.limiter.throttle_level

    @property
    def concurrency_limit(self) -> int:
        return self.limiter.limit
