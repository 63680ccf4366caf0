"""Deterministic cost-model evaluation of tuning points.

The evaluator is the tuner's objective function.  One evaluation replays
two legs of the deterministic simulator with the point's knobs plugged
in:

* **serving leg** — :func:`~repro.serve.cluster.simulate_cluster_open_loop`
  over the workload's seeded query trace, with the point's batching
  window/cap, routing policy, admission knobs and stream-pipeline
  knobs.  The result cache is disabled so the measured cost reflects
  the knobs, not cache luck.
* **kernel leg** — :func:`~repro.core.hybrid.direction_optimized_bfs`
  from the workload's fixed roots, with the point's Beamer thresholds
  and tile floor.

Cost is the total simulated *device* seconds of both legs (the
cluster's summed replica device time plus the hybrid runs) — not
wall-clock, so equal inputs give byte-equal costs on any machine.
When the point's pipeline knobs are on, the serving leg's device time
is the stream devices' *busy* time (the union of intervals where any
node occupies the device), not the serial sum — overlap that genuinely
shares the device gets rewarded, and because pipelined responses are
bit-identical to the synchronous executor's, the tuner can never buy
that reward with changed results.  Device seconds reward exactly what
the knobs control: wider batch windows coalesce more queries per
kernel, better thresholds and tile floors shrink each kernel, deeper
in-flight windows overlap batches.  The counterweight is the feasibility
guard: a point is **feasible** only if every response is OK and its
p95 latency stays within :data:`SLO_FACTOR` of the default point's p95,
so the tuner may not buy device time by shedding queries or blowing
the latency budget arbitrarily.

Evaluations are cached by point identity; the search revisits nodes
freely and pays for each distinct configuration once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.core.hybrid import direction_optimized_bfs
from repro.serve.cluster import simulate_cluster_open_loop
from repro.serve.request import QueryStatus
from repro.tune.space import TuningPoint
from repro.tune.workloads import TuningWorkload

#: Replicas of the cluster every point is replayed on.
NUM_REPLICAS = 2
#: Feasibility bound: a point's p95 latency within this factor of the
#: default point's.
SLO_FACTOR = 2.0


@dataclass(frozen=True)
class Evaluation:
    """Deterministic outcome of scoring one point on one workload."""

    point: TuningPoint
    #: Serving-leg device seconds: stream-device busy time when the
    #: point pipelines, summed replica device time otherwise.
    cluster_seconds: float
    hybrid_seconds: float
    latency_p95: float
    all_ok: bool
    feasible: bool

    @property
    def cost_seconds(self) -> float:
        return self.cluster_seconds + self.hybrid_seconds


class CostModelEvaluator:
    """Scores :class:`TuningPoint`s against one workload, with caching.

    The default point is always evaluated first (it anchors the SLO
    feasibility bound), so ``evaluations`` counts the default too.
    """

    def __init__(
        self,
        workload: TuningWorkload,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.workload = workload
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.graph = workload.build_graph()
        self.requests = workload.build_queries(self.graph)
        self.arrivals = workload.build_arrivals()
        self._cache: dict[tuple, Evaluation] = {}
        self._default_p95: float | None = None

    @property
    def evaluations(self) -> int:
        """Distinct points scored so far (cache misses)."""
        return len(self._cache)

    def default(self) -> Evaluation:
        return self.evaluate(TuningPoint())

    def evaluate(self, point: TuningPoint) -> Evaluation:
        key = point.key()
        hit = self._cache.get(key)
        if hit is not None:
            self.metrics.count("tune.eval_cache_hits")
            return hit
        if self._default_p95 is None and key != TuningPoint().key():
            # Anchor the SLO bound before scoring any non-default point.
            self.default()
        evaluation = self._score(point)
        self._cache[key] = evaluation
        self.metrics.count("tune.evaluations")
        return evaluation

    def _score(self, point: TuningPoint) -> Evaluation:
        responses, report = simulate_cluster_open_loop(
            {self.workload.name: self.graph},
            self.requests,
            self.arrivals,
            point.scheduler_factory(),
            num_replicas=NUM_REPLICAS,
            routing=point.routing,
            batch_window=point.batch_window,
            max_batch_size=point.max_batch_size,
            cache_capacity=0,
            admission=point.admission_config(),
            pipeline=point.pipeline_config(),
        )
        all_ok = all(r.status is QueryStatus.OK for r in responses)
        hybrid_seconds = 0.0
        for source in self.workload.hybrid_sources:
            result, _ = direction_optimized_bfs(
                self.graph,
                point.scheduler_factory(),
                source,
                config=point.hybrid_config(),
            )
            hybrid_seconds += result.seconds
        if self._default_p95 is None:
            # This is the default point itself: it anchors the bound.
            self._default_p95 = report.latency_p95
        feasible = all_ok and (
            report.latency_p95 <= SLO_FACTOR * self._default_p95
        )
        cluster_seconds = (
            report.pipeline_busy_seconds
            if report.pipeline_enabled
            else report.sim_seconds_total
        )
        return Evaluation(
            point=point,
            cluster_seconds=cluster_seconds,
            hybrid_seconds=hybrid_seconds,
            latency_p95=report.latency_p95,
            all_ok=all_ok,
            feasible=feasible,
        )
