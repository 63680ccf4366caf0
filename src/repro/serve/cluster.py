"""Sharded multi-replica serving: one virtual-time event loop, two drivers.

The serving layer has one event loop, :class:`_Replay`.  It serves
``num_replicas`` simulated devices, each a micro-batching broker, behind
one front door that adds three things a single broker does not have:

* **routing** — a pluggable policy (:data:`ROUTING_POLICIES`) picks the
  replica for every admitted query: ``round_robin`` spreads blindly,
  ``least_outstanding`` tracks per-replica queued work, ``affinity``
  hashes the batch key so compatible queries land on the same replica
  and keep coalescing.
* **adaptive admission** — per-client token buckets plus an AIMD
  concurrency limiter (:mod:`repro.serve.admission`) shed load *before*
  it costs device time, tighten under deadline misses and reopen on
  recovery.
* **a versioned result cache** — :mod:`repro.serve.cache` keys on graph
  epoch + fingerprint, so repeated hot queries are answered without any
  replica and a :class:`~repro.graph.dynamic.DynamicGraph` merge can
  never surface a stale read.

Two drivers play the loop.  :func:`simulate_cluster_open_loop` replays
a whole arrival trace in virtual time; it is what the CI benchmark tiers
gate, and the single broker is its :data:`SINGLE_BROKER` configuration.
:class:`ServingHandle` (what :func:`repro.api.serve` and
:func:`repro.api.cluster` return) stamps each submitted query with its
clock, advances the same loop to that time and lets ``result()`` play
later events, waiting on the clock until each is due; ``close()`` plays
the rest at once.
Both uphold the serving invariant: a response is either bit-identical
to the direct oracle or a structured non-``OK`` status — never a wrong
answer.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import threading
import time
import weakref
from collections import deque
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any, Protocol

import numpy as np

from repro.core.scheduler import Scheduler
from repro.errors import InvalidParameterError, ServiceError, ThrottledError
from repro.graph.csr import CSRGraph
from repro.graph.delta import GraphDelta
from repro.graph.dynamic import DynamicGraph
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.serve.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
)
from repro.serve.batching import (
    Batch,
    Batcher,
    BatchKey,
    Member,
    batch_key,
    error_response,
    expire_before,
    settle,
    shed_response,
)
from repro.serve.cache import CacheKey, GraphStore, ResultCache, result_cache_key
from repro.serve.executor import BatchExecution, BatchExecutor
from repro.serve.loadgen import summarize_responses
from repro.serve.pipelined import PipelineConfig, ReplicaPipeline
from repro.serve.request import QueryRequest, QueryResponse, QueryStatus

#: Replica-selection policies understood by :class:`Router`.
ROUTING_POLICIES = ("round_robin", "least_outstanding", "affinity")

#: The single micro-batching broker as a replay configuration: one
#: replica (one simulated device), no result cache, and a concurrency
#: limit pinned open.  The minimum is pinned too: with only the maximum
#: raised, deadline misses would still tighten the AIMD limit until the
#: replay sheds.  Use as ``simulate_cluster_open_loop(...,
#: **SINGLE_BROKER)``.
SINGLE_BROKER: dict[str, Any] = {
    "num_replicas": 1,
    "cache_capacity": 0,
    "admission": AdmissionConfig(
        max_concurrency=10**9, min_concurrency=10**9
    ),
}

#: Re-admissions a query gets after its batch fails, unless a
#: :class:`ServingHandle` is given its own ``max_retries``.
MAX_RETRIES = 1

# ----------------------------------------------------------------------
# Event-ordering contract of the virtual-time loop
# ----------------------------------------------------------------------
# When several events fall due at the same virtual instant, the loop
# plays them in a pinned order: batch *completions* land their results
# (and fill the cache) first, in dispatch order, then graph *updates*
# bump epochs and purge stale entries, then window *flushes* dispatch
# new batches, and the arrival comes last — so a batch dispatched at
# time t always executes against every update due at t, a completion
# never caches under an epoch bumped at the same instant, and with
# ``batch_window=0`` two same-key arrivals at t form two batches.  The
# regression tests in tests/serve/ pin the constants and the replay's
# order; new event sources must pick one of them rather than invent an
# ordering.
EVENT_COMPLETION = 0
EVENT_UPDATE = 1
EVENT_FLUSH = 2


def event_order(when: float, kind: int) -> tuple[float, int]:
    """Total order for simulator events: time first, then the pinned
    tie-break ``EVENT_COMPLETION < EVENT_UPDATE < EVENT_FLUSH``."""
    return (float(when), int(kind))


class Router:
    """Picks the replica index for one admitted query.

    Deterministic by construction: ``round_robin`` is a counter,
    ``least_outstanding`` breaks ties toward the lowest index, and
    ``affinity`` hashes the batch key with md5 (stable across processes,
    unlike ``hash()`` under ``PYTHONHASHSEED``).
    """

    def __init__(self, policy: str, num_replicas: int) -> None:
        if policy not in ROUTING_POLICIES:
            raise InvalidParameterError(
                f"unknown routing policy {policy!r}; "
                f"expected one of {ROUTING_POLICIES}"
            )
        if num_replicas < 1:
            raise InvalidParameterError("num_replicas must be >= 1")
        self.policy = policy
        self.num_replicas = int(num_replicas)
        self._next = 0

    @staticmethod
    def _stable_hash(key: BatchKey) -> int:
        digest = hashlib.md5(repr(key).encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def route(self, request: QueryRequest, outstanding: list[int]) -> int:
        if self.policy == "round_robin":
            replica = self._next % self.num_replicas
            self._next += 1
            return replica
        if self.policy == "least_outstanding":
            return int(min(
                range(self.num_replicas), key=lambda r: (outstanding[r], r)
            ))
        return self._stable_hash(batch_key(request)) % self.num_replicas


@dataclass
class ClusterBenchReport:
    """Summary of one clustered serving run."""

    num_queries: int
    num_replicas: int
    routing: str
    num_batches: int
    batch_occupancy_mean: float
    makespan_seconds: float
    sim_seconds_total: float
    per_replica_sim_seconds: list[float]
    baseline_seconds: float
    cache_hits: int
    cache_misses: int
    throttled: int
    shed: int
    graph_updates: int
    throttle_level: float
    concurrency_limit: int
    latency_p50: float
    latency_p95: float
    latency_p99: float
    status_counts: dict[str, int] = field(default_factory=dict)
    pipeline_enabled: bool = False
    pipeline_busy_seconds: float = 0.0
    pipeline_overlap_saved_seconds: float = 0.0
    pipeline_inflight_peak: int = 0

    @property
    def cache_hit_ratio(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def throughput_qps(self) -> float:
        served = self.status_counts.get(QueryStatus.OK.value, 0)
        if self.makespan_seconds <= 0:
            return 0.0
        return served / self.makespan_seconds

    @property
    def replica_occupancy_mean(self) -> float:
        """Mean busy fraction of the replicas over the makespan."""
        if self.makespan_seconds <= 0 or not self.per_replica_sim_seconds:
            return 0.0
        busy = [
            s / self.makespan_seconds for s in self.per_replica_sim_seconds
        ]
        return float(np.mean(busy))

    @property
    def pipeline_speedup_vs_serial(self) -> float:
        """Device-time ratio: serial work submitted ÷ busy device time.

        ``sim_seconds_total`` is the work the batches would occupy a
        batch-at-a-time device for; ``pipeline_busy_seconds`` is how
        long the stream devices were actually busy.  >= 1.0 by the
        work-conserving schedule; 0.0 when pipelining is off.
        """
        if not self.pipeline_enabled or self.pipeline_busy_seconds <= 0:
            return 0.0
        return self.sim_seconds_total / self.pipeline_busy_seconds

    @property
    def speedup_vs_baseline(self) -> float:
        """Device-time ratio: baseline sim seconds ÷ this run's.

        The baseline served the identical request/arrival trace: the
        sequential oracle for a single-broker run (what batching buys),
        or the single-broker replay for a cluster run (what the cluster
        tier adds on top, e.g. the cache answering repeats for free).
        0.0 means "no baseline supplied".
        """
        if self.baseline_seconds <= 0:
            return 0.0
        if self.sim_seconds_total <= 0:
            return float("inf")
        return self.baseline_seconds / self.sim_seconds_total


def publish_cluster_gauges(
    metrics: MetricsRegistry, report: ClusterBenchReport
) -> None:
    """Mirror a cluster bench report into the ``cluster.*`` gauges."""
    metrics.set_gauge("cluster.cache_hit_ratio", report.cache_hit_ratio)
    metrics.set_gauge("cluster.throttle_level", report.throttle_level)
    metrics.set_gauge(
        "cluster.concurrency_limit", float(report.concurrency_limit)
    )
    metrics.set_gauge(
        "cluster.replica_occupancy_mean", report.replica_occupancy_mean
    )
    metrics.set_gauge("cluster.latency_p50", report.latency_p50)
    metrics.set_gauge("cluster.latency_p95", report.latency_p95)
    metrics.set_gauge("cluster.latency_p99", report.latency_p99)
    metrics.set_gauge("cluster.throughput_qps", report.throughput_qps)
    metrics.set_gauge(
        "cluster.speedup_vs_baseline", report.speedup_vs_baseline
    )
    if report.pipeline_enabled:
        metrics.set_gauge(
            "pipeline.busy_seconds", report.pipeline_busy_seconds
        )
        metrics.set_gauge(
            "pipeline.overlap_saved_seconds",
            report.pipeline_overlap_saved_seconds,
        )
        metrics.set_gauge(
            "pipeline.inflight_peak", float(report.pipeline_inflight_peak)
        )
        metrics.set_gauge(
            "pipeline.speedup_vs_serial", report.pipeline_speedup_vs_serial
        )


# ----------------------------------------------------------------------
# The event loop
# ----------------------------------------------------------------------


@dataclass
class _Running:
    """A dispatched batch whose results land when its device finishes."""

    members: list[Member]
    results: list[dict[str, np.ndarray]]
    cache_keys: list[CacheKey | None]  # None when the cache is off
    batch_id: int
    share: float


class _SerialDevice:
    """A replica device that runs one batch at a time.

    It has :class:`~repro.serve.pipelined.ReplicaPipeline`'s interface:
    a batch starts once it is ready and the device is free, and finishes
    ``sim_seconds`` later.
    """

    def __init__(self) -> None:
        self.free = 0.0
        self._finishes: deque[tuple[int, float]] = deque()
        self._handles = itertools.count()

    def earliest_start(self, ready: float) -> float:
        return max(ready, self.free)

    def submit(self, execution: BatchExecution, ready: float) -> int:
        handle = next(self._handles)
        self.free = self.earliest_start(ready) + execution.sim_seconds
        self._finishes.append((handle, self.free))
        return handle

    def next_event_time(self) -> float | None:
        return self._finishes[0][1] if self._finishes else None

    def advance_to(self, limit: float) -> list[tuple[int, float]]:
        done = []
        while self._finishes and self._finishes[0][1] <= limit:
            done.append(self._finishes.popleft())
        return done


def _busy_total(pipes: list[ReplicaPipeline], sim_total: float) -> float:
    """Summed device busy time, clamped to the serial device total.

    Busy time is a union of intervals whose endpoints accumulate node
    durations in a different order than the per-batch totals, so it can
    exceed ``sim_total`` by a few ulps even though busy <= work holds
    exactly in real arithmetic.  Clamp the noise: it would otherwise
    leak a speedup fractionally below 1.0 out of a run with no overlap.
    """
    return min(sum(p.device.busy_seconds for p in pipes), sim_total)


class _Replay:
    """The one event loop that serves queries.

    One method per event: :meth:`arrive`, :meth:`dispatch` (a batch the
    :class:`~repro.serve.batching.Batcher` releases goes to its
    replica's device), :meth:`complete` and :meth:`update`.
    :meth:`advance` merges three sources in :func:`event_order`: the
    devices' next completion, the update list, and the batcher's next
    close.  :meth:`graph_updated` fixes the cache up after a merge; the
    driver subscribes it to the store.
    """

    def __init__(
        self,
        store: GraphStore,
        executor: BatchExecutor,
        registry: MetricsRegistry,
        *,
        num_replicas: int,
        routing: str,
        batch_window: float,
        max_batch_size: int,
        cache_capacity: int,
        admission: AdmissionConfig | None,
        updates: list[tuple[float, str, Any, Any]],
        pipeline: PipelineConfig | None,
        max_retries: int = MAX_RETRIES,
        deliver: Callable[[int, QueryResponse], None] | None = None,
    ) -> None:
        if max_retries < 0:
            raise InvalidParameterError("max_retries must be >= 0")
        self.store = store
        self.executor = executor
        self.registry = registry
        self.max_retries = int(max_retries)
        self.batcher = Batcher(batch_window, max_batch_size)
        self.cache = ResultCache(cache_capacity, metrics=registry)
        self.controller = AdmissionController(admission, metrics=registry)
        self.router = Router(routing, num_replicas)
        self.pipeline = pipeline
        self.devices: list[Any] = [
            _SerialDevice() if pipeline is None
            else ReplicaPipeline(pipeline, metrics=registry)
            for _ in range(num_replicas)
        ]
        # Updates due together keep their list order (a stable sort).
        self.updates = deque(sorted(updates, key=lambda u: float(u[0])))
        self.running: dict[tuple[int, int], _Running] = {}
        # Where each response goes: kept by query index for a whole
        # trace, or handed on at once by a live handle.
        self.responses: dict[int, QueryResponse] = {}
        self.deliver = (
            deliver if deliver is not None else self.responses.__setitem__
        )
        self.outstanding = [0] * num_replicas
        self.total_outstanding = 0
        self.per_replica_sim = [0.0] * num_replicas
        self.sim_total = 0.0
        self.num_batches = 0
        self.batched_queries = 0
        self.next_batch_id = 0
        self.graph_updates = 0

    def run(
        self,
        requests: list[QueryRequest],
        arrivals: np.ndarray,
    ) -> None:
        """Play the arrivals in time order, then drain every device."""
        for i in np.argsort(arrivals, kind="stable").tolist():
            t = float(arrivals[i])
            self.advance(t)
            self.arrive(i, t, requests[i], "default")
        self.advance(float("inf"))

    def next_event(self) -> tuple[float, int] | None:
        """The earliest pending event in :func:`event_order`, if any."""
        times = [
            t for t in (d.next_event_time() for d in self.devices)
            if t is not None
        ]
        events = [event_order(min(times), EVENT_COMPLETION)] if times else []
        if self.updates:
            events.append(event_order(self.updates[0][0], EVENT_UPDATE))
        close = self.batcher.next_close()
        if close is not None:
            events.append(event_order(close, EVENT_FLUSH))
        return min(events) if events else None

    def advance(self, limit: float) -> None:
        """Play every event due at or before ``limit`` in event order."""
        while (due := self.next_event()) is not None and due[0] <= limit:
            if due[1] == EVENT_COMPLETION:
                self.complete(due[0])
            elif due[1] == EVENT_UPDATE:
                self.update(self.updates.popleft())
            else:
                batch = self.batcher.pop(due[0])
                assert batch is not None
                self.dispatch(batch)

    def arrive(
        self, index: int, t: float, request: QueryRequest, client: str
    ) -> None:
        """Answer the query at the door, or route it into a batch."""
        response = self._front_door(index, t, request, client)
        if response is not None:
            self.record(index, response)
            return
        replica = self.router.route(request, self.outstanding)
        self.registry.count("cluster.routed")
        self.registry.count("serve.accepted")
        self.outstanding[replica] += 1
        self.total_outstanding += 1
        self.batcher.add(Member(index, request, t, replica), t)

    def _front_door(
        self, index: int, t: float, request: QueryRequest, client: str
    ) -> QueryResponse | None:
        """The answer given before any replica (``None``: batch it).

        A source outside the graph current at arrival gets an ``ERROR``
        of its own: it never joins a batch, so it cannot fail its
        batch-mates, and it gives no admission feedback.  A refused
        admission gets a ``SHED`` response, and a versioned-cache hit
        the cached ``OK`` one.
        """
        graph, epoch, fingerprint = self.store.snapshot(request.graph)
        num_nodes = graph.num_nodes
        self.registry.count("cluster.requests")
        self.registry.count("serve.requests")
        source = request.source
        if source is not None and not 0 <= source < num_nodes:
            return QueryResponse(
                request_id=index,
                app=request.app,
                status=QueryStatus.ERROR,
                error=f"source {source} outside [0, {num_nodes}) of "
                      f"graph {request.graph!r}",
                error_type=InvalidParameterError.__name__,
            )
        decision = self.controller.check(t, self.total_outstanding, client)
        if decision is AdmissionDecision.THROTTLED:
            return shed_response(
                index, request,
                f"client {client!r} over its token-bucket rate limit",
                ThrottledError.__name__,
            )
        if decision is AdmissionDecision.OVERLOADED:
            return shed_response(
                index, request,
                "cluster over its adaptive concurrency limit "
                f"({self.controller.concurrency_limit})",
            )
        if self.cache.capacity == 0:
            return None
        hit = self.cache.get(result_cache_key(request, epoch, fingerprint))
        if hit is None:
            return None
        self.controller.on_success()
        return QueryResponse(
            request_id=index,
            app=request.app,
            status=QueryStatus.OK,
            result=hit,
            latency_seconds=0.0,
            extras={"cached": 1.0},
        )

    def dispatch(self, batch: Batch) -> None:
        """Execute a batch at its close time against the current graph
        snapshot and submit it to its replica's device; members whose
        deadline passes before the device can start it time out
        instead, and a failed execution goes to :meth:`retry`."""
        device = self.devices[batch.replica]
        ready = batch.close_time
        batch_id = self.next_batch_id
        self.next_batch_id += 1
        live, expired = expire_before(
            batch.members, device.earliest_start(ready), batch_id
        )
        for member, response in expired:
            self.controller.on_overload()
            self.resolve(member, response)
        if not live:
            return
        # One atomic read: a merge from another thread between separate
        # reads would key an old-graph result by the new epoch.
        graph, epoch, fingerprint = self.store.snapshot(batch.key[0])
        requests = [m.request for m in live]
        try:
            if self.pipeline is None:
                execution = self.executor.execute(graph, requests)
            else:
                execution = self.executor.compile(
                    graph, requests, self.pipeline.prefetch_depth
                )
        except Exception as exc:  # noqa: BLE001 - fault boundary
            self.retry(live, exc, ready)
            return
        self.registry.count("serve.batches")
        self.registry.count("serve.batched_queries", len(live))
        self.per_replica_sim[batch.replica] += execution.sim_seconds
        self.sim_total += execution.sim_seconds
        self.num_batches += 1
        self.batched_queries += len(live)
        local = device.submit(execution, ready)
        self.running[(batch.replica, local)] = _Running(
            members=live,
            results=execution.results,
            cache_keys=[
                result_cache_key(m.request, epoch, fingerprint)
                if self.cache.capacity else None
                for m in live
            ],
            batch_id=batch_id,
            share=execution.sim_seconds / len(live),
        )

    def retry(self, members: list[Member], exc: Exception, now: float) -> None:
        """A failed batch: re-admit each member still under the retry
        budget at ``now``, and reject the rest with a structured
        ``ERROR`` carrying the exception type.  An error is a device
        fault, not a load signal, so it gives no admission feedback."""
        for member in members:
            if member.retries < self.max_retries:
                member.retries += 1
                self.registry.count("serve.retries")
                self.batcher.add(member, now)
            else:
                self.resolve(member, error_response(member, exc, now))

    def complete(self, when: float) -> None:
        """Land every batch the devices finish at ``when``, in dispatch
        order: resolve its members and cache their results."""
        done = sorted(
            (
                (finish, self.running.pop((replica, local)))
                for replica, device in enumerate(self.devices)
                for local, finish in device.advance_to(when)
            ),
            key=lambda item: (item[0], item[1].batch_id),
        )
        for finish, batch in done:
            responses = settle(
                batch.members, batch.results, finish,
                batch.batch_id, batch.share,
            )
            for member, key, response in zip(
                batch.members, batch.cache_keys, responses
            ):
                if response.status is QueryStatus.OK:
                    self.controller.on_success()
                    self.cache.put(key, response.result)
                else:
                    self.controller.on_overload()
                self.resolve(member, response)

    def update(self, update: tuple[float, str, Any, Any]) -> None:
        """Merge one scheduled edge batch; the store's fan-out reaches
        :meth:`graph_updated`."""
        _, handle, src, dst = update
        self.store.apply_edges(handle, src, dst)

    def graph_updated(
        self, handle: str, csr: CSRGraph, epoch: int, delta: GraphDelta
    ) -> None:
        """Store subscriber: bump the cache to the merge's epoch.
        Entries the delta provably leaves unchanged are re-keyed to the
        new epoch and keep hitting; the rest are purged."""
        self.cache.apply_delta(
            handle, delta,
            new_epoch=epoch,
            new_fingerprint=self.store.fingerprint(handle),
        )
        self.registry.count("cluster.graph_updates")
        self.graph_updates += 1

    def resolve(self, member: Member, response: QueryResponse) -> None:
        self.outstanding[member.replica] -= 1
        self.total_outstanding -= 1
        self.record(member.request_id, response)

    def record(self, index: int, response: QueryResponse) -> None:
        """Deliver query ``index``'s response and count it by status."""
        self.registry.count("serve.responses")
        if response.status is QueryStatus.SHED:
            self.registry.count("serve.shed")
        elif response.status is QueryStatus.TIMEOUT:
            self.registry.count("serve.timeouts")
        elif response.status is QueryStatus.ERROR:
            self.registry.count("serve.errors")
        self.deliver(index, response)


# ----------------------------------------------------------------------
# Driver 1: a whole trace in virtual time
# ----------------------------------------------------------------------


def simulate_cluster_open_loop(
    graphs: Mapping[str, CSRGraph | DynamicGraph] | GraphStore,
    requests: list[QueryRequest],
    arrivals: np.ndarray,
    scheduler_factory: Callable[[], Scheduler],
    *,
    num_replicas: int = 2,
    routing: str = "least_outstanding",
    batch_window: float = 0.01,
    max_batch_size: int = 64,
    cache_capacity: int = 1024,
    admission: AdmissionConfig | None = None,
    updates: list[tuple[float, str, Any, Any]] | None = None,
    executor: BatchExecutor | None = None,
    baseline_seconds: float = 0.0,
    pipeline: PipelineConfig | None = None,
    metrics: MetricsRegistry | None = None,
) -> tuple[list[QueryResponse], ClusterBenchReport]:
    """Deterministic virtual-time replay of the clustered service.

    The policy objects are the production ones (the
    :class:`~repro.serve.batching.Batcher` and its response builders,
    :class:`ResultCache`, :class:`AdmissionController`); only the clock
    is virtual, so equal traffic always yields byte-equal responses and
    the benchmark tiers can be gated in CI.  ``arrivals`` must be finite
    and non-negative.

    Batching follows the batcher's rules per replica and compatibility
    key: the first arrival opens a batch, later ones join it up to
    ``max_batch_size``, and it dispatches when its ``batch_window``
    elapses or at the arrival that fills it, whichever is first.  Batch
    ids follow dispatch order, and ``num_batches`` counts executed
    batches (a batch whose members all missed their deadline before
    execution, or whose execution failed, gets an id but is not
    counted).  Each replica is one device that runs one batch at a time.
    A batch whose execution raises is retried: each member is re-admitted
    at the dispatch time up to :data:`MAX_RETRIES` times, then answered
    with a structured ``ERROR``.

    With :data:`SINGLE_BROKER` the replay is the single micro-batching
    broker on one device: a :class:`ServingHandle` in that configuration,
    on a clock set to each arrival, forms the same batches and returns
    the same responses.

    ``updates`` schedules mid-stream dynamic-graph merges as
    ``(virtual_time, handle, src_array, dst_array)`` tuples; each bumps
    the handle's epoch, purges its stale cache entries, and re-snapshots
    the graph served to later batches.  A batch executes against the
    snapshot current at its *dispatch* time and its results are cached
    under that snapshot's epoch — in-flight work can never pollute a
    newer epoch.  A :class:`GraphStore` passed in is subscribed to for
    the call only.  ``baseline_seconds`` (total sim-device seconds of a
    reference service over the same trace: the sequential oracle, or the
    :data:`SINGLE_BROKER` replay) feeds the report's speedup; pass 0.0
    to skip the comparison.

    ``pipeline`` (a :class:`~repro.serve.pipelined.PipelineConfig` with
    any knob off its synchronous default) switches each replica from
    batch-at-a-time execution to a stream device with an in-flight
    admission window, fed by :meth:`BatchExecutor.compile`.  Responses
    are bit-identical either way — batches still form, snapshot, and
    execute identically at dispatch time; only the virtual timeline of
    the device changes.  One semantic nuance: with pipelining on, the
    pre-execution deadline check uses the batch's flush time (the
    device-start instant is not known until admission), so queueing
    delay surfaces as a post-execution timeout instead.
    """
    if num_replicas < 1:
        raise InvalidParameterError("num_replicas must be >= 1")
    arrivals = np.asarray(arrivals, dtype=np.float64)
    if arrivals.shape != (len(requests),):
        raise InvalidParameterError(
            f"need one arrival per request, got {arrivals.shape} "
            f"for {len(requests)} requests"
        )
    if not np.isfinite(arrivals).all() or (arrivals < 0).any():
        raise InvalidParameterError("arrivals must be finite and >= 0")
    registry = metrics if metrics is not None else NULL_REGISTRY
    pipelined = pipeline is not None and pipeline.enabled
    store = graphs if isinstance(graphs, GraphStore) else GraphStore(graphs)
    replay = _Replay(
        store,
        executor or BatchExecutor(scheduler_factory, metrics=registry),
        registry,
        num_replicas=num_replicas,
        routing=routing,
        batch_window=batch_window,
        max_batch_size=max_batch_size,
        cache_capacity=cache_capacity,
        admission=admission,
        updates=updates or [],
        pipeline=pipeline if pipelined else None,
    )
    store.subscribe(replay.graph_updated)
    try:
        with registry.span(
            "cluster.run", replicas=num_replicas, routing=routing,
            queries=len(requests),
        ) as run_span:
            replay.run(requests, arrivals)
            busy = (
                _busy_total(replay.devices, replay.sim_total)
                if pipelined else 0.0
            )
            run_span.set("batches", replay.num_batches)
            run_span.set("cache_hits", replay.cache.hits)
            run_span.set("sim_seconds_total", replay.sim_total)
            if pipelined:
                run_span.set("pipeline_busy_seconds", busy)
    finally:
        store.unsubscribe(replay.graph_updated)

    ordered = [replay.responses[i] for i in range(len(requests))]
    makespan = max(
        (r.latency_seconds + float(arrivals[i])
         for i, r in enumerate(ordered)),
        default=0.0,
    )
    counts, p50, p95, p99 = summarize_responses(ordered)
    controller = replay.controller
    report = ClusterBenchReport(
        num_queries=len(requests),
        num_replicas=num_replicas,
        routing=routing,
        num_batches=replay.num_batches,
        batch_occupancy_mean=(
            replay.batched_queries / replay.num_batches
            if replay.num_batches else 0.0
        ),
        makespan_seconds=makespan,
        sim_seconds_total=replay.sim_total,
        per_replica_sim_seconds=replay.per_replica_sim,
        baseline_seconds=float(baseline_seconds),
        cache_hits=replay.cache.hits,
        cache_misses=replay.cache.misses,
        throttled=controller.throttled,
        shed=controller.overloaded,
        graph_updates=replay.graph_updates,
        throttle_level=controller.throttle_level,
        concurrency_limit=controller.concurrency_limit,
        latency_p50=p50,
        latency_p95=p95,
        latency_p99=p99,
        status_counts=counts,
        pipeline_enabled=pipelined,
        pipeline_busy_seconds=busy,
        pipeline_overlap_saved_seconds=(
            sum(p.device.overlap_saved_seconds for p in replay.devices)
            if pipelined else 0.0
        ),
        pipeline_inflight_peak=(
            max((p.inflight_peak for p in replay.devices), default=0)
            if pipelined else 0
        ),
    )
    if metrics is not None:
        publish_cluster_gauges(metrics, report)
    return ordered, report


# ----------------------------------------------------------------------
# Driver 2: a live service on a clock
# ----------------------------------------------------------------------


class Clock(Protocol):
    """What a :class:`ServingHandle` reads its time from."""

    def now(self) -> float:
        """Seconds since the clock's origin (never decreasing)."""

    def sleep_until(self, when: float) -> None:
        """Return once :meth:`now` has reached ``when``."""


class WallClock:
    """Host monotonic seconds since the clock was created."""

    def __init__(self) -> None:
        self._origin = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._origin

    def sleep_until(self, when: float) -> None:
        delay = when - self.now()
        if delay > 0:
            time.sleep(delay)


class ManualClock:
    """A clock that moves only when set (``clock.time = t``) or waited
    on, so a handle on it is as deterministic as the replay.  For one
    caller thread: concurrent waits could move it backwards.  It starts
    at 0.0."""

    def __init__(self) -> None:
        self.time = 0.0

    def now(self) -> float:
        return self.time

    def sleep_until(self, when: float) -> None:
        self.time = max(self.time, when)


class PendingQuery:
    """The future :meth:`ServingHandle.submit` returns."""

    def __init__(
        self, service: ServingHandle, request_id: int, request: QueryRequest
    ) -> None:
        self.request_id = request_id
        self.request = request
        self._service = service
        # Set once, under the service's lock, when the replay delivers
        # the response; a stale ``None`` read only means asking again.
        self._response: QueryResponse | None = None

    def done(self) -> bool:
        """Whether the response is in, after playing every event due by
        the service clock's now (never waits)."""
        return self._service._poll(self) is not None

    def result(self, timeout: float | None = None) -> QueryResponse:
        """The response, playing events (and waiting on the service's
        clock until each is due) until it is in.  Raises
        :class:`TimeoutError` once ``timeout`` clock seconds pass."""
        response = self._response
        if response is None:
            response = self._service._wait(self, timeout)
        return response


class ServingHandle:
    """A live service: the replay driven by caller threads on a clock.

    Construct via :func:`repro.api.serve` (the :data:`SINGLE_BROKER`
    configuration, ``queue_capacity`` as its pinned concurrency limit)
    or :func:`repro.api.cluster`.  ``submit`` stamps the arrival with
    ``clock.now()``, plays every event due by then and admits, answers
    or batches the query; it never waits.  :meth:`PendingQuery.result`
    plays later events in order, waiting on the clock until each is
    due, and never waits while holding the handle's lock;
    :meth:`close` plays every event left without waiting.
    A response's latency is its arrival and batch window on the handle's
    clock plus simulated device seconds.

    The default clock reads wall seconds since the handle was created;
    pass a :class:`ManualClock` for a deterministic handle.  A merge
    into a registered :class:`~repro.graph.dynamic.DynamicGraph` reaches
    every later batch through the :class:`~repro.serve.cache.GraphStore`,
    and the cache is fixed up from the merge's delta at the handle's
    next call.
    """

    _guarded_by = {
        "_replay": "_lock", "_closed": "_lock", "_pending": "_lock",
    }

    def __init__(
        self,
        graphs: Mapping[str, CSRGraph | DynamicGraph] | GraphStore,
        scheduler_factory: Callable[[], Scheduler],
        *,
        num_replicas: int = 2,
        routing: str = "least_outstanding",
        batch_window: float = 0.01,
        max_batch_size: int = 64,
        max_retries: int = MAX_RETRIES,
        cache_capacity: int = 1024,
        admission: AdmissionConfig | None = None,
        executor: BatchExecutor | None = None,
        metrics: MetricsRegistry | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.store = (
            graphs if isinstance(graphs, GraphStore) else GraphStore(graphs)
        )
        self._replay = _Replay(
            self.store,
            executor or BatchExecutor(scheduler_factory, metrics=self.metrics),
            self.metrics,
            num_replicas=num_replicas,
            routing=routing,
            batch_window=batch_window,
            max_batch_size=max_batch_size,
            cache_capacity=cache_capacity,
            admission=admission,
            updates=[],
            pipeline=None,
            max_retries=max_retries,
            deliver=self._deliver_locked,
        )
        # Each response goes straight to its future; one whose future
        # was dropped unanswered is dropped with it.
        self._pending: weakref.WeakValueDictionary[int, PendingQuery] = (
            weakref.WeakValueDictionary()
        )
        self.routing = routing
        self.batch_window = self._replay.batcher.batch_window
        self.max_batch_size = self._replay.batcher.max_batch_size
        self._clock: Clock = clock if clock is not None else WallClock()
        self._lock = threading.Lock()
        self._closed = False
        self._ids = itertools.count()
        # Merges land here from whichever thread flushed the graph (an
        # append needs no lock); the next locked call applies them.
        self._merges: deque[tuple[str, CSRGraph, int, GraphDelta]] = deque()
        self.store.subscribe(self._on_graph_update)

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    def submit(
        self, request: QueryRequest, *, client: str = "default"
    ) -> PendingQuery:
        """Admit, answer or batch one query at the clock's now."""
        with self._lock:
            if self._closed:
                raise ServiceError("service is closed")
            now = self._play_locked()
            pending = PendingQuery(self, next(self._ids), request)
            self._pending[pending.request_id] = pending
            self._replay.arrive(pending.request_id, now, request, client)
        return pending

    def submit_many(self, requests: list[QueryRequest]) -> list[PendingQuery]:
        return [self.submit(request) for request in requests]

    def advance(self) -> None:
        """Play every event due by the clock's now (``api.update`` calls
        this before a merge, so batches closed earlier run on the graph
        they closed on)."""
        with self._lock:
            self._play_locked()

    @property
    def cache(self) -> ResultCache:
        with self._lock:
            return self._replay.cache

    @property
    def graph_updates(self) -> int:
        with self._lock:
            return self._replay.graph_updates

    # ------------------------------------------------------------------
    # Playing events
    # ------------------------------------------------------------------

    def _play_locked(self) -> float:
        """Play every event due by the clock's now, then apply the
        merges that landed; returns that now.  Caller holds ``_lock``."""
        now = self._clock.now()
        self._replay.advance(now)
        while self._merges:
            self._replay.graph_updated(*self._merges.popleft())
        return now

    def _deliver_locked(self, request_id: int, response: QueryResponse) -> None:
        """The replay's response sink.  Caller holds ``_lock``."""
        pending = self._pending.pop(request_id, None)
        if pending is not None:
            pending._response = response

    def _poll(self, pending: PendingQuery) -> QueryResponse | None:
        with self._lock:
            self._play_locked()
            return pending._response

    def _wait(
        self, pending: PendingQuery, timeout: float | None
    ) -> QueryResponse:
        deadline = None
        while True:
            with self._lock:
                now = self._play_locked()
                response = pending._response
                due = self._replay.next_event()
            if response is not None:
                return response
            # An unanswered query is batched or running: an event is due.
            assert due is not None
            wake = due[0]
            if timeout is not None:
                if deadline is None:
                    deadline = now + timeout
                if now >= deadline:
                    raise TimeoutError(
                        f"query {pending.request_id} still pending after "
                        f"{timeout}s"
                    )
                wake = min(wake, deadline)
            self._clock.sleep_until(wake)

    def _on_graph_update(
        self, handle: str, csr: CSRGraph, epoch: int, delta: GraphDelta
    ) -> None:
        self._merges.append((handle, csr, epoch, delta))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop taking queries and play every event left at once: no
        query can join a batch any more, and each event keeps its own
        virtual time, so nothing waits on the clock.  ``drain=True``
        serves the queued queries as their windows close; ``drain=False``
        sheds the ones not yet dispatched with structured responses."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            now = self._play_locked()
            while not drain and (
                batch := self._replay.batcher.pop(math.inf)
            ) is not None:
                for member in batch.members:
                    self._replay.resolve(member, shed_response(
                        member.request_id, member.request,
                        "service closed before execution",
                        latency=now - member.arrival,
                    ))
            self._replay.advance(math.inf)
        self.store.unsubscribe(self._on_graph_update)
        with self._lock:
            self._play_locked()
            replay = self._replay
            self.metrics.set_gauge(
                "cluster.cache_hit_ratio", replay.cache.hit_ratio
            )
            self.metrics.set_gauge(
                "cluster.throttle_level", replay.controller.throttle_level
            )
            self.metrics.set_gauge(
                "cluster.concurrency_limit",
                float(replay.controller.concurrency_limit),
            )

    def __enter__(self) -> ServingHandle:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close(drain=True)
