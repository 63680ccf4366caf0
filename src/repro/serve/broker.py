"""The threaded query broker: worker threads over the shared batcher.

:class:`QueryBroker` is the serving front door on a real clock.  Clients
``submit`` typed :class:`~repro.serve.request.QueryRequest` objects and
get a :class:`PendingQuery` future back.  Each admitted query joins the
:class:`~repro.serve.batching.Batcher` at the broker's ``clock()``
time; worker threads wait on one condition variable until a batch is
ready (filled, or its window closed), execute it against the graph the
:class:`~repro.serve.cache.GraphStore` holds at dispatch, and resolve
its members with the shared deadline sweeps and response builders.  The
virtual-time replay drives the same batcher, so on an injected clock
both form the same batches.

What the broker adds to the policy is structural, never silent:

* **admission control** — at most ``queue_capacity`` queries wait in the
  batcher; a submit beyond that is *shed* immediately (``SHED``
  response, ``serve.shed``).
* **deadlines** — a query whose absolute deadline passes before (or
  during) execution resolves to ``TIMEOUT``; late results are dropped,
  so a client never observes a wrong-but-on-time answer.
* **worker failures** — an executor exception fails only its batch;
  its queries are re-admitted up to ``max_retries`` times and then
  rejected with a structured ``ERROR`` response carrying the original
  exception type; queries in other batches are untouched.

Every lifecycle event is counted/spanned through :mod:`repro.obs` under
the ``serve.*`` names registered in :mod:`repro.obs.names`.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.races import RaceDetector
from repro.analysis.races import instrument as races
from repro.core.scheduler import Scheduler
from repro.errors import (
    AdmissionError,
    DeadlineExceededError,
    InvalidParameterError,
    ServiceError,
    WorkerFailureError,
)
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.serve.batching import (
    Batch,
    Batcher,
    Member,
    error_response,
    expire_before,
    settle,
    shed_response,
)
from repro.serve.cache import GraphStore
from repro.serve.executor import BatchExecutor
from repro.serve.request import QueryRequest, QueryResponse, QueryStatus


class PendingQuery:
    """Future handed back by :meth:`QueryBroker.submit`."""

    _guarded_by = {
        "_response": "_callback_lock",
        "_callbacks": "_callback_lock",
    }

    def __init__(self, request_id: int, request: QueryRequest) -> None:
        self.request_id = request_id
        self.request = request
        self._event = races.make_event("pending.event")
        self._response: QueryResponse | None = None
        self._callbacks: list[Callable[[QueryResponse], None]] = []
        self._callback_lock = races.make_lock("pending.callback")

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> QueryResponse:
        """Block until the response is available."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"query {self.request_id} still pending after {timeout}s"
            )
        races.note_read(self, "_response")
        # Published before the event was set, so the lock-free read is
        # ordered by the event wait above.
        response = self._response  # sage: allow(SAGE006)
        assert response is not None
        return response

    def add_done_callback(
        self, callback: Callable[[QueryResponse], None]
    ) -> None:
        """Call ``callback(response)`` when the query resolves.

        Invoked synchronously by the resolving thread; if the query has
        already resolved, the callback fires immediately.  The cluster
        layer uses this for cache fills and admission feedback.
        """
        with self._callback_lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
            races.note_read(self, "_response")
            response = self._response
        assert response is not None
        callback(response)

    def _resolve(self, response: QueryResponse) -> None:
        with self._callback_lock:
            races.note_write(self, "_response")
            self._response = response
            self._event.set()
            callbacks = list(self._callbacks)
        for callback in callbacks:
            callback(response)


def raise_for_status(response: QueryResponse) -> QueryResponse:
    """Map a non-``OK`` response to its typed :class:`ServiceError`."""
    if response.status is QueryStatus.OK:
        return response
    detail = response.error or response.status.value
    if response.status is QueryStatus.SHED:
        raise AdmissionError(detail)
    if response.status is QueryStatus.TIMEOUT:
        raise DeadlineExceededError(detail)
    raise WorkerFailureError(f"{response.error_type}: {detail}")


class RaceScope:
    """The race-detector lifecycle of one threaded serving component.

    Enabled, it joins the active detector (an enclosing ``instrumented``
    block or test fixture) or else activates one it owns; :meth:`close`
    deactivates and finalizes an owned detector only.  Create it before
    any lock or thread so the component's whole lifetime is tracked.
    """

    def __init__(self, enabled: bool, metrics: MetricsRegistry) -> None:
        self.detector: RaceDetector | None = None
        self._owned = False
        if enabled:
            self.detector = races.active_detector()
            if self.detector is None:
                self.detector = RaceDetector(metrics=metrics)
                races.activate(self.detector)
                self._owned = True

    def close(self) -> None:
        if self._owned:
            self._owned = False
            races.deactivate()
            assert self.detector is not None
            self.detector.finalize()


@dataclass
class BrokerStats:
    """Aggregates the broker folds into gauges at :meth:`~QueryBroker.close`."""

    queue_depth_peak: int = 0
    batch_sizes: list[int] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)


class QueryBroker:
    """Bounded micro-batching broker over a worker pool.

    ``graphs`` is a :class:`~repro.serve.cache.GraphStore` or a mapping
    it wraps; every batch reads its graph from the store at dispatch.
    """

    _guarded_by = {
        "_batcher": ("_lock", "_cond"),
        "_closed": ("_lock", "_cond"),
        "_next_request_id": ("_lock", "_cond"),
        "_next_batch_id": ("_lock", "_cond"),
    }

    def __init__(
        self,
        graphs: Mapping[str, CSRGraph | DynamicGraph] | GraphStore,
        scheduler_factory: Callable[[], Scheduler],
        *,
        batch_window: float = 0.01,
        max_batch_size: int = 64,
        num_workers: int = 2,
        queue_capacity: int = 256,
        max_retries: int = 1,
        executor: BatchExecutor | None = None,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
        race_check: bool = False,
    ) -> None:
        batcher = Batcher(batch_window, max_batch_size)
        if num_workers < 1:
            raise InvalidParameterError("num_workers must be >= 1")
        if queue_capacity < 1:
            raise InvalidParameterError("queue_capacity must be >= 1")
        if max_retries < 0:
            raise InvalidParameterError("max_retries must be >= 0")
        self.batch_window = batcher.batch_window
        self.max_batch_size = batcher.max_batch_size
        self.num_workers = int(num_workers)
        self.queue_capacity = int(queue_capacity)
        self.max_retries = int(max_retries)
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._race = RaceScope(race_check, self.metrics)
        self.race_detector = self._race.detector
        self.store = (
            graphs if isinstance(graphs, GraphStore) else GraphStore(graphs)
        )
        self.executor = executor or BatchExecutor(
            scheduler_factory, metrics=self.metrics
        )
        self._clock = clock
        self._batcher = batcher
        # Reentrant: _finalize (which appends to stats under the lock)
        # is reachable from submit/close while the condition is held.
        self._lock = races.make_rlock("broker.lock")
        self._cond = races.make_condition(self._lock, "broker.cond")
        self._closed = False
        self._next_request_id = 0
        self._next_batch_id = 0
        self.stats = BrokerStats()
        self._start_time = self._clock()
        self._run_span = self.metrics.span(
            "serve.run", workers=self.num_workers,
            batch_window=self.batch_window,
            max_batch_size=self.max_batch_size,
        )
        self._run_span.__enter__()
        self._workers = [
            races.spawn_thread(
                self._worker_loop, name=f"serve-worker-{i}", daemon=True
            )
            for i in range(self.num_workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    def submit(self, request: QueryRequest) -> PendingQuery:
        """Admit (or shed) one query; never blocks on execution."""
        registered = self.store.handles
        if request.graph not in registered:
            raise InvalidParameterError(
                f"unknown graph handle {request.graph!r}; "
                f"registered: {registered}"
            )
        self.metrics.count("serve.requests")
        now = self._clock()
        with self._cond:
            if self._closed:
                raise ServiceError("broker is closed")
            request_id = self._next_request_id
            self._next_request_id += 1
            pending = PendingQuery(request_id, request)
            if self._batcher.pending >= self.queue_capacity:
                self.metrics.count("serve.shed")
                self._finalize(pending, shed_response(
                    request_id, request,
                    f"queue full ({self.queue_capacity} pending); "
                    "request shed at admission",
                ))
                return pending
            self._batcher.add(
                Member(request_id, request, now, pending=pending), now
            )
            self.metrics.count("serve.accepted")
            depth = self._batcher.pending
            if depth > self.stats.queue_depth_peak:
                races.note_write(self.stats, "queue_depth_peak")
                self.stats.queue_depth_peak = depth
            self._cond.notify_all()
        return pending

    def submit_many(
        self, requests: list[QueryRequest]
    ) -> list[PendingQuery]:
        return [self.submit(request) for request in requests]

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def _next_batch(self) -> Batch | None:
        """Wait for a ready batch; ``None`` once closed and empty.

        Closing closes every open window, so a drain is prompt.
        """
        with self._cond:
            while True:
                now = math.inf if self._closed else self._clock()
                batch = self._batcher.pop(now)
                if batch is not None or self._closed:
                    return batch
                close = self._batcher.next_close()
                self._cond.wait(None if close is None else close - now)

    def _worker_loop(self) -> None:
        while (batch := self._next_batch()) is not None:
            self._execute_batch(batch)

    def _execute_batch(self, batch: Batch) -> None:
        with self._lock:
            batch_id = self._next_batch_id
            self._next_batch_id += 1
        live, expired = expire_before(batch.members, self._clock(), batch_id)
        for member, response in expired:
            self.metrics.count("serve.timeouts")
            self._finalize(member.pending, response)
        if not live:
            return
        graph = self.store.graph(batch.key[0])
        with self._lock:
            # List appends on the stats aggregate come from every worker.
            races.note_write(self.stats, "batch_sizes")
            self.stats.batch_sizes.append(len(live))
        requests = [member.request for member in live]
        self.metrics.count("serve.batches")
        self.metrics.count("serve.batched_queries", len(live))
        with self.metrics.span(
            "serve.batch", batch_id=batch_id,
            app=requests[0].app, graph=requests[0].graph, size=len(live),
        ) as batch_span:
            try:
                execution = self.executor.execute(graph, requests)
            except Exception as exc:  # noqa: BLE001 - fault boundary
                batch_span.set("failed", True)
                self._retry_or_reject(live, exc)
                return
            batch_span.set("sim_seconds", execution.sim_seconds)
            batch_span.set("runs", execution.num_runs)
        responses = settle(
            live, execution.results, self._clock(), batch_id,
            execution.sim_seconds / len(live),
        )
        for member, response in zip(live, responses):
            if response.status is QueryStatus.TIMEOUT:
                self.metrics.count("serve.timeouts")
            self._finalize(member.pending, response)

    def _retry_or_reject(self, members: list[Member], exc: Exception) -> None:
        """Re-admit the failed batch's queries within the retry budget;
        reject the rest with a structured ``ERROR``."""
        now = self._clock()
        retried = []
        for member in members:
            if member.retries < self.max_retries:
                member.retries += 1
                self.metrics.count("serve.retries")
                retried.append(member)
            else:
                self.metrics.count("serve.errors")
                self._finalize(member.pending, error_response(member, exc, now))
        if retried:
            with self._cond:
                for member in retried:
                    self._batcher.add(member, now)
                self._cond.notify_all()

    def _finalize(self, pending: PendingQuery, response: QueryResponse) -> None:
        self.metrics.count("serve.responses")
        latency = response.latency_seconds
        with self._lock:
            races.note_write(self.stats, "latencies")
            self.stats.latencies.append(latency)
        with self.metrics.span(
            "serve.request", request_id=response.request_id,
            app=response.app, status=response.status.value,
        ) as sp:
            sp.set("latency_seconds", latency)
            sp.set("batch_id", response.batch_id)
        pending._resolve(response)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop the broker.  ``drain=True`` serves queued queries first;
        ``drain=False`` sheds them with structured responses."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            now = self._clock()
            while not drain and (
                batch := self._batcher.pop(math.inf)
            ) is not None:
                for member in batch.members:
                    self.metrics.count("serve.shed")
                    self._finalize(member.pending, shed_response(
                        member.request_id, member.request,
                        "broker closed before execution",
                        latency=now - member.arrival,
                    ))
            self._cond.notify_all()
        for worker in self._workers:
            worker.join()
        self._publish_gauges()
        self._run_span.set("responses", len(self.stats.latencies))
        self._run_span.__exit__(None, None, None)
        self._race.close()

    def _publish_gauges(self) -> None:
        elapsed = max(self._clock() - self._start_time, 1e-12)
        # Lock-free reads: every worker has been joined by close(), so
        # their writes happen-before this fold.
        races.note_read(self.stats, "queue_depth_peak")
        races.note_read(self.stats, "batch_sizes")
        races.note_read(self.stats, "latencies")
        self.metrics.set_gauge(
            "serve.queue_depth_peak", float(self.stats.queue_depth_peak)
        )
        if self.stats.batch_sizes:
            self.metrics.set_gauge(
                "serve.batch_occupancy_mean",
                float(np.mean(self.stats.batch_sizes)),
            )
        if self.stats.latencies:
            p50, p95, p99 = np.percentile(
                np.asarray(self.stats.latencies), [50, 95, 99]
            )
            self.metrics.set_gauge("serve.latency_p50", float(p50))
            self.metrics.set_gauge("serve.latency_p95", float(p95))
            self.metrics.set_gauge("serve.latency_p99", float(p99))
        self.metrics.set_gauge(
            "serve.throughput_qps", len(self.stats.latencies) / elapsed
        )

    def __enter__(self) -> "QueryBroker":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close(drain=True)
