"""The asynchronous query broker: admission, batching, worker dispatch.

:class:`QueryBroker` is the serving front door.  Clients ``submit``
typed :class:`~repro.serve.request.QueryRequest` objects and get a
:class:`PendingQuery` future back; a pool of worker threads claims the
queue head, waits out the micro-batching window, coalesces every
compatible queued query (same graph + app + params, up to the batch
cap) and dispatches the batch to a
:class:`~repro.serve.executor.BatchExecutor` over simulated devices.

Overload and failure handling is structural, never silent:

* **admission control** — the queue is bounded; a submit against a full
  queue is *shed* immediately (``SHED`` response, ``serve.shed``).
* **deadlines** — a query whose absolute deadline passes before (or
  during) execution resolves to ``TIMEOUT``; late results are dropped,
  so a client never observes a wrong-but-on-time answer.
* **worker failures** — an executor exception fails only its batch;
  affected queries are re-queued up to ``max_retries`` times and then
  rejected with a structured ``ERROR`` response carrying the original
  exception type; queries in other batches are untouched.

Every lifecycle event is counted/spanned through :mod:`repro.obs` under
the ``serve.*`` names registered in :mod:`repro.obs.names`.
"""

from __future__ import annotations

import time
from collections import deque
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
from repro.graph.delta import GraphDelta, patch_csr
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.serve.batching import batch_key
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


@dataclass
class _Entry:
    """One admitted query riding the broker queue."""

    pending: PendingQuery
    arrival: float
    deadline: float | None
    retries: int = 0

    @property
    def request(self) -> QueryRequest:
        return self.pending.request


@dataclass
class BrokerStats:
    """Aggregates the broker folds into gauges at :meth:`~QueryBroker.close`."""

    queue_depth_peak: int = 0
    batch_sizes: list[int] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)


class QueryBroker:
    """Bounded-queue, micro-batching broker over a worker pool."""

    _guarded_by = {
        "_queue": ("_lock", "_cond"),
        "_closed": ("_lock", "_cond"),
        "_inflight": ("_lock", "_cond"),
        "_next_request_id": ("_lock", "_cond"),
        "_next_batch_id": ("_lock", "_cond"),
        "graphs": ("_lock", "_cond"),
    }

    def __init__(
        self,
        graphs: Mapping[str, CSRGraph],
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
        if batch_window < 0:
            raise InvalidParameterError("batch_window must be >= 0")
        if max_batch_size < 1:
            raise InvalidParameterError("max_batch_size must be >= 1")
        if num_workers < 1:
            raise InvalidParameterError("num_workers must be >= 1")
        if queue_capacity < 1:
            raise InvalidParameterError("queue_capacity must be >= 1")
        if max_retries < 0:
            raise InvalidParameterError("max_retries must be >= 0")
        self.graphs = dict(graphs)
        self.batch_window = float(batch_window)
        self.max_batch_size = int(max_batch_size)
        self.num_workers = int(num_workers)
        self.queue_capacity = int(queue_capacity)
        self.max_retries = int(max_retries)
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        # Activate before any lock or worker is created so the whole
        # broker lifetime is tracked.  If a detector is already active
        # (an enclosing ``instrumented`` block or pytest fixture), join
        # it instead of owning a second one.
        self.race_detector: RaceDetector | None = None
        self._owns_race_detector = False
        if race_check:
            self.race_detector = races.active_detector()
            if self.race_detector is None:
                self.race_detector = RaceDetector(metrics=self.metrics)
                races.activate(self.race_detector)
                self._owns_race_detector = True
        self.executor = executor or BatchExecutor(
            scheduler_factory, metrics=self.metrics
        )
        self._clock = clock
        self._queue: deque[_Entry] = deque()
        # Reentrant: _finalize (which appends to stats under the lock)
        # is reachable from submit/close while the condition is held.
        self._lock = races.make_rlock("broker.lock")
        self._cond = races.make_condition(self._lock, "broker.cond")
        self._closed = False
        self._inflight = 0
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
        with self._lock:
            races.note_read(self, "graphs")
            known = request.graph in self.graphs
            registered = sorted(self.graphs) if not known else []
        if not known:
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
            if len(self._queue) >= self.queue_capacity:
                self.metrics.count("serve.shed")
                self._finalize(
                    pending,
                    QueryResponse(
                        request_id=request_id,
                        app=request.app,
                        status=QueryStatus.SHED,
                        error=(
                            f"queue full ({self.queue_capacity} pending); "
                            "request shed at admission"
                        ),
                        error_type=AdmissionError.__name__,
                    ),
                    latency=0.0,
                )
                return pending
            deadline = (
                now + request.deadline_seconds
                if request.deadline_seconds is not None else None
            )
            self._queue.append(
                _Entry(pending=pending, arrival=now, deadline=deadline)
            )
            self.metrics.count("serve.accepted")
            depth = len(self._queue)
            if depth > self.stats.queue_depth_peak:
                races.note_write(self.stats, "queue_depth_peak")
                self.stats.queue_depth_peak = depth
            self._cond.notify_all()
        return pending

    def submit_many(
        self, requests: list[QueryRequest]
    ) -> list[PendingQuery]:
        return [self.submit(request) for request in requests]

    def update_graph(self, handle: str, graph: CSRGraph) -> None:
        """Swap in a fresh snapshot for ``handle``.

        The cluster tier's graph-update fanout: later batches execute
        against the new snapshot, in-flight batches keep the one they
        grabbed (under the same lock) at dispatch.
        """
        with self._lock:
            races.note_write(self, "graphs")
            self.graphs[handle] = graph

    def patch_graph(
        self, handle: str, delta: GraphDelta, snapshot: CSRGraph
    ) -> None:
        """Apply a structured delta to the local CSR instead of swapping.

        The replica-local half of the cluster's delta fanout: the
        broker's own copy of ``handle`` is patched with one sorted-merge
        pass (:func:`~repro.graph.delta.patch_csr`), which is
        bit-identical to the producing merge's output — no full snapshot
        needs shipping.  ``snapshot`` (the store's authoritative new
        CSR) is the fallback when the local copy is missing or from a
        different vertex set, so the swap semantics of
        :meth:`update_graph` are never weaker.
        """
        with self._lock:
            races.note_write(self, "graphs")
            current = self.graphs.get(handle)
            if (
                current is None
                or current.num_nodes != delta.num_nodes
            ):
                self.graphs[handle] = snapshot
                return
            self.graphs[handle] = patch_csr(current, delta)
        self.metrics.count("delta.replica_patches")

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def _claim_batch(self) -> list[_Entry] | None:
        """Claim the queue head and its compatible followers.

        Blocks until the head's batching window elapses, the batch cap
        fills, or the broker closes (which short-circuits the window so
        drain is prompt).  Returns ``None`` when the broker is closed
        and the queue is empty.
        """
        with self._cond:
            while True:
                if not self._queue:
                    if self._closed:
                        return None
                    self._cond.wait()
                    continue
                head = self._queue[0]
                key = batch_key(head.request)
                same = [
                    entry for entry in self._queue
                    if batch_key(entry.request) == key
                ]
                now = self._clock()
                window_closes = head.arrival + self.batch_window
                if (
                    len(same) >= self.max_batch_size
                    or now >= window_closes
                    or self._closed
                ):
                    batch = same[:self.max_batch_size]
                    taken = set(map(id, batch))
                    remaining = [
                        entry for entry in self._queue
                        if id(entry) not in taken
                    ]
                    self._queue.clear()
                    self._queue.extend(remaining)
                    self._inflight += 1
                    self._cond.notify_all()
                    return batch
                self._cond.wait(timeout=window_closes - now)

    def _worker_loop(self) -> None:
        while True:
            batch = self._claim_batch()
            if batch is None:
                return
            try:
                self._execute_batch(batch)
            finally:
                with self._cond:
                    self._inflight -= 1
                    self._cond.notify_all()

    def _execute_batch(self, batch: list[_Entry]) -> None:
        with self._lock:
            batch_id = self._next_batch_id
            self._next_batch_id += 1
        # Pre-execution deadline sweep: expired queries must not consume
        # device time (and must never receive a late result).
        now = self._clock()
        live: list[_Entry] = []
        for entry in batch:
            if entry.deadline is not None and now > entry.deadline:
                self._resolve_timeout(entry, batch_id, "before execution")
            else:
                live.append(entry)
        if not live:
            return
        with self._lock:
            # Snapshot under the lock: a cluster-tier graph swap
            # (GraphStore.update) may land concurrently, and list
            # appends on the stats aggregate come from every worker.
            races.note_read(self, "graphs")
            graph = self.graphs[live[0].request.graph]
            races.note_write(self.stats, "batch_sizes")
            self.stats.batch_sizes.append(len(live))
        requests = [entry.request for entry in live]
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
                self._handle_batch_failure(live, exc)
                return
            batch_span.set("sim_seconds", execution.sim_seconds)
            batch_span.set("runs", execution.num_runs)
        finish = self._clock()
        share = execution.sim_seconds / len(live)
        for entry, result in zip(live, execution.results):
            if entry.deadline is not None and finish > entry.deadline:
                # The answer exists but arrived late: surface a timeout,
                # never a stale-looking success.
                self._resolve_timeout(entry, batch_id, "after execution")
                continue
            self._finalize(
                entry.pending,
                QueryResponse(
                    request_id=entry.pending.request_id,
                    app=entry.request.app,
                    status=QueryStatus.OK,
                    result=result,
                    batch_id=batch_id,
                    batch_size=len(live),
                    sim_seconds=share,
                    latency_seconds=finish - entry.arrival,
                    retries=entry.retries,
                ),
                latency=finish - entry.arrival,
            )

    def _handle_batch_failure(
        self, batch: list[_Entry], exc: Exception
    ) -> None:
        """Retry or reject the failed batch's queries, one by one."""
        requeue: list[_Entry] = []
        now = self._clock()
        for entry in batch:
            if entry.retries < self.max_retries:
                entry.retries += 1
                self.metrics.count("serve.retries")
                requeue.append(entry)
            else:
                self.metrics.count("serve.errors")
                self._finalize(
                    entry.pending,
                    QueryResponse(
                        request_id=entry.pending.request_id,
                        app=entry.request.app,
                        status=QueryStatus.ERROR,
                        error=f"batch execution failed: {exc}",
                        error_type=type(exc).__name__,
                        retries=entry.retries,
                        latency_seconds=now - entry.arrival,
                    ),
                    latency=now - entry.arrival,
                )
        if requeue:
            with self._cond:
                self._queue.extend(requeue)
                self._cond.notify_all()

    def _resolve_timeout(
        self, entry: _Entry, batch_id: int, phase: str
    ) -> None:
        now = self._clock()
        self.metrics.count("serve.timeouts")
        self._finalize(
            entry.pending,
            QueryResponse(
                request_id=entry.pending.request_id,
                app=entry.request.app,
                status=QueryStatus.TIMEOUT,
                error=f"deadline exceeded {phase}",
                error_type=DeadlineExceededError.__name__,
                batch_id=batch_id,
                retries=entry.retries,
                latency_seconds=now - entry.arrival,
            ),
            latency=now - entry.arrival,
        )

    def _finalize(
        self, pending: PendingQuery, response: QueryResponse, *,
        latency: float,
    ) -> None:
        self.metrics.count("serve.responses")
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
            if not drain:
                while self._queue:
                    entry = self._queue.popleft()
                    self.metrics.count("serve.shed")
                    self._finalize(
                        entry.pending,
                        QueryResponse(
                            request_id=entry.pending.request_id,
                            app=entry.request.app,
                            status=QueryStatus.SHED,
                            error="broker closed before execution",
                            error_type=AdmissionError.__name__,
                        ),
                        latency=self._clock() - entry.arrival,
                    )
            self._cond.notify_all()
        for worker in self._workers:
            worker.join()
        self._publish_gauges()
        self._run_span.set("responses", len(self.stats.latencies))
        self._run_span.__exit__(None, None, None)
        if self._owns_race_detector:
            self._owns_race_detector = False
            races.deactivate()
            assert self.race_detector is not None
            self.race_detector.finalize()

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
