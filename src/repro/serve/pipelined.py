"""Pipelined batch execution: overlap batches on one simulated device.

:meth:`BatchExecutor.compile <repro.serve.executor.BatchExecutor.compile>`
executes a batch through the ordinary (bit-identical) path and then
recompiles the per-run device timelines recorded in
``RunResult.node_trace`` into one :class:`~repro.gpusim.streams.BatchDag`.
A :class:`ReplicaPipeline` then admits up to ``in_flight`` such DAGs into
one :class:`~repro.gpusim.streams.StreamDevice`, so independent nodes
from *different* batches interleave — kernels co-run under honest
occupancy sharing, transfers ride the copy engines beside another
batch's compute, and out-of-core prefetch is issued ``prefetch_depth``
iterations early.

Only virtual time moves: results are produced before any DAG is
scheduled, so pipelined responses are bit-identical to the
batch-at-a-time replica (and therefore to the ``run_direct`` oracle) by
construction.  The differential tests in ``tests/serve/`` pin this.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import InvalidParameterError
from repro.gpusim.streams import BatchDag, StreamDevice
from repro.obs import MetricsRegistry
from repro.serve.executor import BatchExecution


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the stream/event pipeline (defaults = synchronous).

    Attributes:
        in_flight: batches concurrently admitted per replica device; 1
            reproduces the batch-at-a-time executor timeline exactly.
        num_streams: compute launch queues per device; runs mapped to
            the same stream serialize, distinct streams co-run subject
            to occupancy.
        prefetch_depth: how many iterations early an out-of-core
            transfer is issued (see
            :func:`~repro.gpusim.streams.dag_from_run`).
    """

    in_flight: int = 1
    num_streams: int = 1
    prefetch_depth: int = 0

    def __post_init__(self) -> None:
        if self.in_flight < 1:
            raise InvalidParameterError("in_flight must be >= 1")
        if self.num_streams < 1:
            raise InvalidParameterError("num_streams must be >= 1")
        if self.prefetch_depth < 0:
            raise InvalidParameterError("prefetch_depth must be >= 0")

    @property
    def enabled(self) -> bool:
        """Whether any knob departs from synchronous behaviour."""
        return (
            self.in_flight > 1
            or self.num_streams > 1
            or self.prefetch_depth > 0
        )


class ReplicaPipeline:
    """In-flight admission window in front of one stream device.

    At most ``config.in_flight`` batch DAGs are resident on the device;
    further submissions queue FIFO and are admitted the moment a
    resident batch completes, released no earlier than their own ready
    time.  All bookkeeping is in virtual time and fully deterministic.
    """

    def __init__(
        self,
        config: PipelineConfig,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config
        self.device = StreamDevice(num_streams=config.num_streams)
        self.metrics = metrics
        self._waiting: deque[tuple[int, BatchDag, float]] = deque()
        self._local_of: dict[int, int] = {}
        self._next_local = 0
        self._in_flight = 0
        self.inflight_peak = 0

    def earliest_start(self, ready: float) -> float:
        """The start a pre-execution deadline check can count on.

        The window may hold a batch back, and for how long is not known
        until it is admitted, so this is ``ready`` itself; queueing
        delay surfaces as a post-execution timeout instead.
        """
        return ready

    def submit(self, execution: BatchExecution, ready: float) -> int:
        """Enqueue one compiled batch; returns a completion handle."""
        dag = execution.dag
        if dag is None:
            raise InvalidParameterError(
                "submit a compiled batch (BatchExecutor.compile)"
            )
        local = self._next_local
        self._next_local += 1
        if self._in_flight < self.config.in_flight:
            self._admit(local, dag, ready)
        else:
            self._waiting.append((local, dag, ready))
            if self.metrics is not None:
                self.metrics.count("pipeline.queued_batches")
        return local

    def _admit(self, local: int, dag: BatchDag, release: float) -> None:
        handle = self.device.admit(dag, release)
        self._local_of[handle] = local
        self._in_flight += 1
        self.inflight_peak = max(self.inflight_peak, self._in_flight)

    def next_event_time(self) -> float | None:
        return self.device.next_event_time()

    def advance_to(self, limit: float) -> list[tuple[int, float]]:
        """Process device events up to ``limit``.

        Returns ``(handle, finish)`` for every batch that completed,
        ordered by (finish, submission order).  Completions free window
        slots, so queued batches admitted in their wake are also played
        out up to ``limit``.
        """
        out: list[tuple[int, float]] = []
        while True:
            done = self.device.advance_to(limit)
            if not done:
                break
            for completion in done:
                self._in_flight -= 1
                out.append(
                    (self._local_of.pop(completion.handle),
                     completion.finish)
                )
                if self._waiting:
                    local, dag, ready = self._waiting.popleft()
                    self._admit(local, dag, max(ready, completion.finish))
        out.sort(key=lambda item: (item[1], item[0]))
        return out
