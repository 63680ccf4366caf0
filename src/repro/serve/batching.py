"""The micro-batching policy of the serving event loop.

Two queries are *compatible* when they share :func:`batch_key` (graph,
app and parameters) — exactly when the batched executor answers them
with one traversal.  :class:`Batcher` turns compatible arrivals into
batches and never reads a clock: every call takes ``now``, and the
event loop (:class:`~repro.serve.cluster._Replay`) plays
:meth:`Batcher.next_close` as an event.  Per replica and key, the first
arrival opens a batch whose window closes ``batch_window`` later.  A
batch is
ready when it fills to ``max_batch_size`` (its close time becomes the
filling arrival's) or when its window has closed, and an arrival never
joins a closed window, so membership depends only on arrival times.
Ready batches leave by close time, ties by ``(replica, repr(key))``.

The deadline sweeps (:func:`expire_before`, :func:`settle`) and the
response builders complete the policy.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import (
    AdmissionError,
    DeadlineExceededError,
    InvalidParameterError,
)
from repro.serve.request import QueryRequest, QueryResponse, QueryStatus

#: A compatibility key: (graph handle, app kind, normalized params).
BatchKey = tuple[str, str, tuple[tuple[str, Any], ...]]


def batch_key(request: QueryRequest) -> BatchKey:
    """Queries coalesce iff they share this key (source excluded)."""
    return (request.graph, request.app, request.params)


@dataclass
class Member:
    """One admitted query riding a batch (``retries`` counts its
    re-admissions after a failed batch)."""

    request_id: int
    request: QueryRequest
    arrival: float
    replica: int = 0
    retries: int = 0
    deadline: float | None = field(init=False)

    def __post_init__(self) -> None:
        seconds = self.request.deadline_seconds
        self.deadline = (
            self.arrival + seconds if seconds is not None else None
        )


@dataclass
class Batch:
    """A batch of compatible members bound for one replica."""

    replica: int
    key: BatchKey
    close_time: float
    members: list[Member]


class Batcher:
    """Per-key batch formation over a caller-supplied clock."""

    def __init__(self, batch_window: float, max_batch_size: int) -> None:
        if batch_window < 0:
            raise InvalidParameterError("batch_window must be >= 0")
        if max_batch_size < 1:
            raise InvalidParameterError("max_batch_size must be >= 1")
        self.batch_window = float(batch_window)
        self.max_batch_size = int(max_batch_size)
        self.pending = 0
        self._open: dict[tuple[int, BatchKey], Batch] = {}
        # Entries are (close_time, replica, repr(key), seq, batch); the
        # seq keeps batches out of comparisons.  An entry whose time is
        # no longer its batch's close time is stale: the batch filled.
        self._heap: list[tuple[Any, ...]] = []
        self._seq = itertools.count()

    def add(self, member: Member, now: float) -> None:
        """Admit ``member`` at ``now`` into its replica and key's batch."""
        slot = (member.replica, batch_key(member.request))
        batch = self._open.get(slot)
        if batch is None or batch.close_time <= now:
            batch = Batch(slot[0], slot[1], now + self.batch_window, [])
            self._open[slot] = batch
            self._push(batch)
        batch.members.append(member)
        self.pending += 1
        if len(batch.members) == self.max_batch_size:
            del self._open[slot]
            if batch.close_time > now:
                batch.close_time = now
                self._push(batch)

    def next_close(self) -> float | None:
        """The earliest close time of any batch held (``None`` if none)."""
        while self._heap and self._heap[0][0] != self._heap[0][-1].close_time:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def pop(self, now: float) -> Batch | None:
        """Remove and return the first batch ready at ``now``, or
        ``None``.  ``now=inf`` closes every window (a drain)."""
        close = self.next_close()
        if close is None or close > now:
            return None
        batch: Batch = heapq.heappop(self._heap)[-1]
        slot = (batch.replica, batch.key)
        if self._open.get(slot) is batch:
            del self._open[slot]
        self.pending -= len(batch.members)
        return batch

    def _push(self, batch: Batch) -> None:
        heapq.heappush(self._heap, (
            batch.close_time, batch.replica, repr(batch.key),
            next(self._seq), batch,
        ))


# ----------------------------------------------------------------------
# Deadline sweeps and response builders
# ----------------------------------------------------------------------


def expire_before(
    members: list[Member], now: float, batch_id: int
) -> tuple[list[Member], list[tuple[Member, QueryResponse]]]:
    """Pre-execution sweep: the members still live at ``now``, and a
    ``TIMEOUT`` for each one whose deadline has passed (expired queries
    must not consume device time)."""
    live: list[Member] = []
    expired: list[tuple[Member, QueryResponse]] = []
    for member in members:
        if member.deadline is not None and now > member.deadline:
            expired.append((member, timeout_response(
                member, now, "before execution", batch_id, 0
            )))
        else:
            live.append(member)
    return live, expired


def settle(
    members: list[Member],
    results: list[dict[str, np.ndarray]],
    now: float,
    batch_id: int,
    share: float,
) -> list[QueryResponse]:
    """Post-execution sweep, in member order: ``OK`` with the result, or
    ``TIMEOUT`` when the answer arrived after the deadline (a client
    never sees a late result as a success)."""
    size = len(members)
    return [
        timeout_response(member, now, "after execution", batch_id, size)
        if member.deadline is not None and now > member.deadline
        else QueryResponse(
            request_id=member.request_id,
            app=member.request.app,
            status=QueryStatus.OK,
            result=result,
            batch_id=batch_id,
            batch_size=size,
            sim_seconds=share,
            latency_seconds=now - member.arrival,
            retries=member.retries,
        )
        for member, result in zip(members, results)
    ]


def timeout_response(
    member: Member, now: float, phase: str, batch_id: int, size: int
) -> QueryResponse:
    """A deadline miss ``before execution`` or ``after execution``."""
    return QueryResponse(
        request_id=member.request_id,
        app=member.request.app,
        status=QueryStatus.TIMEOUT,
        error=f"deadline exceeded {phase}",
        error_type=DeadlineExceededError.__name__,
        batch_id=batch_id,
        batch_size=size,
        latency_seconds=now - member.arrival,
        retries=member.retries,
    )


def error_response(
    member: Member, exc: Exception, now: float
) -> QueryResponse:
    """The structured rejection of a query whose retries ran out."""
    return QueryResponse(
        request_id=member.request_id,
        app=member.request.app,
        status=QueryStatus.ERROR,
        error=f"batch execution failed: {exc}",
        error_type=type(exc).__name__,
        retries=member.retries,
        latency_seconds=now - member.arrival,
    )


def shed_response(
    request_id: int,
    request: QueryRequest,
    error: str,
    error_type: str = AdmissionError.__name__,
    latency: float = 0.0,
) -> QueryResponse:
    """A query refused before execution; it carries no result."""
    return QueryResponse(
        request_id=request_id,
        app=request.app,
        status=QueryStatus.SHED,
        error=error,
        error_type=error_type,
        latency_seconds=latency,
    )
