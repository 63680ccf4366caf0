"""Typed requests and responses of the batched traversal query service.

A :class:`QueryRequest` names an application kind, a registered graph
handle, an optional source node, frozen application parameters and an
optional latency budget.  The service answers each request with a
:class:`QueryResponse` whose ``status`` is one of :class:`QueryStatus`;
a non-``OK`` response never carries a result — the service surfaces
structured errors, never wrong answers (:func:`raise_for_status` turns
one into its typed exception).
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import (
    AdmissionError,
    DeadlineExceededError,
    InvalidParameterError,
    WorkerFailureError,
)

#: Application kinds the service can execute (see `repro.serve.executor`).
SERVE_APPS = ("bfs", "sssp", "pr", "ppr", "walk", "node2vec", "khop", "sppr")

#: Kinds whose queries require a source node.
SOURCE_APPS = frozenset(
    {"bfs", "sssp", "ppr", "walk", "node2vec", "khop", "sppr"}
)

#: Sampling kinds: coalesced into one combined-app run per batch, with
#: counter-based RNG keeping every stream bit-identical to its oracle.
SAMPLING_APPS = frozenset({"walk", "node2vec", "khop", "sppr"})


class QueryStatus(enum.Enum):
    """Terminal state of one query."""

    OK = "ok"
    TIMEOUT = "timeout"      # deadline passed (before or after execution)
    SHED = "shed"            # refused at admission under overload
    ERROR = "error"          # bad source, or batch failure past its retries


def normalize_params(params: Mapping[str, Any] | None) -> tuple[tuple[str, Any], ...]:
    """Canonical, hashable form of app parameters (sorted key/value pairs)."""
    if not params:
        return ()
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class QueryRequest:
    """One traversal query.

    ``deadline_seconds`` is a relative latency budget: the service
    stamps an absolute deadline at admission (arrival + budget) on the
    clock that stamped the arrival.
    """

    app: str
    graph: str
    source: int | None = None
    params: tuple[tuple[str, Any], ...] = ()
    deadline_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.app not in SERVE_APPS:
            raise InvalidParameterError(
                f"unknown serve app {self.app!r}; expected one of {SERVE_APPS}"
            )
        if isinstance(self.params, Mapping):
            object.__setattr__(self, "params", normalize_params(self.params))
        else:
            object.__setattr__(self, "params", tuple(self.params))
        if self.app in SOURCE_APPS and self.source is None:
            raise InvalidParameterError(f"{self.app} queries require a source")
        if self.deadline_seconds is not None and self.deadline_seconds < 0:
            raise InvalidParameterError("deadline_seconds must be >= 0")

    def param_dict(self) -> dict[str, Any]:
        return dict(self.params)


@dataclass
class QueryResponse:
    """Outcome of one query.

    ``result`` is populated only for ``OK`` responses and is bit-identical
    to the direct single-query ``run_app`` oracle (the differential test
    harness pins this).  ``sim_seconds`` is the simulated device time
    attributed to this query's batch run; ``latency_seconds`` is the
    arrival and batch window on the serving clock (virtual in a replay,
    the handle's clock in a live service) plus simulated device
    seconds.
    """

    request_id: int
    app: str
    status: QueryStatus
    result: dict[str, np.ndarray] | None = None
    error: str | None = None
    error_type: str | None = None
    batch_id: int = -1
    batch_size: int = 0
    sim_seconds: float = 0.0
    latency_seconds: float = 0.0
    retries: int = 0
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status is QueryStatus.OK

    def __post_init__(self) -> None:
        # The service-level invariant: only OK responses carry data.
        if self.status is not QueryStatus.OK and self.result is not None:
            raise InvalidParameterError(
                f"{self.status} response must not carry a result"
            )


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
