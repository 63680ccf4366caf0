"""The typed tuning space: every knob the auto-tuner may move.

A :class:`TuningPoint` is one full assignment of the joint configuration
space the paper's "self-adaptive" claim spans — Beamer push/pull
thresholds (:class:`~repro.core.hybrid.HybridConfig`), the tile
decomposition floor (``min_tile``), the micro-batching window/cap, the
cluster routing policy, the AIMD admission knobs and the stream-pipeline
knobs (in-flight window, stream count, prefetch depth).  A
:class:`TuningSpace` is the ordered set of per-knob candidate values the
search DAG expands over: axis order is the DAG's level order, so the
highest-leverage knobs come first and shallow searches still move them.

Everything here is pure data: points are hashable (they key the
evaluation cache and the tuned-profile files) and round-trip through
JSON losslessly.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, fields
from typing import Any

import numpy as np

from repro.core.engine import SageScheduler
from repro.core.hybrid import DEFAULT_ALPHA, DEFAULT_BETA, HybridConfig
from repro.core.scheduler import Scheduler
from repro.core.tiling import DEFAULT_MIN_TILE
from repro.errors import InvalidParameterError
from repro.serve.admission import AdmissionConfig
from repro.serve.cluster import ROUTING_POLICIES
from repro.serve.pipelined import PipelineConfig


@dataclass(frozen=True)
class TuningPoint:
    """One full assignment of every tunable knob.

    Field defaults are exactly the hand-set constants the library ships
    with, so ``TuningPoint()`` *is* the default configuration and every
    speedup the tuner reports is measured against it.
    """

    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    min_tile: int = DEFAULT_MIN_TILE
    batch_window: float = 0.05
    max_batch_size: int = 64
    routing: str = "affinity"
    max_concurrency: int = 64
    backoff: float = 0.5
    recovery: float = 0.5
    in_flight: int = 1
    num_streams: int = 1
    prefetch_depth: int = 0

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise InvalidParameterError("alpha and beta must be positive")
        if self.min_tile < 1 or self.min_tile & (self.min_tile - 1):
            raise InvalidParameterError("min_tile must be a power of two")
        if self.batch_window < 0:
            raise InvalidParameterError("batch_window must be >= 0")
        if self.max_batch_size < 1:
            raise InvalidParameterError("max_batch_size must be >= 1")
        if self.routing not in ROUTING_POLICIES:
            raise InvalidParameterError(
                f"unknown routing policy {self.routing!r}; "
                f"expected one of {ROUTING_POLICIES}"
            )
        if self.max_concurrency < 1:
            raise InvalidParameterError("max_concurrency must be >= 1")
        if not 0.0 < self.backoff < 1.0:
            raise InvalidParameterError("backoff must be in (0, 1)")
        if self.recovery <= 0:
            raise InvalidParameterError("recovery must be > 0")
        # Delegates range checks for the pipeline knobs (>= 1 / >= 0).
        self.pipeline_config()

    def key(self) -> tuple[Any, ...]:
        """Canonical hashable identity (evaluation-cache key)."""
        return tuple(getattr(self, f.name) for f in fields(self))

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TuningPoint":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise InvalidParameterError(
                f"unknown tuning knobs {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(**dict(data))

    # ------------------------------------------------------------------
    # Projections onto the subsystems the knobs configure
    # ------------------------------------------------------------------

    def hybrid_config(self) -> HybridConfig:
        """The point's Beamer thresholds for direction-optimized BFS."""
        return HybridConfig(alpha=self.alpha, beta=self.beta)

    def admission_config(self) -> AdmissionConfig:
        """The point's AIMD admission knobs (rate limiting stays off)."""
        return AdmissionConfig(
            max_concurrency=self.max_concurrency,
            backoff=self.backoff,
            recovery=self.recovery,
        )

    def pipeline_config(self) -> PipelineConfig:
        """The point's stream-pipeline knobs (defaults = synchronous)."""
        return PipelineConfig(
            in_flight=self.in_flight,
            num_streams=self.num_streams,
            prefetch_depth=self.prefetch_depth,
        )

    def scheduler_factory(self) -> Callable[[], Scheduler]:
        """A fresh-SAGE-scheduler factory carrying the point's tile floor."""
        min_tile = self.min_tile

        def factory() -> Scheduler:
            return SageScheduler(min_tile=min_tile)

        return factory


#: The default candidate grid, ordered by expected leverage: batching
#: first (it moves the serving tier directly), then the stream-pipeline
#: window (it cuts device busy time directly), the per-kernel tile
#: floor, the Beamer thresholds, routing, the admission knobs, and
#: last the out-of-core prefetch depth (a no-op for in-core workloads).
DEFAULT_AXES: tuple[tuple[str, tuple[Any, ...]], ...] = (
    ("batch_window", (0.02, 0.05, 0.1, 0.2)),
    ("max_batch_size", (16, 64, 128)),
    ("in_flight", (1, 2, 4)),
    ("num_streams", (1, 2, 4)),
    ("min_tile", (4, 8, 16, 32)),
    ("alpha", (4.0, 8.0, 14.0, 24.0, 48.0)),
    ("beta", (8.0, 24.0, 64.0)),
    ("routing", ("round_robin", "least_outstanding", "affinity")),
    ("max_concurrency", (16, 64)),
    ("backoff", (0.25, 0.5)),
    ("recovery", (0.5, 2.0)),
    ("prefetch_depth", (0, 1, 2)),
)


class TuningSpace:
    """An ordered grid of candidate values per knob (the search DAG).

    ``axes`` maps knob name → candidate tuple; iteration order is the
    DAG's level order.  Every knob must be a :class:`TuningPoint` field
    and every candidate must validate, so any full assignment the search
    reaches is a constructible point.
    """

    def __init__(
        self,
        axes: Sequence[tuple[str, Sequence[Any]]] | None = None,
    ) -> None:
        axes = tuple(axes) if axes is not None else DEFAULT_AXES
        known = {f.name for f in fields(TuningPoint)}
        self.axes: tuple[tuple[str, tuple[Any, ...]], ...] = tuple(
            (name, tuple(values)) for name, values in axes
        )
        seen: set[str] = set()
        for name, values in self.axes:
            if name not in known:
                raise InvalidParameterError(
                    f"unknown tuning knob {name!r}; "
                    f"expected one of {sorted(known)}"
                )
            if name in seen:
                raise InvalidParameterError(f"duplicate axis {name!r}")
            if not values:
                raise InvalidParameterError(f"axis {name!r} has no candidates")
            seen.add(name)
        # Any combination must construct; validate each candidate alone.
        for name, values in self.axes:
            for value in values:
                TuningPoint(**{name: value})

    @property
    def size(self) -> int:
        """Number of full assignments in the grid."""
        total = 1
        for _, values in self.axes:
            total *= len(values)
        return total

    def point(self, assignment: Mapping[str, Any]) -> TuningPoint:
        """A full point from a (possibly partial) axis assignment."""
        return TuningPoint(**dict(assignment))

    def sample(self, rng: np.random.Generator) -> TuningPoint:
        """A point by seeded uniform choice per axis."""
        return self.point({
            name: values[int(rng.integers(len(values)))]
            for name, values in self.axes
        })

    def to_list(self) -> list[list[Any]]:
        """JSON form: ``[[axis, [candidates...]], ...]``.

        A list of pairs, not a dict — axis order is the search DAG's
        level order and must survive key-sorting JSON serializers.
        """
        return [[name, list(values)] for name, values in self.axes]

    @classmethod
    def from_list(
        cls, data: Sequence[Sequence[Any]]
    ) -> "TuningSpace":
        return cls(tuple((name, tuple(values)) for name, values in data))

    @classmethod
    def from_dict(cls, data: Mapping[str, Sequence[Any]]) -> "TuningSpace":
        return cls(tuple((name, tuple(values)) for name, values in data.items()))


DEFAULT_SPACE = TuningSpace()
