"""The metrics registry — counters, gauges and span trees for one run.

This is the cross-layer observability spine (the stand-in for the Nsight
profiling the paper's Section 7 evaluation is built on): every layer of
the stack — the traversal pipeline, the SAGE scheduler, the out-of-core
and multi-GPU runners, and the simulated device's :class:`Profiler` —
reports into one :class:`MetricsRegistry`, so a single run yields a
single hierarchical report (run → iteration → kernel → cost-model
breakdown, plus transfer volumes and steal counts).

Three metric kinds:

* **counters** — monotone accumulations (``count``) or snapshots
  (``set_counter``); summed by :meth:`merge`.
* **gauges** — last-written point-in-time values; overwritten by merge.
* **spans** — nested timed regions (see :mod:`repro.obs.span`).

Thread safety: counters/gauges/published roots are lock-protected; open
span stacks are per-thread.  Disabled registries hand out a shared no-op
span and return before touching any dict, so instrumentation left in hot
loops is effectively free when observability is off.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.obs.span import NULL_SPAN, NullSpan, Span

#: Raw accumulator fields of :class:`repro.gpusim.profiler.Profiler`
#: mirrored into the registry by :meth:`MetricsRegistry.fold_profiler`.
#: Kept as an explicit tuple so drift against the dataclass is caught by
#: the fold itself (``getattr`` raises) and by the obs test suite.
PROFILER_COUNTER_FIELDS = (
    "kernels", "total_cycles", "compute_cycles", "memory_cycles",
    "overhead_cycles", "launch_cycles", "active_edges",
    "issued_lane_cycles", "value_sector_touches", "csr_sector_touches",
    "dram_bytes", "atomic_conflicts", "memory_bound_kernels",
)

#: Derived :class:`repro.gpusim.profiler.Profiler` properties mirrored
#: into gauges by :meth:`MetricsRegistry.fold_profiler`.
PROFILER_GAUGE_FIELDS = ("lane_efficiency", "overhead_fraction")


class MetricsRegistry:
    """Counters, gauges and span trees for one observed run."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self._roots: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Scalar metrics
    # ------------------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        """Accumulate into a named counter."""
        if not self.enabled:
            return
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + float(amount)

    def set_counter(self, name: str, value: float) -> None:
        """Snapshot-assign a counter (idempotent; merge still sums)."""
        if not self.enabled:
            return
        with self._lock:
            self.counters[name] = float(value)

    def set_gauge(self, name: str, value: float) -> None:
        """Record a point-in-time value (last write wins)."""
        if not self.enabled:
            return
        with self._lock:
            self.gauges[name] = float(value)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def span(self, name: str, **attributes: Any) -> Span | NullSpan:
        """Create a span; use as ``with registry.span("iteration") as sp``.

        Returns the shared :data:`NULL_SPAN` when disabled, so callers
        never branch on :attr:`enabled` themselves.
        """
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, dict(attributes))

    def _stack(self) -> list[Span]:
        stack: list[Span] | None = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _open_span(self, span: Span) -> None:
        self._stack().append(span)

    def _close_span(self, span: Span) -> None:
        stack = self._stack()
        # Closing out of order (a caller kept a span open across a
        # sibling's lifetime) unwinds to the matching entry so the tree
        # stays consistent instead of corrupting the stack.
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._roots.append(span)

    @property
    def roots(self) -> list[Span]:
        """Completed top-level spans, in completion order."""
        with self._lock:
            return list(self._roots)

    # ------------------------------------------------------------------
    # Profiler integration (the gpusim leaf level)
    # ------------------------------------------------------------------

    def fold_profiler(self, profiler: Any) -> None:
        """Mirror a :class:`~repro.gpusim.profiler.Profiler` into counters.

        Snapshot semantics (``set_counter``): the profiler is itself the
        accumulator, so folding the same device twice is idempotent and
        the registry's ``gpusim.*`` counters always equal the profiler
        field-for-field — the exactness contract the golden tests pin.
        """
        if not self.enabled:
            return
        for name in PROFILER_COUNTER_FIELDS:
            self.set_counter(f"gpusim.{name}", float(getattr(profiler, name)))
        for derived in PROFILER_GAUGE_FIELDS:
            value = getattr(profiler, derived, None)
            if value is not None:
                self.set_gauge(f"gpusim.{derived}", float(value))

    # ------------------------------------------------------------------
    # Merge / report
    # ------------------------------------------------------------------

    def merge(self, other: "MetricsRegistry", prefix: str = "") -> None:
        """Fold another registry in: counters sum, gauges last-write-win,
        span roots append.  ``prefix`` namespaces the incoming scalar
        names (``gpu0.`` for per-device registries in multi-GPU runs).
        """
        if not self.enabled:
            return
        with other._lock:
            counters = dict(other.counters)
            gauges = dict(other.gauges)
            roots = list(other._roots)
        with self._lock:
            for name, value in counters.items():
                key = prefix + name
                self.counters[key] = self.counters.get(key, 0.0) + value
            for name, value in gauges.items():
                self.gauges[prefix + name] = value
            self._roots.extend(roots)

    def report(self) -> dict[str, Any]:
        """The full hierarchical report as a JSON-ready dict."""
        with self._lock:
            return {
                "counters": dict(sorted(self.counters.items())),
                "gauges": dict(sorted(self.gauges.items())),
                "spans": [root.to_dict() for root in self._roots],
            }

    def reset(self) -> None:
        """Drop all collected metrics (the enabled flag is kept)."""
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self._roots.clear()
        self._local = threading.local()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "on" if self.enabled else "off"
        return (
            f"MetricsRegistry({state}, {len(self.counters)} counters, "
            f"{len(self._roots)} root spans)"
        )


#: Shared disabled registry: the default sink for instrumented code paths
#: when no registry is supplied, keeping call sites unconditional.
NULL_REGISTRY = MetricsRegistry(enabled=False)
