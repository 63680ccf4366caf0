"""Out-of-core traversal runners (paper Figure 8).

Three strategies for running when the graph exceeds device memory, all
executing the same functional pipeline and differing in how bytes cross
the PCIe link:

* :class:`SubwayRunner` — Subway [38]: per iteration, extract the
  *active subgraph* (the frontier's adjacency lists) on the host and
  ship it as one large asynchronous transfer that overlaps with compute.
* :class:`SageOutOfCoreRunner` — SAGE: on-demand sector access through a
  device-resident pool; Tiled Partitioning keeps accesses sector-aligned
  so missing sectors cluster into few large requests, resident data is
  reused across iterations, and Resident Tile Stealing keeps the memory
  pipeline busy (modeled by its scheduler's concurrency).
* :class:`OnDemandUMRunner` — naive unified-memory paging: page-granular
  faults, unmerged and unoverlapped, so the control-segment overhead of
  Section 3.3 crushes the effective bandwidth.

In all three, the node-attribute arrays (|V| * 4 B) stay device-resident
— it is the |E|-sized CSR image that exceeds device memory — so the
external traffic below is adjacency traffic, while attribute access
costs remain inside the kernel model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.apps.base import App
from repro.baselines.gunrock import GunrockScheduler
from repro.core.engine import SageScheduler
from repro.core.pipeline import Level, LevelPricer, RunResult, run_levels
from repro.core.scheduler import Scheduler
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.gpusim.device import Device
from repro.gpusim.spec import GPUSpec, LinkSpec, PCIE3_X16
from repro.gpusim.streams import H2D, HOST, TraceNode
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.obs.span import NullSpan, Span
from repro.outofcore.layout import GraphLayout, layout_for
from repro.outofcore.pool import SectorPool, contiguous_runs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.sanitizer import Sanitizer

#: Subway's subgraph generation scans the full host-resident edge list
#: to compact the active edges each round (SIMD-assisted).
SUBWAY_SCAN_NS_PER_EDGE = 0.25
#: unified-memory fault granularity.
UM_PAGE_BYTES = 4096
#: deep request pipelining from Resident Tile Stealing: many independent
#: tiles keep this many fetches in flight, amortizing per-request cost.
SAGE_REQUEST_PIPELINE = 8.0


class _OutOfCoreBase(LevelPricer):
    """Out-of-core pricing: a level is one kernel plus the link traffic
    its adjacency needs; :meth:`_level` says how the two combine in the
    trace."""

    name = "ooc"

    def __init__(
        self,
        scheduler: Scheduler,
        *,
        device_fraction: float = 0.25,
        link: LinkSpec = PCIE3_X16,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not 0.0 < device_fraction <= 1.0:
            raise InvalidParameterError("device_fraction must be in (0, 1]")
        self.scheduler = scheduler
        self.device_fraction = device_fraction
        self.link = link
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.transfer_seconds_total = 0.0
        self.bytes_transferred = 0
        self.requests_issued = 0
        self.sanitizer: "Sanitizer | None" = None
        self._device = Device(scheduler.spec)
        self._layout: GraphLayout | None = None

    def set_sanitizer(self, sanitizer: "Sanitizer | None") -> None:
        """Attach (or detach) a hazard sanitizer for subsequent runs."""
        self.sanitizer = sanitizer

    def run(
        self,
        graph: CSRGraph,
        app: App,
        source: int | None = None,
        *,
        max_iterations: int = 100_000,
    ) -> RunResult:
        """Run ``app`` out-of-core and return timing including transfers."""
        return run_levels(self, graph, app, source, max_iterations)

    def run_span(self, app: App) -> Span | NullSpan:
        return self.metrics.span(
            "ooc.run", runner=self.name, app=app.name,
            device_fraction=self.device_fraction,
        )

    def start(self, graph: CSRGraph, app: App) -> None:
        self._device = Device(self.scheduler.spec)
        self._layout = layout_for(graph, self.scheduler.spec)
        self.scheduler.set_metrics(self.metrics)
        self.scheduler.set_sanitizer(self.sanitizer)
        self.scheduler.reset(graph)
        self.transfer_seconds_total = 0.0
        self.bytes_transferred = 0
        self.requests_issued = 0

    def price(
        self, graph: CSRGraph, app: App, level: Level, trace: list[TraceNode]
    ) -> None:
        device = self._device
        timing = self._timed_kernel(
            device, self.scheduler.level_stats([level], graph, app),
            "kernel", kind="expand-filter",
        )
        # Group keys are spaced by 2 to leave room for a serial tail
        # group (Subway's extraction scan).
        kernel, = device.kernel_nodes(timing, [2 * level.index])
        level.span.set("kernel_seconds", kernel.seconds)
        self._level(kernel, level, trace)

    def finish(
        self, graph: CSRGraph, run_span: Span | NullSpan, result: RunResult
    ) -> None:
        metrics = self.metrics
        run_span.set("transfer_seconds", self.transfer_seconds_total)
        metrics.count("ooc.bytes_transferred", self.bytes_transferred)
        metrics.count("ooc.requests", self.requests_issued)
        metrics.count("ooc.transfer_seconds", self.transfer_seconds_total)
        metrics.fold_profiler(self._device.profiler)
        result.profiler = self._device.profiler
        result.extras["transfer_seconds"] = self.transfer_seconds_total
        result.extras["bytes_transferred"] = float(self.bytes_transferred)
        result.extras["requests"] = float(self.requests_issued)

    def _fetch(
        self, level: Level, payload: int, requests: int, link_requests: int
    ) -> float:
        """Move ``payload`` bytes of ``level``'s adjacency over the link
        as ``link_requests`` requests (``requests`` are counted); returns
        the transfer's seconds."""
        transfer = self.link.transfer_seconds(payload, requests=link_requests)
        self.transfer_seconds_total += transfer
        self.bytes_transferred += payload
        self.requests_issued += requests
        level.span.set("transfer_bytes", payload)
        return transfer

    def _level(
        self, kernel: TraceNode, level: Level, trace: list[TraceNode]
    ) -> None:
        """Fetch the level's adjacency and append the level's nodes
        (``kernel`` among them) to ``trace``."""
        raise NotImplementedError


class SubwayRunner(_OutOfCoreBase):
    """Active-subgraph extraction with asynchronous preloading."""

    name = "subway"

    def __init__(
        self,
        spec: GPUSpec | None = None,
        *,
        link: LinkSpec = PCIE3_X16,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(GunrockScheduler(spec), link=link, metrics=metrics)

    def _level(
        self, kernel: TraceNode, level: Level, trace: list[TraceNode]
    ) -> None:
        assert self._layout is not None
        # The active subgraph: frontier adjacency lists (4 B targets)
        # plus a compacted offsets array (8 B per frontier node),
        # shipped as one large batched transfer.
        payload = level.edge_dst.size * 4 + level.frontier.size * 8
        transfer = self._fetch(level, payload, requests=1, link_requests=1)
        # Subgraph generation compacts the active edges out of the full
        # host edge list every round.
        layout = self._layout
        total_edges = int(layout.targets_sectors * layout.sector_width)
        extract = total_edges * SUBWAY_SCAN_NS_PER_EDGE * 1e-9
        # Asynchronous preloading overlaps the transfer with compute
        # (one barrier group); the host-side extraction scan follows as
        # a serial tail group of its own.
        trace.append(kernel)
        trace.append(TraceNode(
            H2D, transfer, iteration=kernel.iteration, overlap=True,
        ))
        trace.append(TraceNode(HOST, extract, iteration=kernel.iteration + 1))


class SageOutOfCoreRunner(_OutOfCoreBase):
    """Tile-aligned on-demand access through a resident sector pool."""

    name = "sage-ooc"

    def __init__(
        self,
        spec: GPUSpec | None = None,
        *,
        device_fraction: float = 0.25,
        link: LinkSpec = PCIE3_X16,
        scheduler: Scheduler | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(
            scheduler or SageScheduler(spec),
            device_fraction=device_fraction,
            link=link,
            metrics=metrics,
        )
        self._pool: SectorPool | None = None

    def start(self, graph: CSRGraph, app: App) -> None:
        super().start(graph, app)
        assert self._layout is not None
        total = self._pool_units(self._layout)
        capacity = max(1, int(total * self.device_fraction))
        self._pool = SectorPool(capacity, total)

    def _pool_units(self, layout: GraphLayout) -> int:
        """Units the residency pool tracks (sectors by default)."""
        return layout.targets_sectors

    def _level(
        self, kernel: TraceNode, level: Level, trace: list[TraceNode]
    ) -> None:
        assert self._pool is not None and self._layout is not None
        layout = self._layout
        needed = layout.target_sectors_of(level.edge_pos)
        missing = self._pool.access(needed)
        payload = missing.size * layout.sector_bytes
        # Tile alignment merges contiguous missing sectors into single
        # requests (Section 5.3's alignment + Section 7.2's analysis);
        # Resident Tile Stealing keeps many independent fetches in
        # flight, amortizing the per-request controller cost.
        requests = contiguous_runs(missing)
        effective_requests = max(
            1, int(round(requests / SAGE_REQUEST_PIPELINE))
        ) if requests else 0
        transfer = self._fetch(level, payload, requests, effective_requests)
        # ...and overlaps fetches with compute on already-resident tiles:
        # kernel and fetch share the iteration barrier, whose makespan is
        # max(kernel, transfer).
        trace.append(kernel)
        trace.append(TraceNode(
            H2D, transfer, iteration=kernel.iteration, overlap=True,
        ))


class OnDemandUMRunner(SageOutOfCoreRunner):
    """Naive unified-memory paging: page-granular faults, no overlap.

    Every fault moves a whole 4 KiB page (over-fetch for scattered
    accesses) and stalls the faulting warp; faults are not merged.
    """

    name = "um-ondemand"

    def __init__(
        self,
        spec: GPUSpec | None = None,
        *,
        link: LinkSpec = PCIE3_X16,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(
            spec, link=link, scheduler=GunrockScheduler(spec), metrics=metrics,
        )

    def _pool_units(self, layout: GraphLayout) -> int:
        sectors_per_page = UM_PAGE_BYTES // layout.sector_bytes
        return max(1, -(-layout.targets_sectors // sectors_per_page))

    def _level(
        self, kernel: TraceNode, level: Level, trace: list[TraceNode]
    ) -> None:
        assert self._pool is not None and self._layout is not None
        layout = self._layout
        sectors_per_page = UM_PAGE_BYTES // layout.sector_bytes
        needed = layout.target_sectors_of(level.edge_pos) // sectors_per_page
        missing_pages = self._pool.access(needed)
        payload = missing_pages.size * UM_PAGE_BYTES
        requests = int(missing_pages.size)  # a fault per page, unmerged
        transfer = self._fetch(level, payload, requests, requests)
        # Page faults stall the kernel, so the transfer extends the
        # serial chain instead of overlapping it.
        trace.append(kernel)
        trace.append(TraceNode(H2D, transfer, iteration=kernel.iteration))
