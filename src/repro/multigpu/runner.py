"""Multi-GPU traversal runner (paper Figure 9).

Nodes are partitioned across devices; every iteration each GPU expands
its share of the frontier, then boundary-crossing frontier updates are
exchanged over the peer link and the devices synchronize.  The paper's
observation that "using two GPUs does not always lead to better
performance" falls out of the model: per-iteration kernels shrink, but
the exchange + synchronization cost is paid every iteration.

Bulk-synchronous engines (Gunrock-style, SAGE) pay the full barrier;
Groute's asynchronous model overlaps communication with compute and pays
a reduced coordination cost (``async_mode=True``).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.apps.base import App
from repro.core.pipeline import MAX_ITERATIONS, Level, LevelPricer, RunResult, run_levels
from repro.core.scheduler import Scheduler
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.gpusim.device import Device
from repro.gpusim.profiler import Profiler
from repro.gpusim.spec import LinkSpec, NVLINK2
from repro.gpusim.streams import KERNEL, TraceNode
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.obs.span import NullSpan, Span

#: bulk-synchronous barrier cost per iteration (all-device sync).
SYNC_BARRIER_US = 1.5
#: Groute-style asynchronous coordination cost per iteration.
ASYNC_COORD_US = 0.8
#: bytes per exchanged frontier update (node id + payload value).
BYTES_PER_MESSAGE = 8


class MultiGpuRunner(LevelPricer):
    """Runs one application across ``k`` simulated GPUs.

    A level is one kernel per GPU over its share of the frontier, then
    the exchange of boundary-crossing updates and the barrier.
    """

    def __init__(
        self,
        scheduler_factory: Callable[[], Scheduler],
        assignment: np.ndarray,
        *,
        num_gpus: int = 2,
        link: LinkSpec = NVLINK2,
        async_mode: bool = False,
        name: str | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if num_gpus < 1:
            raise InvalidParameterError("num_gpus must be >= 1")
        self.assignment = np.asarray(assignment, dtype=np.int64)
        if self.assignment.size and self.assignment.max() >= num_gpus:
            raise InvalidParameterError("assignment references unknown GPU")
        self.num_gpus = num_gpus
        self.link = link
        self.async_mode = async_mode
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        # Each simulated GPU reports into its own registry — mirroring a
        # per-device collector in a real deployment — and the per-device
        # registries are merged into the run registry under gpu<i>.*.
        self.device_metrics = [
            MetricsRegistry(enabled=self.metrics.enabled)
            for _ in range(num_gpus)
        ]
        self.schedulers = [scheduler_factory() for _ in range(num_gpus)]
        self.devices: list[Device] = []
        base = self.schedulers[0].name
        self.name = name or f"{base}-x{num_gpus}"
        self._comm_seconds = 0.0
        self._messages = 0

    def run(self, graph: CSRGraph, app: App, source: int | None = None) -> RunResult:
        """Execute ``app`` across the GPUs; returns makespan timing."""
        return run_levels(self, graph, app, source, MAX_ITERATIONS)

    def run_span(self, app: App) -> Span | NullSpan:
        return self.metrics.span(
            "multigpu.run", runner=self.name, app=app.name,
            num_gpus=self.num_gpus, async_mode=self.async_mode,
        )

    def start(self, graph: CSRGraph, app: App) -> None:
        # Fresh devices per run, so a run's profiler and its gpu<i>.*
        # counters report that run alone.
        self.devices = [Device(s.spec) for s in self.schedulers]
        for scheduler, registry in zip(self.schedulers, self.device_metrics):
            scheduler.set_metrics(registry)
            scheduler.reset(graph)
        self._comm_seconds = 0.0
        self._messages = 0

    def order(self, frontier: np.ndarray) -> np.ndarray:
        # Each GPU expands its own share of the frontier; the level's
        # edges are the shares' expansions, concatenated in GPU order.
        return frontier[np.argsort(self.assignment[frontier], kind="stable")]

    def price(
        self, graph: CSRGraph, app: App, level: Level, trace: list[TraceNode]
    ) -> None:
        frontier = level.frontier
        node_bounds = np.searchsorted(
            self.assignment[frontier], np.arange(self.num_gpus + 1)
        )
        edge_bounds = np.concatenate(([0], np.cumsum(level.degrees)))
        gpu_seconds = np.zeros(self.num_gpus)
        gpu_kernels = []
        remote_updates = 0
        for gpu in range(self.num_gpus):
            lo, hi = node_bounds[gpu], node_bounds[gpu + 1]
            if lo == hi:
                continue
            edge_dst = level.edge_dst[edge_bounds[lo]:edge_bounds[hi]]
            scheduler = self.schedulers[gpu]
            stats = scheduler.kernel_stats(
                frontier[lo:hi], level.degrees[lo:hi], edge_dst, graph, app
            )
            device = self.devices[gpu]
            timing = self._timed_kernel(
                device, scheduler.stack([stats]), "kernel", gpu=gpu
            )
            kernel, = device.kernel_nodes(timing, [level.index])
            gpu_seconds[gpu] = kernel.seconds
            gpu_kernels.append(kernel)
            remote = edge_dst[self.assignment[edge_dst] != gpu]
            # Engines aggregate frontier updates per node before
            # shipping: a remote node is announced once, not once per
            # incoming edge.
            remote_updates += int(np.unique(remote).size)

        exchange = self._exchange_seconds(remote_updates)
        if self.async_mode:
            # Asynchronous engines overlap communication with the
            # slowest device's compute.
            seconds = max(
                float(gpu_seconds.max(initial=0.0)), exchange
            ) + ASYNC_COORD_US * 1e-6
        else:
            seconds = (
                float(gpu_seconds.max(initial=0.0)) + exchange
                + (SYNC_BARRIER_US * 1e-6 if self.num_gpus > 1 else 0.0)
            )
        level.span.set("exchange_seconds", exchange)
        level.span.set("remote_updates", remote_updates)
        # With one device the iteration is exactly one kernel, so the
        # trace can carry its honest occupancy; the multi-device
        # makespan (kernels + exchange + barrier) is opaque to overlap
        # and pinned at full occupancy.
        occupancy = (
            gpu_kernels[0].occupancy
            if self.num_gpus == 1 and len(gpu_kernels) == 1
            else 1.0
        )
        trace.append(TraceNode(
            KERNEL, seconds, occupancy=occupancy, iteration=level.index,
        ))
        self._comm_seconds += exchange
        self._messages += remote_updates

    def finish(
        self, graph: CSRGraph, run_span: Span | NullSpan, result: RunResult
    ) -> None:
        metrics = self.metrics
        run_span.set("comm_seconds", self._comm_seconds)
        metrics.count("multigpu.messages", self._messages)
        metrics.count("multigpu.comm_seconds", self._comm_seconds)
        metrics.count("multigpu.iterations", result.iterations)
        profiler = Profiler()
        for gpu, device in enumerate(self.devices):
            profiler = profiler.merged_with(device.profiler)
            self.device_metrics[gpu].fold_profiler(device.profiler)
            metrics.merge(self.device_metrics[gpu], prefix=f"gpu{gpu}.")
            self.device_metrics[gpu].reset()
        metrics.fold_profiler(profiler)
        result.profiler = profiler
        result.extras["comm_seconds"] = self._comm_seconds
        result.extras["messages"] = float(self._messages)

    def _exchange_seconds(self, remote_updates: int) -> float:
        if self.num_gpus == 1 or remote_updates == 0:
            return 0.0
        payload = remote_updates * BYTES_PER_MESSAGE
        # One aggregated buffer per peer pair; engines batch messages.
        requests = self.num_gpus - 1
        return self.link.transfer_seconds(payload, requests=requests)
