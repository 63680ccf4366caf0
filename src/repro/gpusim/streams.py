"""Stream/event scheduler: DAGs of kernel, transfer, and sync nodes.

This module layers a CUDA-like stream execution model on top of the
discrete-event idiom of :mod:`repro.gpusim.events`.  A query batch
compiles to a :class:`BatchDag` — kernel, transfer, and host nodes with
explicit event dependencies — and a :class:`StreamDevice` replays many
such DAGs concurrently on one simulated device:

* **streams** are FIFO launch queues: nodes bound to the same stream
  issue in enqueue order, exactly like CUDA streams, so ``num_streams=1``
  reproduces the batch-at-a-time serial timeline bit-for-bit;
* **copy engines** (one per direction, H2D and D2H) run transfers
  concurrently with compute, which is how real devices hide PCIe
  traffic behind another batch's kernels;
* **per-resource occupancy** keeps the co-run honest: a kernel occupies
  the compute resource in proportion to how much of the device its cost
  model says it uses (:func:`kernel_occupancies`), so two saturating
  kernels serialize while launch-latency-dominated frontier kernels
  genuinely overlap.  Capacity never exceeds the whole device, so the
  schedule can never beat ``sum(durations)`` by more than the idle time
  the synchronous executor was leaving on the table.

Determinism: grants are strict FIFO per queue with a fixed queue scan
order, all event ties break on (time, admission sequence), and no wall
clock or RNG is involved — the same DAGs admitted at the same virtual
times always produce the same timeline.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

from repro.errors import InvalidParameterError
from repro.gpusim.cost import KernelBatchTiming

#: node kinds (the DAG taxonomy; see DESIGN.md "Pipelined execution").
KERNEL = "kernel"
H2D = "h2d"
D2H = "d2h"
HOST = "host"

_NODE_KINDS = frozenset({KERNEL, H2D, D2H, HOST})
_COPY_KINDS = frozenset({H2D, D2H})
#: a node's resource in a one-stream replay: the compute stream or a copy engine.
_RESOURCE = {KERNEL: 0, HOST: 0, H2D: 1, D2H: 2}

#: floor on a kernel's device share: even a one-warp launch holds the
#: front end and a sliver of SM issue slots.
MIN_OCCUPANCY = 1.0 / 64.0

#: tolerance for float accumulation when packing occupancies.  Time
#: comparisons are exact: the outer loop passes back the very floats
#: :meth:`StreamDevice.next_event_time` produced, so no epsilon is
#: needed (or safe — virtual times sit at microsecond scale).
_EPS = 1e-9


def kernel_occupancies(timing: KernelBatchTiming) -> npt.NDArray[np.float64]:
    """Device share each kernel of a batch holds while resident, in
    ``(0, 1]``.

    The cost model already splits a kernel's cycles into the roofline
    term ``max(compute, memory)`` plus launch + scheduling overhead.
    Only the roofline term contends for SMs and DRAM; launch latency and
    host-side scheduling leave the device nearly idle, which is exactly
    the window concurrent kernels from another batch can fill.  The
    share is therefore the roofline fraction of the kernel's total
    cycles, floored at :data:`MIN_OCCUPANCY`.
    """
    cycles = timing.cycles
    positive = cycles > 0
    busy = np.maximum(timing.compute_cycles, timing.memory_cycles)
    share = np.minimum(
        1.0, np.maximum(MIN_OCCUPANCY, busy / np.where(positive, cycles, 1.0))
    )
    return np.where(positive, share, MIN_OCCUPANCY)


@dataclass(frozen=True)
class TraceNode:
    """One replayable unit of device work recorded during a run.

    Runners append these to ``RunResult.node_trace``, a run's only timing
    artifact: :func:`trace_seconds` evaluates it into the run's seconds
    and :func:`dag_from_run` recompiles it into an event DAG.

    Attributes:
        kind: one of :data:`KERNEL`, :data:`H2D`, :data:`D2H`,
            :data:`HOST`.
        seconds: virtual duration of the node.
        occupancy: device share while resident (kernels only; transfers
            and host nodes occupy their own engine).
        iteration: the traversal iteration the node belongs to; nodes
            sharing an iteration form one barrier group.
        overlap: ``True`` runs the node beside its iteration's serial
            chain (``max(k, t)`` semantics); ``False`` appends it to the
            chain (``k + t`` semantics).
    """

    kind: str
    seconds: float
    occupancy: float = 1.0
    iteration: int = 0
    overlap: bool = False


@dataclass(frozen=True)
class DagNode:
    """One scheduled node of a compiled batch DAG."""

    node_id: int
    kind: str
    seconds: float
    deps: tuple[int, ...]
    occupancy: float
    lane: int


class BatchDag:
    """An append-only DAG of device work (acyclic by construction).

    Nodes are added in topological order — dependencies must reference
    already-added nodes — so every DAG a builder can express is
    schedulable and queue order is consistent with the edges.
    """

    def __init__(self) -> None:
        self.nodes: list[DagNode] = []

    def add_node(
        self,
        kind: str,
        seconds: float,
        *,
        deps: tuple[int, ...] | list[int] = (),
        occupancy: float = 1.0,
        lane: int = 0,
    ) -> int:
        """Append one node and return its id."""
        if kind not in _NODE_KINDS:
            raise InvalidParameterError(f"unknown DAG node kind {kind!r}")
        if seconds < 0:
            raise InvalidParameterError("node duration must be >= 0")
        if not 0.0 < occupancy <= 1.0 + _EPS:
            raise InvalidParameterError(
                f"occupancy must be in (0, 1], got {occupancy}"
            )
        node_id = len(self.nodes)
        dep_ids = tuple(sorted(set(int(d) for d in deps)))
        for dep in dep_ids:
            if not 0 <= dep < node_id:
                raise InvalidParameterError(
                    f"node {node_id} depends on unknown node {dep}"
                )
        self.nodes.append(DagNode(
            node_id=node_id, kind=kind, seconds=float(seconds),
            deps=dep_ids, occupancy=min(1.0, float(occupancy)), lane=lane,
        ))
        return node_id

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_lanes(self) -> int:
        if not self.nodes:
            return 0
        return len({node.lane for node in self.nodes})

    @property
    def total_seconds(self) -> float:
        """Sum of node durations (the no-overlap serial cost)."""
        return sum(node.seconds for node in self.nodes)

    def critical_path_seconds(self) -> float:
        """Longest dependency chain — a lower bound on any schedule."""
        finish = [0.0] * len(self.nodes)
        for node in self.nodes:
            ready = max((finish[d] for d in node.deps), default=0.0)
            finish[node.node_id] = ready + node.seconds
        return max(finish, default=0.0)


def dag_from_run(
    result,
    *,
    dag: BatchDag | None = None,
    lane: int = 0,
    prefetch_depth: int = 0,
) -> BatchDag:
    """Compile one run's ``node_trace`` into DAG nodes on ``lane``.

    Nodes sharing an iteration form a barrier group: iteration ``i``
    starts only when every node of iteration ``i-1`` has finished,
    mirroring the synchronous per-level barrier.  Within a group,
    ``overlap`` nodes run beside the group's serial chain (the
    ``max(kernel, transfer)`` shape of async out-of-core runners) while
    non-overlap nodes extend the chain (``kernel + transfer``).

    ``prefetch_depth=d`` re-anchors an overlap *transfer* of iteration
    ``i`` to the barrier of iteration ``i-1-d``: the fetch is issued
    ``d`` iterations early, so it can hide behind earlier compute.  The
    consuming barrier is unchanged — iteration ``i+1`` still waits for
    the transfer — so loosening only ever shortens the timeline.  The
    trace is a replay of a completed deterministic run, which is what
    makes perfect lookahead legitimate here (DESIGN.md discusses why).
    """
    if prefetch_depth < 0:
        raise InvalidParameterError("prefetch_depth must be >= 0")
    dag = dag if dag is not None else BatchDag()
    trace: list[TraceNode] = getattr(result, "node_trace", [])
    groups: list[list[TraceNode]] = []
    for tn in trace:
        if not groups or groups[-1][0].iteration != tn.iteration:
            groups.append([tn])
        else:
            groups[-1].append(tn)
    barriers: list[tuple[int, ...]] = []
    prev_barrier: tuple[int, ...] = ()
    for gi, group in enumerate(groups):
        chain_prev = prev_barrier
        group_ids: list[int] = []
        for tn in group:
            if tn.overlap and tn.kind in _COPY_KINDS:
                src = gi - 1 - prefetch_depth
                deps = barriers[src] if src >= 0 else ()
            elif tn.overlap:
                deps = prev_barrier
            else:
                deps = chain_prev
            node_id = dag.add_node(
                tn.kind, tn.seconds, deps=deps,
                occupancy=tn.occupancy if tn.kind == KERNEL else 1.0,
                lane=lane,
            )
            group_ids.append(node_id)
            if not tn.overlap:
                chain_prev = (node_id,)
        barrier = tuple(group_ids)
        barriers.append(barrier)
        prev_barrier = barrier
    return dag


def trace_seconds(trace: list[TraceNode]) -> float:
    """A run's seconds: exactly what a lone one-stream :class:`StreamDevice`
    replay of :func:`dag_from_run` computes, where each node starts once its
    dependencies are done and its resource is free."""
    group = None
    barrier = chain = end = 0.0
    free = [0.0, 0.0, 0.0]  # when each resource is next idle
    for node in trace:
        if node.iteration != group:
            group = node.iteration
            barrier = chain = end
        resource = _RESOURCE[node.kind]
        overlap = node.overlap
        start = barrier if overlap else chain
        if free[resource] > start:
            start = free[resource]
        finish = start + node.seconds
        free[resource] = finish
        if not overlap:
            chain = finish
        if finish > end:
            end = finish
    return end


@dataclass(frozen=True)
class DagCompletion:
    """One admitted DAG finishing on the device."""

    handle: int
    finish: float


@dataclass
class _NodeState:
    node: DagNode
    handle: int
    pending_deps: int
    stream: int  # compute stream for KERNEL/HOST, engine for copies
    started: bool = False
    done: bool = False


@dataclass
class _Admitted:
    handle: int
    release: float
    remaining: int
    states: list[_NodeState] = field(default_factory=list)
    finish: float = 0.0


class StreamDevice:
    """Replays batch DAGs concurrently on one simulated device.

    The device exposes a lazy event-driven interface so an outer
    virtual-time loop (the cluster simulator) can interleave it with its
    own events:

    * :meth:`admit` enqueues a DAG's nodes at a release time,
    * :meth:`next_event_time` peeks the next internal completion,
    * :meth:`advance_to` processes events up to a time bound and
      returns the DAGs that finished.

    Resources: ``num_streams`` FIFO compute queues, each running at most
    one node at a time (CUDA stream semantics) and together sharing one
    compute capacity of 1.0 by occupancy; one H2D and one D2H copy
    engine each run a single transfer at a time.  Host nodes occupy
    their lane's stream (they serialize with it) but hold no device
    compute capacity.
    """

    def __init__(self, *, num_streams: int = 1) -> None:
        if num_streams < 1:
            raise InvalidParameterError("num_streams must be >= 1")
        self.num_streams = num_streams
        # queue ids: [0, num_streams) compute streams, then H2D, D2H.
        self._queues: list[list[_NodeState]] = [
            [] for _ in range(num_streams + 2)
        ]
        self._h2d = num_streams
        self._d2h = num_streams + 1
        # CUDA stream semantics: at most one node resident per stream.
        self._stream_busy = [False] * num_streams
        self._compute_used = 0.0
        self._copy_busy = [False, False]  # H2D, D2H
        self._events: list[tuple[float, int, _NodeState]] = []
        self._seq = 0
        self._admitted: dict[int, _Admitted] = {}
        self._next_handle = 0
        self._lane_counter = 0
        self._now = 0.0
        self._running = 0
        self._busy_since = 0.0
        self.busy_seconds = 0.0
        self.work_seconds = 0.0
        self.kernels_launched = 0
        self.transfers_launched = 0
        self.max_concurrent_kernels = 0
        self._running_kernels = 0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def admit(self, dag: BatchDag, release_time: float) -> int:
        """Enqueue every node of ``dag``; returns a completion handle.

        Lanes map to compute streams round-robin through a device-global
        counter, so consecutive admissions spread across streams and
        ``num_streams=1`` degenerates to one serial queue.
        """
        if release_time < self._now:
            raise InvalidParameterError(
                f"admission at {release_time} is before device time "
                f"{self._now}"
            )
        handle = self._next_handle
        self._next_handle += 1
        admitted = _Admitted(
            handle=handle, release=release_time, remaining=dag.num_nodes,
        )
        self._admitted[handle] = admitted
        if dag.num_nodes == 0:
            admitted.finish = release_time
            heapq.heappush(
                self._events,
                (release_time, self._bump_seq(),
                 _NodeState(
                     DagNode(-1, HOST, 0.0, (), 1.0, 0), handle, 0, 0,
                 )),
            )
            return handle
        lane_stream: dict[int, int] = {}
        states: list[_NodeState] = []
        for node in dag.nodes:
            if node.kind in _COPY_KINDS:
                queue = self._h2d if node.kind == H2D else self._d2h
            else:
                if node.lane not in lane_stream:
                    lane_stream[node.lane] = (
                        self._lane_counter % self.num_streams
                    )
                    self._lane_counter += 1
                queue = lane_stream[node.lane]
            state = _NodeState(
                node=node, handle=handle, pending_deps=len(node.deps),
                stream=queue,
            )
            states.append(state)
            self._queues[queue].append(state)
            self.work_seconds += node.seconds
        admitted.states = states
        self._try_start(release_time)
        return handle

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------

    def next_event_time(self) -> float | None:
        """Virtual time of the next internal completion, if any."""
        if not self._events:
            return None
        return self._events[0][0]

    def advance_to(self, limit: float) -> list[DagCompletion]:
        """Process node completions up to ``limit`` (inclusive).

        Returns the DAGs whose last node finished, ordered by
        (finish time, admission order).
        """
        completed: list[DagCompletion] = []
        while self._events and self._events[0][0] <= limit:
            when, _, state = heapq.heappop(self._events)
            self._now = max(self._now, when)
            if state.node.node_id < 0:
                # synthetic completion event for an empty DAG
                completed.append(DagCompletion(state.handle, when))
                del self._admitted[state.handle]
                continue
            self._finish_node(state, when)
            admitted = self._admitted[state.handle]
            admitted.remaining -= 1
            admitted.finish = max(admitted.finish, when)
            if admitted.remaining == 0:
                completed.append(DagCompletion(state.handle, admitted.finish))
                del self._admitted[state.handle]
            self._try_start(when)
        return completed

    def drain(self) -> list[DagCompletion]:
        """Run every admitted DAG to completion."""
        completed: list[DagCompletion] = []
        while self._events:
            completed.extend(self.advance_to(self._events[0][0]))
        return completed

    @property
    def idle(self) -> bool:
        return not self._events and not self._admitted

    @property
    def now(self) -> float:
        return self._now

    @property
    def overlap_saved_seconds(self) -> float:
        """Serial work time the schedule hid via concurrency."""
        return max(0.0, self.work_seconds - self.busy_seconds)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _bump_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _release_ok(self, state: _NodeState, now: float) -> bool:
        return self._admitted[state.handle].release <= now

    def _try_start(self, now: float) -> None:
        """Grant queue heads in fixed order until nothing else fits."""
        progress = True
        while progress:
            progress = False
            for qid, queue in enumerate(self._queues):
                while queue:
                    head = queue[0]
                    if (head.pending_deps > 0
                            or not self._release_ok(head, now)):
                        break
                    if not self._fits(head):
                        break
                    queue.pop(0)
                    self._start_node(head, now)
                    progress = True

    def _fits(self, state: _NodeState) -> bool:
        kind = state.node.kind
        if kind == KERNEL:
            return (not self._stream_busy[state.stream]
                    and self._compute_used + state.node.occupancy
                    <= 1.0 + _EPS)
        if kind == H2D:
            return not self._copy_busy[0]
        if kind == D2H:
            return not self._copy_busy[1]
        # HOST nodes hold no device capacity but do occupy their stream.
        return not self._stream_busy[state.stream]

    def _start_node(self, state: _NodeState, now: float) -> None:
        kind = state.node.kind
        if kind == KERNEL:
            self._stream_busy[state.stream] = True
            self._compute_used += state.node.occupancy
            self.kernels_launched += 1
            self._running_kernels += 1
            self.max_concurrent_kernels = max(
                self.max_concurrent_kernels, self._running_kernels
            )
        elif kind == HOST:
            self._stream_busy[state.stream] = True
        elif kind == H2D:
            self._copy_busy[0] = True
            self.transfers_launched += 1
        elif kind == D2H:
            self._copy_busy[1] = True
            self.transfers_launched += 1
        state.started = True
        if self._running == 0:
            self._busy_since = now
        self._running += 1
        heapq.heappush(
            self._events, (now + state.node.seconds, self._bump_seq(), state)
        )

    def _finish_node(self, state: _NodeState, when: float) -> None:
        kind = state.node.kind
        if kind == KERNEL:
            self._stream_busy[state.stream] = False
            self._compute_used = max(
                0.0, self._compute_used - state.node.occupancy
            )
            self._running_kernels -= 1
        elif kind == HOST:
            self._stream_busy[state.stream] = False
        elif kind == H2D:
            self._copy_busy[0] = False
        elif kind == D2H:
            self._copy_busy[1] = False
        state.done = True
        self._running -= 1
        if self._running == 0:
            self.busy_seconds += when - self._busy_since
        for other in self._admitted[state.handle].states:
            if state.node.node_id in other.node.deps and not other.started:
                other.pending_deps -= 1
