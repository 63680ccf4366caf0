"""Discrete-event makespan simulator (executable check of the cost model).

The analytic cost model (``gpusim.cost``) *assumes* two placement
regimes: owner-bound blocks (a heavy block makes its SM the straggler)
and a work-conserving global queue (Resident Tile Stealing).  This module
simulates both regimes event-by-event — SMs as multi-slot servers, tiles
as tasks — so tests can verify the assumptions instead of trusting them:

* with stealing, makespan approaches ``total_work / (sms * slots)``,
* without, it is bottlenecked by the heaviest owner queue,
* stealing never increases makespan.

It is also available to users who want to inspect scheduling dynamics
(idle time, steal counts) beyond the analytic summary.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.tiling import TileDecomposition
from repro.errors import InvalidParameterError

#: Task duration per edge of a tile, in cycles.
CYCLES_PER_EDGE = 1.0


@dataclass(frozen=True)
class Task:
    """One schedulable work unit (a tile or fragment batch)."""

    duration_cycles: float
    owner_block: int


@dataclass(frozen=True)
class MakespanReport:
    """Outcome of one simulated kernel."""

    makespan_cycles: float
    per_sm_busy_cycles: np.ndarray
    steals: int
    tasks: int

    @property
    def imbalance(self) -> float:
        """max / mean busy cycles across SMs (1.0 = perfectly balanced)."""
        mean = self.per_sm_busy_cycles.mean()
        if mean == 0:
            return 1.0
        return float(self.per_sm_busy_cycles.max() / mean)


class MakespanSimulator:
    """SMs as multi-slot servers consuming a task list."""

    def __init__(self, num_sms: int, slots_per_sm: int = 4) -> None:
        if num_sms < 1 or slots_per_sm < 1:
            raise InvalidParameterError("need >= 1 SM and slot")
        self.num_sms = num_sms
        self.slots_per_sm = slots_per_sm

    def simulate(
        self, tasks: list[Task], *, stealing: bool
    ) -> MakespanReport:
        """Run one kernel's tasks to completion.

        Args:
            tasks: work units; with ``stealing=False`` each runs on the
                SM owning its block (``owner_block % num_sms``); with
                ``stealing=True`` any idle slot takes the next task.
        """
        if not tasks:
            return MakespanReport(0.0, np.zeros(self.num_sms), 0, 0)
        busy = np.zeros(self.num_sms)
        steals = 0
        if stealing:
            # one global queue; every (sm, slot) is a server
            queue = list(tasks)
            queue.reverse()  # pop() from the front order
            servers: list[tuple[float, int]] = [
                (0.0, sm)
                for sm in range(self.num_sms)
                for _ in range(self.slots_per_sm)
            ]
            heapq.heapify(servers)
            finish = 0.0
            while queue:
                free_at, sm = heapq.heappop(servers)
                task = queue.pop()
                done = free_at + task.duration_cycles
                busy[sm] += task.duration_cycles
                if task.owner_block % self.num_sms != sm:
                    steals += 1
                finish = max(finish, done)
                heapq.heappush(servers, (done, sm))
            return MakespanReport(finish, busy, steals, len(tasks))

        # owner placement: independent per-SM queues
        finish = 0.0
        for sm in range(self.num_sms):
            mine = [t for t in tasks if t.owner_block % self.num_sms == sm]
            if not mine:
                continue
            slots = [0.0] * self.slots_per_sm
            for task in mine:
                slot = min(range(self.slots_per_sm), key=slots.__getitem__)
                slots[slot] += task.duration_cycles
                busy[sm] += task.duration_cycles
            finish = max(finish, max(slots))
        return MakespanReport(finish, busy, 0, len(tasks))


def tasks_from_decomposition(decomp: TileDecomposition) -> list[Task]:
    """Turn a Tiled-Partitioning decomposition into simulator tasks.

    Each tile (and fragment) becomes one task whose duration is its edge
    count times :data:`CYCLES_PER_EDGE`; the owner block is the frontier
    position divided by the decomposition's block size (how blocks chunk
    the frontier).
    """
    block = decomp.block_size
    tasks: list[Task] = []
    for idx, size in zip(decomp.tile_frontier_idx.tolist(),
                         decomp.tile_sizes.tolist()):
        tasks.append(Task(size * CYCLES_PER_EDGE, idx // block))
    for idx, size in zip(decomp.fragment_frontier_idx.tolist(),
                         decomp.fragment_sizes.tolist()):
        tasks.append(Task(size * CYCLES_PER_EDGE, idx // block))
    return tasks
