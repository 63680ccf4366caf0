"""Gorder: greedy window-locality maximization (Wei et al. [49]).

Gorder places nodes one by one, each time choosing the node with the
highest *GScore* against a sliding window of the :data:`WINDOW` most recently
placed nodes — GScore counting shared in-neighbors (sibling relations)
plus direct adjacency.  The exact algorithm runs a priority queue with
lazy rescoring; this implementation follows that structure (lazy max-heap
keyed by score, scores bumped when a window member's relations appear)
with the same O(WINDOW * |E|) update volume.

It is deliberately the *expensive* baseline: the paper's Table 2 shows
Gorder costing hours on billion-edge social graphs, which is the cost
SAGE's per-round sampling avoids.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph.csr import CSRGraph
from repro.reorder.base import order_to_perm

#: Recently placed nodes each candidate's GScore is taken against.
WINDOW = 5


def gorder_order(graph: CSRGraph) -> np.ndarray:
    """Compute the Gorder permutation (``new_id = perm[old_id]``)."""
    n = graph.num_nodes
    reverse = graph.reversed()

    score = np.zeros(n, dtype=np.int64)
    placed = np.zeros(n, dtype=bool)
    # Lazy max-heap of (-score snapshot, node); stale entries skipped.
    heap: list[tuple[int, int]] = []
    degrees = graph.out_degrees()
    start = int(np.argmax(degrees)) if n else 0
    heap.append((0, start))

    order = np.empty(n, dtype=np.int64)
    recent: list[int] = []

    def bump(nodes: np.ndarray, amount: int) -> None:
        """Adjust scores of ``nodes`` and (re-)queue increased ones."""
        if nodes.size == 0:
            return
        np.add.at(score, nodes, amount)
        if amount > 0:
            for v in nodes.tolist():
                if not placed[v]:
                    heapq.heappush(heap, (-int(score[v]), v))

    def relations(u: int) -> tuple[np.ndarray, np.ndarray]:
        """(direct successors, sibling candidates) of window member u."""
        succ = graph.neighbors(u)
        # Nodes sharing an in-neighbor with u: successors of u's
        # predecessors.  Sampling caps the fan-out on super-hubs.
        preds = reverse.neighbors(u)
        if preds.size > 64:
            preds = preds[:: preds.size // 64 + 1]
        sib_chunks = [graph.neighbors(int(p)) for p in preds.tolist()]
        siblings = (
            np.concatenate(sib_chunks) if sib_chunks
            else np.empty(0, dtype=np.int64)
        )
        if siblings.size > 512:
            siblings = siblings[:: siblings.size // 512 + 1]
        return succ, siblings

    for position in range(n):
        u = -1
        while heap:
            neg_s, cand = heapq.heappop(heap)
            if placed[cand]:
                continue
            if -neg_s != score[cand]:
                heapq.heappush(heap, (-int(score[cand]), cand))
                continue
            u = cand
            break
        if u < 0:
            # Heap drained (isolated remainder): place any unplaced node.
            u = int(np.flatnonzero(~placed)[0])
        placed[u] = True
        order[position] = u

        succ, sib = relations(u)
        bump(succ, 1)
        bump(sib, 1)
        recent.append(u)
        if len(recent) > WINDOW:
            old = recent.pop(0)
            old_succ, old_sib = relations(old)
            bump(old_succ, -1)
            bump(old_sib, -1)

    return order_to_perm(order)
