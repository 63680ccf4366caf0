"""Baseline node reordering methods (the paper's Figure 6 / Table 2 set)."""

from repro.reorder.base import (
    TimedOrdering,
    is_permutation,
    order_to_perm,
    random_perm,
    timed_ordering,
)
from repro.reorder.degree import bfs_order, degree_order
from repro.reorder.gorder import gorder_order
from repro.reorder.llp import llp_order
from repro.reorder.optimal import optimal_arrangement, sector_objective
from repro.reorder.rcm import rcm_order

__all__ = [
    "TimedOrdering",
    "bfs_order",
    "degree_order",
    "gorder_order",
    "is_permutation",
    "llp_order",
    "optimal_arrangement",
    "order_to_perm",
    "random_perm",
    "rcm_order",
    "sector_objective",
    "timed_ordering",
]
