"""Layered Label Propagation ordering (Boldi et al. [5]).

LLP runs label propagation under the Absolute Potts Model at a sequence
of resolutions (gammas); each layer's clustering refines the order of the
previous layer, so nodes of the same (multi-resolution) community end up
with contiguous ids.  This implementation keeps that structure: per
gamma, a few APM label-propagation sweeps (majority count penalized by
``gamma * label volume``), then a stable sort keyed by the successive
clusterings — coarse layers outermost, as in the reference algorithm.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.reorder.base import order_to_perm

GAMMAS = (0.0, 0.05, 0.25)
SWEEPS_PER_GAMMA = 3


def _apm_sweep(
    sym: CSRGraph,
    labels: np.ndarray,
    gamma: float,
) -> np.ndarray:
    """One synchronous Absolute-Potts-Model label update.

    Every node adopts ``argmax_l (count_l - gamma * volume_l)`` over the
    labels of its neighbors, ties to the smaller label.
    """
    n = sym.num_nodes
    edge_src, edge_dst, _, _ = sym.expand_level(np.arange(n, dtype=np.int64))
    if edge_src.size == 0:
        return labels
    volume = np.bincount(labels, minlength=n).astype(np.float64)
    nbr_label = labels[edge_dst]
    order = np.lexsort((nbr_label, edge_src))
    s = edge_src[order]
    lab = nbr_label[order]
    run_start = np.ones(s.size, dtype=bool)
    run_start[1:] = (s[1:] != s[:-1]) | (lab[1:] != lab[:-1])
    run_idx = np.flatnonzero(run_start)
    run_len = np.diff(np.append(run_idx, s.size)).astype(np.float64)
    run_node = s[run_idx]
    run_lab = lab[run_idx]
    gain = run_len - gamma * volume[run_lab]
    best_gain = np.full(n, -np.inf)
    np.maximum.at(best_gain, run_node, gain)
    is_best = gain >= best_gain[run_node] - 1e-12
    winner = np.full(n, np.iinfo(np.int64).max)
    np.minimum.at(winner, run_node[is_best], run_lab[is_best])
    new_labels = labels.copy()
    has_nbrs = best_gain > -np.inf
    new_labels[has_nbrs] = winner[has_nbrs]
    return new_labels


def llp_order(
    graph: CSRGraph,
) -> np.ndarray:
    """Compute the LLP permutation (``new_id = perm[old_id]``)."""
    sym = CSRGraph.from_coo(graph.to_coo().symmetrized())
    n = sym.num_nodes
    layer_keys: list[np.ndarray] = []
    for gamma in GAMMAS:
        labels = np.arange(n, dtype=np.int64)
        for _ in range(SWEEPS_PER_GAMMA):
            updated = _apm_sweep(sym, labels, gamma)
            if np.array_equal(updated, labels):
                break
            labels = updated
        layer_keys.append(labels)
    # Lexicographic refinement: coarsest clustering is the outer key,
    # node id the final tiebreak; np.lexsort sorts by the LAST key first.
    keys = [np.arange(n, dtype=np.int64)] + layer_keys
    order = np.lexsort(tuple(keys))
    return order_to_perm(order.astype(np.int64))
