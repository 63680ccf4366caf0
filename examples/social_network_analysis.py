"""Social-network analysis: centrality and communities on a skewed graph.

The workload the paper's introduction motivates: real-time analytics on a
power-law social network with super-hubs.  This script runs

* Betweenness Centrality (two-phase traversal, atomics),
* PageRank (global traversal),
* Label Propagation communities,
* Connected Components,

all through the same SAGE engine, and shows the self-adaptive reordering
kicking in *during* the PageRank run — no preprocessing pass anywhere.

Run with:  python examples/social_network_analysis.py
"""

from __future__ import annotations

import numpy as np

from repro.apps import (
    BCApp,
    ConnectedComponentsApp,
    LabelPropagationApp,
    PageRankApp,
)
from repro.core import SageScheduler, run_app
from repro.graph import CSRGraph, datasets


def top_k(values: np.ndarray, k: int = 5) -> list[tuple[int, float]]:
    idx = np.argsort(-values)[:k]
    return [(int(i), float(values[i])) for i in idx]


def main() -> None:
    graph = datasets.twitter_like(scale=0.5).graph
    print(f"analyzing {graph}")

    # --- influencer detection: betweenness from the biggest hubs -------
    hubs = np.argsort(-graph.out_degrees())[:3]
    dependency = np.zeros(graph.num_nodes)
    for hub in hubs:
        result = run_app(graph, BCApp(), SageScheduler(), source=int(hub))
        delta = result.result["delta"].copy()
        delta[int(hub)] = 0.0
        dependency += delta
    print("\ntop bridge nodes (partial betweenness from 3 hub sources):")
    for node, score in top_k(dependency):
        print(f"  node {node:6d}  dependency {score:10.1f}")

    # --- PageRank with self-adaptive reordering ------------------------
    sched = SageScheduler(sampling_reorder=True)
    result = run_app(
        graph, PageRankApp(max_iterations=30, tolerance=1e-10), sched
    )
    print(f"\nPageRank: {result.iterations} iterations, "
          f"{result.reorder_commits} reordering rounds committed mid-run, "
          f"{result.gteps:.2f} GTEPS")
    print("top ranked nodes:")
    for node, score in top_k(result.result["pagerank"]):
        print(f"  node {node:6d}  pr {score:.5f}")

    # --- communities ----------------------------------------------------
    labels = run_app(
        graph, LabelPropagationApp(), SageScheduler()
    ).result["labels"]
    sizes = np.bincount(labels, minlength=graph.num_nodes)
    communities = int((sizes > 0).sum())
    print(f"\nlabel propagation found {communities} communities; "
          f"largest has {int(sizes.max())} members")

    # --- connectivity (CC needs symmetric edges) -----------------------
    sym = CSRGraph.from_coo(graph.to_coo().symmetrized())
    comp = run_app(sym, ConnectedComponentsApp(), SageScheduler())
    n_comp = len(np.unique(comp.result["component"]))
    print(f"weakly connected components: {n_comp}")


if __name__ == "__main__":
    main()
