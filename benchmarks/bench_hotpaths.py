#!/usr/bin/env python
"""Microbenchmarks for the vectorized per-iteration hot paths.

Times each rewritten accounting kernel against its retained reference
implementation (the pre-optimization formulation kept for the
equivalence property tests), on inputs shaped like the scale-up tier's
workloads.  The sampler and ``compute_round`` rows build a round's
pairs as one key (``core.sampling.tile_pair_key``); their references
patch in the per-rotation builder, ``tile_pairs_reference``.  The
``compute_round`` row observes four levels before each round, since a
round builds the pairs of all its observations at once; its quick and
full sizes cover the uint32 and the int64 pair key.  The run-scoring
rows time the kernels of one mesh BFS, and of its first six levels,
scored once as a run is (``KernelBatch.of``, one ``Device.run_kernels``
and ``kernel_nodes``) against each kernel scored as its own batch of
one (``Device.run_kernel``).
The PageRank filter row scatters each node's share, computed once, with
``np.add.at`` against ``rank_scatter_reference``, which divides once per
edge; the PPR row times one full personalized PageRank level with each
of the two scatters.
The whole-graph level row times the 20 levels of one PageRank run, whose full frontiers
share one expansion, the node table's column totals and one residency
check, against the same run with every level expanded and priced by
the general path (``CSRGraph.is_full_frontier`` patched off, as
``tests/test_whole_level.py`` does; that also turns off the
gather-free full expansion and the per-graph sector count).  The
full-level pricing row prices one of those levels as a queue of one
with ``SageScheduler.level_stats``, from the column totals and the
graph's distinct counts, against the same level priced as a partial
one (gathered and counted).  The
sector+address row counts one kernel's distinct sectors and addresses
with ``distinct_counts`` (one node mask) against two ``bincount``
counts, and the relax row times SSSP's filter, which selects its
improving edges by index, against the same body compressing each edge
array with the boolean mask.  The mesh-level row, run last, expands one
76-node BFS level of ``grid_2d(112, 112)`` a thousand times: on a
level of ~300 edges, ``expand_level``'s fixed numpy calls are its cost.
The two relabel rows come after it, so the rows above keep their random
inputs: one reorder commit on ``twitter_like(0.15)``, ``permute`` against
its definition (the edge list relabelled and rebuilt by ``from_edges``)
and the relabelled graph's node table derived from the old one
(``NodeAccounting.relabelled``) against ``NodeAccounting.build``.
Wall times here are informational — the correctness story is
``tests/test_hotpath_equivalence.py`` and, for level pricing and run
scoring, ``tests/test_node_accounting.py`` and ``tests/test_kernel_batch.py``,
which assert the rewrites are bit-for-bit identical to the references.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py [--quick]

Not a pytest module: it is a human-facing report generator.
"""

from __future__ import annotations

import argparse
import time
from unittest import mock

import numpy as np

from repro.apps import BFSApp, PageRankApp, PersonalizedPageRankApp, ppr
from repro.apps.base import contract, relax
from repro.apps.pagerank import rank_scatter, rank_scatter_reference
from repro.core import SageScheduler, TraversalPipeline, sampling
from repro.core.pipeline import Level
from repro.core.reorder import SamplingReorderer, commit_moves, locality_stages_reference
from repro.core.sampling import TileAccessSampler
from repro.core.tiling import (
    DEFAULT_MIN_TILE,
    NodeAccounting,
    decompose_frontier,
    decompose_frontier_reference,
)
from repro.gpusim.cost import KernelBatch
from repro.gpusim.device import Device
from repro.gpusim.memory import (
    distinct_counts,
    segmented_distinct_sectors,
    segmented_distinct_sectors_reference,
)
from repro.graph.coo import COOGraph
from repro.graph.csr import CSRGraph, expand_frontier_reference
from repro.graph.datasets import twitter_like
from repro.graph.generators import grid_2d, rmat
from repro.obs.span import NullSpan

SECTOR_WIDTH = 8


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _row(name: str, size: int, new_s: float, ref_s: float | None) -> None:
    if ref_s is None:
        print(f"  {name:34s} n={size:>9,}  new={new_s * 1e3:9.3f} ms")
        return
    print(
        f"  {name:34s} n={size:>9,}  new={new_s * 1e3:9.3f} ms  "
        f"ref={ref_s * 1e3:9.3f} ms  speedup={ref_s / new_s:6.2f}x"
    )


def bench_segmented(rng, repeats: int, n_edges: int) -> None:
    # Tile-sized segments over scattered destinations, both the engine's
    # per-segment-sorted shape and Gunrock's unsorted warp chunks.
    starts = np.unique(np.concatenate([[0], rng.integers(0, n_edges, size=n_edges // 48)]))
    addresses = rng.integers(0, n_edges, size=n_edges)
    sorted_addresses = addresses.copy()
    bounds = np.append(starts, n_edges)
    for i in range(starts.size):
        sorted_addresses[bounds[i] : bounds[i + 1]].sort()
    for label, addr, presorted in (
        ("segmented_distinct (presorted)", sorted_addresses, True),
        ("segmented_distinct (unsorted)", addresses, False),
    ):
        new_s = _best_of(
            lambda: segmented_distinct_sectors(addr, starts, SECTOR_WIDTH, presorted=presorted),
            repeats,
        )
        ref_s = _best_of(
            lambda: segmented_distinct_sectors_reference(
                addr, starts, SECTOR_WIDTH, presorted=presorted
            ),
            repeats,
        )
        _row(label, n_edges, new_s, ref_s)


def bench_distinct_counts(rng, repeats: int, n_edges: int) -> None:
    # One power-law-level-sized kernel: ~3 edges per node id.
    num_nodes = n_edges // 3
    edge_dst = rng.integers(0, num_nodes, size=n_edges)

    def run_ref():
        for values in (edge_dst // SECTOR_WIDTH, edge_dst):
            np.count_nonzero(np.bincount(values, minlength=int(values.max()) + 1))

    new_s = _best_of(lambda: distinct_counts([edge_dst], num_nodes, SECTOR_WIDTH), repeats)
    _row("sector+address counts", n_edges, new_s, _best_of(run_ref, repeats))


def _relax_mask(values, edge_dst, candidate):
    # relax's former body: each edge array compressed by the boolean mask
    improving = candidate < values[edge_dst]
    targets = edge_dst[improving]
    np.minimum.at(values, targets, candidate[improving])
    return contract(targets, values.size)


def bench_relax(rng, repeats: int, n_edges: int) -> None:
    # An SSSP-sized level: 40 % of the candidates improve their target.
    num_nodes = n_edges // 3
    dist = rng.integers(0, 100, size=num_nodes)
    edge_dst = rng.integers(0, num_nodes, size=n_edges)
    candidate = dist[edge_dst] + rng.integers(-40, 60, size=n_edges)
    new_s = _best_of(lambda: relax(dist.copy(), edge_dst, candidate), repeats)
    ref_s = _best_of(lambda: _relax_mask(dist.copy(), edge_dst, candidate), repeats)
    _row("relax (index select)", n_edges, new_s, ref_s)


def bench_tiling(rng, repeats: int, n_nodes: int) -> None:
    # Power-law degrees bounded like a real graph's: many nodes share
    # few distinct degrees, which the histogram decomposition exploits.
    degrees = np.minimum(rng.zipf(1.5, size=n_nodes).astype(np.int64), 4096)
    new_s = _best_of(lambda: decompose_frontier(degrees, 512), repeats)
    ref_s = _best_of(lambda: decompose_frontier_reference(degrees, 512), repeats)
    _row("decompose_frontier", n_nodes, new_s, ref_s)


def _reference_pair_key(members, lengths, co_samples, num_nodes):
    u, co = sampling.tile_pairs_reference(members, lengths, co_samples)
    return (u * num_nodes + co).astype(sampling.pair_key_dtype(num_nodes))


def _with_reference_pairs(fn):
    def run():
        with mock.patch.object(sampling, "tile_pair_key", _reference_pair_key):
            fn()

    return run


def bench_sampling(rng, repeats: int, n_edges: int) -> None:
    edge_dst = rng.integers(0, n_edges, size=n_edges)
    starts = np.arange(0, n_edges, 64, dtype=np.int64)

    def run():
        sampler = TileAccessSampler(n_edges, SECTOR_WIDTH, seed=3)
        sampler.observe(edge_dst, starts)
        sampler.locality_counts()

    run_ref = _with_reference_pairs(run)
    _row("sampler observe+locality", n_edges, _best_of(run, repeats), _best_of(run_ref, repeats))


def bench_reorder(rng, repeats: int, n_edges: int) -> None:
    num_nodes = max(2, n_edges // 8)
    levels = [
        (edge_dst, np.arange(0, edge_dst.size, 64, dtype=np.int64))
        for edge_dst in np.array_split(rng.integers(0, num_nodes, size=n_edges), 4)
    ]

    def observed():
        reorderer = SamplingReorderer(num_nodes, threshold_edges=1, seed=3)
        for edge_dst, starts in levels:
            reorderer.observe(edge_dst, starts)
        return reorderer

    def run_new():
        observed().compute_round()

    @_with_reference_pairs
    def run_ref():
        reorderer = observed()
        u, co = reorderer.sampler.pairs()
        stages = locality_stages_reference(u, co, num_nodes, SECTOR_WIDTH)
        commit_moves(*stages, num_nodes, SECTOR_WIDTH, reorderer.min_gain)

    _row("reorder compute_round", n_edges, _best_of(run_new, repeats), _best_of(run_ref, repeats))


def bench_coo_sort(rng, repeats: int, n_edges: int) -> None:
    num_nodes = max(2, n_edges // 8)
    coo = COOGraph(
        num_nodes,
        rng.integers(0, num_nodes, size=n_edges),
        rng.integers(0, num_nodes, size=n_edges),
    )

    def run_ref():
        order = np.lexsort((coo.dst, coo.src))
        COOGraph(num_nodes, coo.src[order], coo.dst[order])

    _row("COOGraph.sorted", n_edges, _best_of(coo.sorted, repeats), _best_of(run_ref, repeats))


def bench_expand(rng, repeats: int, graph: CSRGraph) -> None:
    # PageRank's every-node level (the CSR itself) and a BFS-sized 1%
    # frontier, both on an R-MAT graph like the perfbench traversal tier.
    n = graph.num_nodes
    for label, frontier in (
        ("expand_frontier (full)", np.arange(n, dtype=np.int64)),
        ("expand_frontier (1% frontier)", np.flatnonzero(rng.random(n) < 0.01)),
    ):
        new_s = _best_of(lambda: graph.expand_frontier(frontier), repeats)
        ref_s = _best_of(lambda: expand_frontier_reference(graph, frontier), repeats)
        _row(label, graph.num_edges, new_s, ref_s)


def bench_pagerank_filter(rng, repeats: int, graph: CSRGraph) -> None:
    n = graph.num_nodes
    edge_src, edge_dst, _ = graph.expand_frontier(np.arange(n, dtype=np.int64))
    pr_in = rng.random(n)
    out_degrees = graph.out_degrees().astype(np.float64)
    pr_out = np.empty(n)
    args = (pr_out, pr_in, out_degrees, 0.85, edge_src, edge_dst)
    new_s = _best_of(lambda: rank_scatter(*args), repeats)
    ref_s = _best_of(lambda: rank_scatter_reference(*args), repeats)
    _row("pagerank filter (share per node)", graph.num_edges, new_s, ref_s)


def bench_ppr_level(repeats: int, graph: CSRGraph) -> None:
    # One full personalized PageRank level, with rank_scatter and with
    # the per-edge rank_scatter_reference patched in.
    app = PersonalizedPageRankApp()
    app.setup(graph, 0)
    edge_src, edge_dst, _, _ = graph.expand_level(app.initial_frontier())
    new_s = _best_of(lambda: app.process_level(edge_src, edge_dst), repeats)
    with mock.patch.object(ppr, "rank_scatter", rank_scatter_reference):
        ref_s = _best_of(lambda: app.process_level(edge_src, edge_dst), repeats)
    _row("ppr full level (share per node)", graph.num_edges, new_s, ref_s)


def bench_run_scoring(repeats: int, graph: CSRGraph) -> None:
    # The kernels of one BFS on a mesh (a few hundred edges a level),
    # scored as a run is: stacked, one run_kernels and kernel_nodes,
    # against each kernel scored as its own batch of one.  The second
    # row keeps the first six, the kernels of a short run.
    app = BFSApp()
    app.setup(graph, 0)
    scheduler = SageScheduler()
    scheduler.reset(graph)
    rows, frontier = [], app.initial_frontier()
    while frontier.size:
        edge_src, edge_dst, _, degrees = graph.expand_level(frontier)
        rows.append(scheduler.kernel_stats(frontier, degrees, edge_dst, graph, app))
        frontier = app.process_level(edge_src, edge_dst)

    for kernels in (rows, rows[:6]):
        iterations = list(range(len(kernels)))

        def run_new(kernels=kernels, iterations=iterations):
            device = Device(scheduler.spec)
            batch = KernelBatch.of(kernels)
            device.kernel_nodes(device.run_kernels(batch), iterations)

        def run_ref(kernels=kernels, iterations=iterations):
            device = Device(scheduler.spec)
            for stats, iteration in zip(kernels, iterations):
                device.kernel_nodes(device.run_kernel(stats), [iteration])

        _row(
            f"run scoring ({len(kernels)} kernels)",
            len(kernels),
            _best_of(run_new, repeats),
            _best_of(run_ref, repeats),
        )


def bench_whole_level(repeats: int, graph: CSRGraph) -> None:
    # One PageRank run of 20 full-frontier levels, with the full-level
    # shortcuts against every level on the general path.
    def run_new():
        app = PageRankApp(max_iterations=20, tolerance=0.0)
        TraversalPipeline(graph, SageScheduler()).run(app)

    def run_ref():
        with mock.patch.object(CSRGraph, "is_full_frontier", lambda self, frontier: False):
            run_new()

    _row(
        "whole-graph level (20 PR levels)",
        graph.num_edges,
        _best_of(run_new, repeats),
        _best_of(run_ref, repeats),
    )


def bench_full_level_pricing(repeats: int, graph: CSRGraph) -> None:
    # One full PageRank level priced as a queue of one by level_stats:
    # the node table's column totals and the graph's distinct counts,
    # against the same level gathered and counted like a partial one.
    app = PageRankApp()
    app.setup(graph)
    frontier = np.arange(graph.num_nodes, dtype=np.int64)
    _, edge_dst, edge_pos, degrees = graph.expand_level(frontier)
    scheduler = SageScheduler()
    scheduler.reset(graph)

    def price(full):
        level = Level(0, frontier, degrees, edge_dst, edge_pos, NullSpan(), full)
        return lambda: scheduler.level_stats([level], graph, app)

    _row(
        "full PR level pricing (queue of 1)",
        graph.num_edges,
        _best_of(price(True), repeats),
        _best_of(price(False), repeats),
    )


def bench_expand_mesh_level(repeats: int, graph: CSRGraph, calls: int = 1000) -> None:
    # Level 75 of a BFS from node 0: the 76 nodes at that distance.
    app = BFSApp()
    app.setup(graph, 0)
    frontier = app.initial_frontier()
    for _ in range(75):
        edge_src, edge_dst, _, _ = graph.expand_level(frontier)
        frontier = app.process_level(edge_src, edge_dst)

    def run_new():
        for _ in range(calls):
            graph.expand_level(frontier)

    def run_ref():
        for _ in range(calls):
            expand_frontier_reference(graph, frontier)

    _row(
        f"expand_level (mesh level) x{calls}",
        int(graph.out_degrees()[frontier].sum()),
        _best_of(run_new, repeats),
        _best_of(run_ref, repeats),
    )


def bench_relabel(rng, repeats: int, graph: CSRGraph) -> None:
    # One reorder commit's host work on the adaptive_session graph: the
    # relabelled CSR against its definition (the edge list relabelled
    # and rebuilt), and its node table derived from the old graph's
    # against tiling it afresh.
    perm = rng.permutation(graph.num_nodes)

    def run_ref():
        coo = graph.to_coo()
        CSRGraph.from_edges(graph.num_nodes, perm[coo.src], perm[coo.dst])

    _row(
        "permute (twitter_like 0.15)",
        graph.num_edges,
        _best_of(lambda: graph.permute(perm), repeats),
        _best_of(run_ref, repeats),
    )
    relabelled = graph.permute(perm)
    spec = SageScheduler().spec
    key = (spec.block_size, DEFAULT_MIN_TILE, spec.sector_width, True)
    table = NodeAccounting.build(graph, *key)
    _row(
        "node table: derive vs build",
        graph.num_nodes,
        _best_of(lambda: table.relabelled(perm, relabelled, spec.sector_width), repeats),
        _best_of(lambda: NodeAccounting.build(relabelled, *key), repeats),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller inputs, fewer repeats")
    args = parser.parse_args(argv)
    scale = 1 if args.quick else 8
    repeats = 2 if args.quick else 3
    rng = np.random.default_rng(11)

    print("bench_hotpaths: vectorized hot paths vs retained references")
    bench_segmented(rng, repeats, 125_000 * scale)
    bench_tiling(rng, repeats, 62_500 * scale)
    bench_sampling(rng, repeats, 125_000 * scale)
    bench_reorder(rng, repeats, 125_000 * scale)
    bench_coo_sort(rng, repeats, 125_000 * scale)
    graph = rmat(12 if args.quick else 15, 8, seed=11)
    bench_expand(rng, repeats, graph)
    bench_pagerank_filter(rng, max(repeats, 20), graph)
    bench_ppr_level(max(repeats, 20), graph)
    side = 48 if args.quick else 112
    bench_run_scoring(repeats, grid_2d(side, side))
    pagerank_graph = rmat(10 if args.quick else 15, 8, seed=0)
    bench_whole_level(repeats, pagerank_graph)
    bench_full_level_pricing(max(repeats, 10), pagerank_graph)
    bench_distinct_counts(rng, repeats, 100_000 * scale)
    bench_relax(rng, repeats, 100_000 * scale)
    bench_expand_mesh_level(repeats, grid_2d(112, 112))
    bench_relabel(rng, max(repeats, 20), twitter_like(0.15).graph)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
