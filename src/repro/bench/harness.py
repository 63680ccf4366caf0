"""Experiment drivers — one row builder per results file.

Each function returns a list of plain-dict rows, which
:mod:`repro.bench.experiments` formats, writes under
``benchmarks/results/`` and checks against its claim.  ``scale`` shrinks
the five dataset stand-ins for quick runs; the committed results are at
full scale, tests run small.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.apps import BFSApp, PageRankApp, PageRankPullApp
from repro.baselines import (
    B40CScheduler,
    GrouteScheduler,
    GunrockScheduler,
    LigraRunner,
    ThreadPerNodeScheduler,
    TigrScheduler,
)
from repro.bench.rounds import sage_reorder_rounds
from repro.bench.session import SessionTrace, run_query_session
from repro.bench.workloads import APP_NAMES, app_factory, needs_source, pick_sources
from repro.core import CompressedTraversalScheduler, SageScheduler, run_app
from repro.core.scheduler import Scheduler
from repro.core.tiling import decompose_frontier
from repro.gpusim.cost import block_placement
from repro.gpusim.events import MakespanSimulator, tasks_from_decomposition
from repro.gpusim.spec import GPUSpec
from repro.graph import CompressedCSRGraph, datasets, degree_stats
from repro.graph.csr import CSRGraph, graph_memo
from repro.multigpu import MultiGpuRunner, chunk_partition, metis_like
from repro.outofcore import OnDemandUMRunner, SageOutOfCoreRunner, SubwayRunner
from repro.reorder import (
    gorder_order,
    llp_order,
    rcm_order,
    timed_ordering,
)

Row = dict[str, object]


def _mean_gteps(
    graph: CSRGraph,
    app_name: str,
    scheduler_factory,
    sources: Iterable[int] | None,
) -> float:
    """Average traversal speed over sources (one run for global apps)."""
    make_app = app_factory(app_name)
    if not needs_source(app_name):
        result = run_app(graph, make_app(), scheduler_factory())
        return result.gteps
    speeds = [
        run_app(graph, make_app(), scheduler_factory(), source=int(s)).gteps
        for s in (sources if sources is not None else ())
    ]
    return float(np.mean(speeds)) if speeds else 0.0


# ----------------------------------------------------------------------
# Table 1 — dataset statistics
# ----------------------------------------------------------------------

def table1_rows(scale: float = 1.0) -> list[Row]:
    """Statistics of the five dataset stand-ins (paper Table 1)."""
    rows: list[Row] = []
    for ds in datasets.full_suite(scale):
        stats = degree_stats(ds.graph)
        rows.append({
            "dataset": ds.name,
            "category": ds.category,
            "nodes": ds.num_nodes,
            "edges": ds.num_edges,
            "avg_degree": round(ds.avg_degree, 1),
            "max_degree": stats.maximum,
            "degree_gini": round(stats.gini, 3),
        })
    return rows


# ----------------------------------------------------------------------
# Table 2 — reordering time consumption
# ----------------------------------------------------------------------

def table2_rows(scale: float = 1.0, *, sage_rounds: int = 3) -> list[Row]:
    """Wall-clock cost of each reordering method (paper Table 2)."""
    rows: list[Row] = []
    for ds in datasets.full_suite(scale):
        graph = ds.graph
        rcm = timed_ordering("rcm", rcm_order, graph)
        llp = timed_ordering("llp", llp_order, graph)
        gorder = timed_ordering("gorder", gorder_order, graph)
        rounds = sage_reorder_rounds(graph, sage_rounds,
                                     checkpoints=(sage_rounds,))
        rows.append({
            "dataset": ds.name,
            "rcm_s": round(rcm.seconds, 4),
            "llp_s": round(llp.seconds, 4),
            "gorder_s": round(gorder.seconds, 4),
            "sage_per_round_s": round(rounds.mean_round_seconds, 4),
        })
    return rows


# ----------------------------------------------------------------------
# Table 3 — Tiled Partitioning overhead
# ----------------------------------------------------------------------

def table3_rows(scale: float = 1.0, *, num_sources: int = 3) -> list[Row]:
    """Tiled-Partitioning scheduling cost as share of runtime (Table 3).

    Overhead is the profiler's scheduling-cycle share for the full SAGE
    engine (TP active, RTS amortizing repeat visits), reported per app
    and dataset as the paper does.
    """
    rows: list[Row] = []
    for ds in datasets.full_suite(scale):
        graph = ds.graph
        sources = pick_sources(graph, num_sources, seed=7)
        row: Row = {"dataset": ds.name}
        for app_name in APP_NAMES:
            scheduler = SageScheduler()
            make_app = app_factory(app_name)
            if needs_source(app_name):
                results = [
                    run_app(graph, make_app(), scheduler, source=int(s))
                    for s in sources
                ]
            else:
                results = [run_app(graph, make_app(), scheduler)]
            total_ms = float(np.mean([r.seconds for r in results])) * 1e3
            overhead_frac = float(np.mean(
                [r.profiler.overhead_fraction for r in results]
            ))
            row[f"{app_name}_total_ms"] = round(total_ms, 4)
            row[f"{app_name}_tp_ms"] = round(total_ms * overhead_frac, 4)
            row[f"{app_name}_tp_pct"] = round(100 * overhead_frac, 1)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figure 6 — SAGE under different node orderings
# ----------------------------------------------------------------------

def _gorder(graph: CSRGraph) -> np.ndarray:
    """Gorder's permutation of ``graph``, computed once per graph object:
    Figures 6 and 7 order the same cached dataset graphs."""
    perm, _ = graph_memo(
        graph, "gorder", lambda: gorder_order(graph)
    )
    return perm


def fig6_rows(
    scale: float = 1.0,
    *,
    num_sources: int = 3,
    sage_checkpoints: tuple[int, ...] = (1, 5, 20, 50),
) -> list[Row]:
    """SAGE traversal speed under each ordering (paper Figure 6).

    Orders compared: original, RCM, LLP, Gorder, and SAGE's own
    Sampling-based Reordering after each checkpoint round.
    """
    rows: list[Row] = []
    for ds in datasets.full_suite(scale):
        graph = ds.graph
        variants: dict[str, CSRGraph] = {"original": graph}
        variants["rcm"] = graph.permute(rcm_order(graph))
        variants["llp"] = graph.permute(llp_order(graph))
        variants["gorder"] = graph.permute(_gorder(graph))
        rounds = sage_reorder_rounds(
            graph, max(sage_checkpoints), checkpoints=sage_checkpoints
        )
        for r in sage_checkpoints:
            variants[f"sage_{r}"] = rounds.snapshots[r]
        for app_name in APP_NAMES:
            row: Row = {"dataset": ds.name, "app": app_name}
            for label, g in variants.items():
                sources = pick_sources(g, num_sources, seed=7)
                row[label] = round(_mean_gteps(
                    g, app_name, SageScheduler, sources
                ), 4)
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figure 7 — SAGE vs PGP approaches, with/without Gorder
# ----------------------------------------------------------------------

def _pgp_schedulers() -> dict[str, type[Scheduler]]:
    return {
        "tpn": ThreadPerNodeScheduler,
        "b40c": B40CScheduler,
        "tigr": TigrScheduler,
        "gunrock": GunrockScheduler,
        "sage": SageScheduler,
    }


def fig7_rows(
    scale: float = 1.0,
    *,
    num_sources: int = 3,
) -> list[Row]:
    """GTEPS of every PGP approach per app/dataset (paper Figure 7).

    Gorder is applied to every method except SAGE (whose runtime
    reordering replaces preprocessing), mirroring the paper's setup.
    ``ligra`` rows use the CPU model.
    """
    rows: list[Row] = []
    for ds in datasets.full_suite(scale):
        graph = ds.graph
        reordered = graph.permute(_gorder(graph))
        for app_name in APP_NAMES:
            row: Row = {"dataset": ds.name, "app": app_name}
            sources = pick_sources(graph, num_sources, seed=7)
            # CPU baseline.
            make_app = app_factory(app_name)
            if needs_source(app_name):
                ligra = float(np.mean([
                    LigraRunner().run(graph, make_app(), int(s)).gteps
                    for s in sources
                ]))
            else:
                ligra = LigraRunner().run(graph, make_app()).gteps
            row["ligra"] = round(ligra, 4)
            for name, factory in _pgp_schedulers().items():
                row[name] = round(_mean_gteps(
                    graph, app_name, factory, sources
                ), 4)
                if name != "sage":
                    g_sources = pick_sources(reordered, num_sources, seed=7)
                    row[f"{name}+gorder"] = round(_mean_gteps(
                        reordered, app_name, factory, g_sources
                    ), 4)
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figure 8 — out-of-core BFS
# ----------------------------------------------------------------------

def fig8_rows(
    scale: float = 1.0,
    *,
    num_sources: int = 3,
) -> list[Row]:
    """Out-of-core BFS: SAGE vs Subway vs naive UM (paper Figure 8),
    each holding its default quarter of the graph on the device."""
    rows: list[Row] = []
    for ds in datasets.full_suite(scale):
        graph = ds.graph
        sources = pick_sources(graph, num_sources, seed=7)
        row: Row = {"dataset": ds.name}
        for runner_factory in (SubwayRunner, SageOutOfCoreRunner,
                               OnDemandUMRunner):
            speeds = []
            transfer = []
            for s in sources:
                runner = runner_factory()
                result = runner.run(graph, BFSApp(), int(s))
                speeds.append(result.gteps)
                transfer.append(result.extras["transfer_seconds"])
            name = runner_factory.name
            row[name] = round(float(np.mean(speeds)), 4)
            row[f"{name}_xfer_ms"] = round(float(np.mean(transfer)) * 1e3, 3)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figure 9 — multi-GPU BFS
# ----------------------------------------------------------------------

def fig9_rows(scale: float = 1.0, *, num_sources: int = 3) -> list[Row]:
    """Multi-GPU BFS: Gunrock/Groute (+/- metis) and SAGE (Figure 9).

    metis-like partitioning cost is excluded from the reported speeds, as
    in the paper; SAGE uses the preprocessing-free chunk partition.
    """
    rows: list[Row] = []
    for ds in datasets.full_suite(scale):
        graph = ds.graph
        sources = pick_sources(graph, num_sources, seed=7)
        chunks = chunk_partition(graph.num_nodes, 2)
        metis = metis_like(graph, 2)
        single = chunk_partition(graph.num_nodes, 1)

        def mean_speed(runner_factory) -> float:
            speeds = []
            for s in sources:
                runner = runner_factory()
                speeds.append(runner.run(graph, BFSApp(), int(s)).gteps)
            return round(float(np.mean(speeds)), 4)

        row: Row = {"dataset": ds.name}
        row["gunrock_1gpu"] = mean_speed(lambda: MultiGpuRunner(
            GunrockScheduler, single, num_gpus=1, name="gunrock-1"))
        row["gunrock_2gpu"] = mean_speed(lambda: MultiGpuRunner(
            GunrockScheduler, chunks, num_gpus=2, name="gunrock-2"))
        row["gunrock_2gpu_metis"] = mean_speed(lambda: MultiGpuRunner(
            GunrockScheduler, metis, num_gpus=2, name="gunrock-2m"))
        row["groute_2gpu"] = mean_speed(lambda: MultiGpuRunner(
            GrouteScheduler, chunks, num_gpus=2, async_mode=True,
            name="groute-2"))
        row["groute_2gpu_metis"] = mean_speed(lambda: MultiGpuRunner(
            GrouteScheduler, metis, num_gpus=2, async_mode=True,
            name="groute-2m"))
        row["sage_1gpu"] = mean_speed(lambda: MultiGpuRunner(
            SageScheduler, single, num_gpus=1, name="sage-1"))
        # Resident tiles form device-local work queues consumed as they
        # arrive, so SAGE's multi-GPU coordination is asynchronous (no
        # bulk barrier) while still preprocessing-free (chunk partition).
        row["sage_2gpu"] = mean_speed(lambda: MultiGpuRunner(
            SageScheduler, chunks, num_gpus=2, async_mode=True,
            name="sage-2"))
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figure 10 — ablation study
# ----------------------------------------------------------------------

def fig10_rows(
    scale: float = 1.0,
    *,
    num_sources: int = 3,
    reorder_rounds: int = 10,
) -> list[Row]:
    """Incremental impact of TP, RTS and SR (paper Figure 10)."""
    configs: list[tuple[str, dict[str, bool]]] = [
        ("base", dict(tiled_partitioning=False, resident_stealing=False)),
        ("+tp", dict(tiled_partitioning=True, resident_stealing=False)),
        ("+tp+rts", dict(tiled_partitioning=True, resident_stealing=True)),
    ]
    rows: list[Row] = []
    for ds in datasets.full_suite(scale):
        graph = ds.graph
        sources = pick_sources(graph, num_sources, seed=7)
        # SR's steady state: the order after `reorder_rounds` rounds.
        reordered = sage_reorder_rounds(
            graph, reorder_rounds, checkpoints=(reorder_rounds,)
        ).snapshots[reorder_rounds]
        for app_name in APP_NAMES:
            row: Row = {"dataset": ds.name, "app": app_name}
            for label, flags in configs:
                row[label] = round(_mean_gteps(
                    graph, app_name,
                    lambda flags=flags: SageScheduler(**flags),
                    sources,
                ), 4)
            r_sources = pick_sources(reordered, num_sources, seed=7)
            row["+tp+rts+sr"] = round(_mean_gteps(
                reordered, app_name, SageScheduler, r_sources
            ), 4)
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Parameter ablations of SAGE's own design knobs (beyond the paper)
# ----------------------------------------------------------------------

def _knob_rows(scale: float, knob: str, values: tuple) -> list[Row]:
    """BFS/PR GTEPS on twitter for each value of one SageScheduler knob."""
    graph = datasets.twitter_like(scale).graph
    sources = pick_sources(graph, 2, seed=7)
    rows: list[Row] = []
    for value in values:
        row: Row = {knob: value}
        for app_name in ("bfs", "pr"):
            row[app_name] = round(_mean_gteps(
                graph, app_name,
                lambda v=value: SageScheduler(**{knob: v}),
                sources,
            ), 4)
        rows.append(row)
    return rows


def min_tile_rows(scale: float = 1.0) -> list[Row]:
    """MIN_TILE_SIZE sweep: fewer fragments vs deeper partitions."""
    return _knob_rows(scale, "min_tile", (4, 8, 16, 32))


def alignment_rows(scale: float = 1.0) -> list[Row]:
    """Sector-aligned tiles vs unaligned ones (Section 5.3)."""
    return _knob_rows(scale, "tile_alignment", (True, False))


def compressed_rows(scale: float = 1.0) -> list[Row]:
    """BFS on the gap+varint compressed image vs the plain CSR."""
    rows: list[Row] = []
    for ds in datasets.full_suite(scale):
        graph = ds.graph
        sources = pick_sources(graph, 2, seed=7)
        compressed = CompressedCSRGraph.from_csr(graph)
        rows.append({
            "dataset": ds.name,
            "ratio": round(compressed.compression_ratio, 2),
            "plain_bfs": round(_mean_gteps(
                graph, "bfs", SageScheduler, sources), 4),
            "compressed_bfs": round(_mean_gteps(
                graph, "bfs",
                lambda c=compressed: CompressedTraversalScheduler(
                    SageScheduler(), c),
                sources,
            ), 4),
        })
    return rows


def push_pull_rows(scale: float = 1.0) -> list[Row]:
    """Atomics ablation: push (scatter+atomics) vs pull (gather, none)."""
    rows: list[Row] = []
    for ds in datasets.full_suite(scale):
        graph = ds.graph
        push = run_app(graph, PageRankApp(max_iterations=10),
                       SageScheduler())
        pull = run_app(graph.reversed(), PageRankPullApp(max_iterations=10),
                       SageScheduler())
        rows.append({
            "dataset": ds.name,
            "push_gteps": round(push.gteps, 4),
            "pull_gteps": round(pull.gteps, 4),
            "push_atomics": int(push.profiler.atomic_conflicts),
        })
    return rows


# ----------------------------------------------------------------------
# Sweeps beyond the paper's fixed operating points
# ----------------------------------------------------------------------

def device_fraction_rows(scale: float = 1.0) -> list[Row]:
    """Figure 8's SAGE-vs-Subway comparison over device-memory budgets.

    Subway ships each level's active subgraph whatever the budget, so
    only SAGE's runner takes the fraction.
    """
    graph = datasets.twitter_like(scale).graph
    sources = pick_sources(graph, 2, seed=7)
    rows: list[Row] = []
    for fraction in (0.05, 0.1, 0.25, 0.5, 0.9):
        row: Row = {"device_fraction": fraction}
        for name, make in (
            (SubwayRunner.name, SubwayRunner),
            (SageOutOfCoreRunner.name,
             lambda: SageOutOfCoreRunner(device_fraction=fraction)),
        ):
            speeds = [
                make().run(graph, BFSApp(), int(s)).gteps for s in sources
            ]
            row[name] = round(float(np.mean(speeds)), 4)
        rows.append(row)
    return rows


def gpu_scaling_rows(scale: float = 1.0) -> list[Row]:
    """Figure 9 generalized: async SAGE BFS on 1-8 metis-like GPUs."""
    graph = datasets.friendster_like(scale).graph
    sources = pick_sources(graph, 2, seed=7)
    rows: list[Row] = []
    for k in (1, 2, 4, 8):
        assignment = metis_like(graph, k) if k > 1 else \
            np.zeros(graph.num_nodes, dtype=np.int64)
        speeds = [
            MultiGpuRunner(SageScheduler, assignment, num_gpus=k,
                           async_mode=True)
            .run(graph, BFSApp(), int(s)).gteps
            for s in sources
        ]
        rows.append({"gpus": k, "gteps": round(float(np.mean(speeds)), 4)})
    return rows


# ----------------------------------------------------------------------
# Cost-model calibration: analytic placement vs discrete-event truth
# ----------------------------------------------------------------------

#: Concurrent blocks per SM in the calibration replay.
CALIBRATION_SLOTS = 4


def calibration_rows(scale: float = 1.0) -> list[Row]:
    """Each dataset's full-frontier tile decomposition, replayed through
    the discrete-event simulator against the analytic placement rules."""
    spec = GPUSpec()
    rows: list[Row] = []
    for ds in datasets.full_suite(scale):
        degrees = ds.graph.out_degrees()
        decomp = decompose_frontier(degrees, spec.block_size, 8)
        tasks = tasks_from_decomposition(decomp)
        sim = MakespanSimulator(spec.num_sms, slots_per_sm=CALIBRATION_SLOTS)
        owner = sim.simulate(tasks, stealing=False)
        stolen = sim.simulate(tasks, stealing=True)

        # analytic: owner = busiest SM's block queue / slots;
        # stealing = work-conserving even split.
        pad = (-degrees.size) % spec.block_size
        per_block = np.append(degrees.astype(float), np.zeros(pad)).reshape(
            -1, spec.block_size).sum(axis=1)
        analytic_owner = (block_placement(per_block, spec.num_sms).max()
                          / CALIBRATION_SLOTS)
        analytic_even = degrees.sum() / (spec.num_sms * CALIBRATION_SLOTS)

        rows.append({
            "dataset": ds.name,
            "sim_owner": round(owner.makespan_cycles, 1),
            "analytic_owner": round(float(analytic_owner), 1),
            "sim_steal": round(stolen.makespan_cycles, 1),
            "analytic_steal": round(float(analytic_even), 1),
            "steal_speedup": round(
                owner.makespan_cycles / stolen.makespan_cycles, 2),
        })
    return rows


# ----------------------------------------------------------------------
# Time-to-insight: a BFS query session under three deployment profiles
# ----------------------------------------------------------------------

#: BFS queries per time-to-insight session.
SESSION_QUERIES = 30


def session_traces(scale: float = 1.0) -> dict[str, SessionTrace]:
    """One seeded BFS session on twitter per deployment profile."""
    graph = datasets.twitter_like(scale).graph
    return run_query_session(graph, SESSION_QUERIES, seed=11)


def session_rows(traces: dict[str, SessionTrace]) -> list[Row]:
    """When each profile's answers become available."""
    rows: list[Row] = []
    for name, trace in traces.items():
        times = trace.completion_times
        rows.append({
            "system": name,
            "setup_s": round(trace.setup_seconds, 4),
            "first_answer_s": round(float(times[0]), 4),
            "q10_done_s": round(float(times[min(9, len(times) - 1)]), 4),
            "all_done_s": round(trace.total_seconds, 4),
        })
    return rows
