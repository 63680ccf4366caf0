#!/usr/bin/env python
"""Perf-trajectory harness: the fixed suite CI diffs across PRs.

Runs a small, fully seeded workload suite — one row per record of
``TIERS``: traversal runs on R-MAT graphs, open-loop serving replays, an
update stream and the committed tuned profiles — and writes
``BENCH_repro.json`` with simulated cycles, simulated seconds, wall time
and the key observability counters for each workload.  A record names
its floor and the guard that checks its answers, so a new tier is one
table entry.  Everything gated is *simulated* (deterministic across
machines); wall time is recorded for context but never gated.

Usage::

    PYTHONPATH=src python benchmarks/bench_trajectory.py --smoke \
        --out BENCH_repro.json                      # (re)write a file
    PYTHONPATH=src python benchmarks/bench_trajectory.py --smoke \
        --baseline BENCH_repro.json --check         # CI regression gate

The gate fails (exit 1) when any value of any workload moves, in
either direction, by more than ``--tolerance`` (default 1e-9,
relative: float noise) against the committed baseline, or when a row
gains or loses a key.  Only ``UNGATED_METRICS`` (wall time) is exempt:
every other value is simulated or counted and deterministic, so any
move is a change in the model; to accept one, re-run with ``--out
BENCH_repro.json`` and commit the result (see README "Observability" /
DESIGN.md for the policy).

This file is NOT a pytest module on purpose: it is a standalone artifact
generator invoked by the CI benchmark-smoke job.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from collections.abc import Callable, Mapping  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

from repro.apps import BFSApp, PageRankApp, SSSPApp  # noqa: E402
from repro.core import SageScheduler, TraversalPipeline  # noqa: E402
from repro.errors import require  # noqa: E402
from repro.graph.generators import rmat  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402
from repro.outofcore.runners import SageOutOfCoreRunner  # noqa: E402
from repro.serve import (  # noqa: E402
    SAMPLING_MIX,
    SINGLE_BROKER,
    AdmissionConfig,
    PipelineConfig,
    generate_queries,
    open_loop_arrivals,
    run_direct,
    sequential_baseline,
    simulate_cluster_open_loop,
    skew_sources,
)

#: Seconds from script start to the end of its module-level imports
#: (informational, never gated; reported by ``--wall-report``).
IMPORT_SECONDS = time.perf_counter() - _START

SCHEMA_VERSION = 1

#: Row keys the CI gate never compares: host timing, which varies run
#: to run.  The gate pins every other key of every row.
UNGATED_METRICS = frozenset({"wall_seconds"})


class Sizes(NamedTuple):
    """A value that differs between ``--smoke`` and the full suite."""

    smoke: int
    full: int


def _at(value, smoke: bool):
    """``value`` at the suite's size (a plain value is the same at both)."""
    if isinstance(value, Sizes):
        return value.smoke if smoke else value.full
    return value


#: R-MAT scale of the base graph: the first four traversal rows and
#: every open-loop row.
RMAT_SCALE = Sizes(10, 13)

#: R-MAT scale of the scale-up tier (2**17 = 131072 nodes, ~1M edges) —
#: paper-shaped graph sizes the vectorized hot paths make affordable.
SCALE_UP_RMAT_SCALE = 17

#: PageRank iterations of the traversal rows.
PR_ITERATIONS = Sizes(5, 15)

#: A committed tuned profile counts toward the ``tuned_vs_default``
#: floor when it beats the default configuration by at least this factor
#: (total simulated device seconds, SLO-feasible).  Measured at commit
#: time: rmat 1.157x, road 1.083x — the floor leaves headroom but still
#: fails if tuning ever degrades to a no-op.
TUNED_SPEEDUP_FLOOR = 1.05

#: Where the committed tuned profiles live (repo-root relative).
PROFILES_DIR = Path(__file__).resolve().parent.parent / "profiles"


def _rmat(scale: int):
    return rmat(scale, edge_factor=8, seed=7)


def _require_same(got: dict, want: dict, what: str) -> None:
    """Raise unless two result dicts hold the same keys and arrays."""
    require(set(got) == set(want), f"{what}: result keys differ")
    for key in want:
        require(np.array_equal(got[key], want[key]), f"{what}:{key} diverged")


def _in_core(graph, app, source, metrics, sanitizer):
    pipeline = TraversalPipeline(
        graph, SageScheduler(), metrics=metrics, sanitizer=sanitizer,
    )
    return pipeline.run(app, source=source)


def _out_of_core(graph, app, source, metrics, sanitizer):
    runner = SageOutOfCoreRunner(device_fraction=0.25, metrics=metrics)
    runner.set_sanitizer(sanitizer)
    return runner.run(graph, app, source)


class TraversalTier(NamedTuple):
    """One app run from the top-degree node of an R-MAT graph; the only
    kind of row ``--sanitize`` audits.

    Rows whose scale resolves to the same value share one graph object
    within a suite run, so the SAGE node table the first of them builds
    serves the rest (``sage.node_tables_built`` appears on that row only).
    """

    name: str
    scale: int | Sizes
    app: Callable
    app_kwargs: Mapping[str, Any] = {}
    runner: Callable = _in_core   # (graph, app, source, metrics, sanitizer)

    floor_key = None

    def run(self, smoke: bool, graphs: dict, sanitizer=None) -> dict:
        scale = _at(self.scale, smoke)
        if scale not in graphs:
            graphs[scale] = _rmat(scale)
        graph = graphs[scale]
        source = int(np.argmax(graph.out_degrees()))
        app = self.app(
            **{key: _at(v, smoke) for key, v in self.app_kwargs.items()}
        )
        metrics = MetricsRegistry()
        wall_start = time.perf_counter()
        result = self.runner(graph, app, source, metrics, sanitizer)
        wall = time.perf_counter() - wall_start
        profiler = result.profiler
        counters = metrics.report()["counters"]
        row = {
            "simulated_seconds": result.seconds,
            "total_cycles": profiler.total_cycles,
            "kernels": float(profiler.kernels),
            "dram_bytes": profiler.dram_bytes,
            "iterations": float(result.iterations),
            "edges_traversed": float(result.edges_traversed),
            "lane_efficiency": profiler.lane_efficiency,
            "overhead_fraction": profiler.overhead_fraction,
            "wall_seconds": wall,  # informational, never gated
        }
        # Carry the scheduler/transfer counters so trajectory diffs show
        # *why* a metric moved, not just that it did.
        for key in ("sage.tiles", "sage.tiles_expanded",
                    "sage.tiles_stolen_resident", "sage.node_tables_built",
                    "pipeline.pricing_passes",
                    "ooc.bytes_transferred", "ooc.requests"):
            if key in counters:
                row[key] = counters[key]
        return row


def _oracle_every_fourth(graph, requests, replays) -> None:
    """Every fourth measured response equals the single-query
    :func:`repro.serve.run_direct` oracle, bit for bit (the full
    differential suite is tests/serve/test_sampling_differential.py)."""
    responses, _ = replays[-1]
    for request, response in list(zip(requests, responses))[::4]:
        oracle = run_direct(graph, request, SageScheduler).result
        _require_same(response.result, oracle,
                      f"{request.app} vs the direct oracle")


def _pipeline_matches_batch(graph, requests, replays) -> None:
    """Identical batch formation means identical device work and answers:
    the pipelined replay equals the batch replay to the bit, and every
    response equals the :func:`repro.serve.run_direct` oracle."""
    (batch_responses, batch), (pipe_responses, pipe) = replays
    require(pipe.sim_seconds_total == batch.sim_seconds_total,
             "pipelined device seconds differ from the batch replay's")
    for request, a, b in zip(requests, batch_responses, pipe_responses):
        _require_same(b.result, a.result,
                      f"{request.app} between batch and pipeline")
        oracle = run_direct(graph, request, SageScheduler).result
        _require_same(b.result, oracle, f"{request.app} vs the direct oracle")


#: An open-loop row's baseline kind -> (its seconds column, its speedup
#: column).  ``sequential`` serves one query at a time through the
#: direct oracle; ``single_broker`` is the same replay as
#: :data:`SINGLE_BROKER`; ``unpipelined`` is the same replay without
#: ``pipeline``.
BASELINES = {
    "sequential": ("sequential_seconds", "speedup_vs_sequential"),
    "single_broker": ("single_broker_seconds", "speedup_vs_single_broker"),
    "unpipelined": ("batch_device_seconds", "speedup_vs_batch"),
}


class OpenLoopTier(NamedTuple):
    """A seeded query trace replayed in virtual time against a baseline.

    The measured replay runs ``simulate_cluster_open_loop`` with
    ``replay``.  Every replay must answer every query OK, and ``guard``
    (if any) checks the answers, before the row is reported: a floor
    only ever accepts amortization or overlap, never changed answers.
    The row holds ``simulated_seconds`` (device seconds: busy time if
    pipelined), ``wall_seconds``, and under ``prefix`` the two
    ``BASELINES`` columns and each report field in ``columns`` (a field
    that already starts with the prefix keeps its name).
    """

    name: str
    prefix: str
    queries: Sizes
    seed: int
    rate_qps: float
    replay: Mapping[str, Any]   # simulate_cluster_open_loop settings
    baseline: str               # a BASELINES kind
    columns: tuple[str, ...]
    floor: float
    label: str                  # what the speedup is measured against
    mix: Mapping[str, float] | None = None
    skew: Mapping[str, Any] | None = None   # skew_sources settings
    guard: Callable | None = None   # (graph, requests, replays)

    @property
    def floor_key(self) -> str:
        return self.prefix + BASELINES[self.baseline][1]

    def run(self, smoke: bool, graphs=None, sanitizer=None) -> dict:
        """The row.  It builds its own graph, and the serving executor
        takes no sanitizer."""
        graph = _rmat(_at(RMAT_SCALE, smoke))
        num_queries = _at(self.queries, smoke)
        requests = generate_queries(
            "bench", graph.num_nodes, num_queries, seed=self.seed,
            mix=self.mix,
        )
        if self.skew is not None:
            requests = skew_sources(
                requests, num_nodes=graph.num_nodes, seed=self.seed,
                **self.skew,
            )
        arrivals = open_loop_arrivals(num_queries, self.rate_qps,
                                      seed=self.seed)

        def replay(**settings):
            return simulate_cluster_open_loop(
                {"bench": graph}, requests, arrivals, SageScheduler,
                **settings,
            )

        wall_start = time.perf_counter()
        replays = []
        if self.baseline == "sequential":
            baseline_seconds = sequential_baseline(
                graph, requests, SageScheduler
            )
        else:
            if self.baseline == "single_broker":
                settings = {**self.replay, **SINGLE_BROKER}
            else:
                settings = {k: v for k, v in self.replay.items()
                            if k != "pipeline"}
            replays.append(replay(**settings))
            baseline_seconds = replays[0][1].sim_seconds_total
        replays.append(replay(**self.replay, baseline_seconds=baseline_seconds))
        wall = time.perf_counter() - wall_start

        for _, report in replays:
            require(report.status_counts == {"ok": num_queries},
                     f"{self.name}: not every query answered OK: "
                     f"{report.status_counts}")
        if self.guard is not None:
            self.guard(graph, requests, replays)
        report = replays[-1][1]
        device = (report.pipeline_busy_seconds if "pipeline" in self.replay
                  else report.sim_seconds_total)
        seconds_key, speedup_key = BASELINES[self.baseline]
        row = {
            "simulated_seconds": device,
            self.prefix + seconds_key: report.baseline_seconds,
            self.prefix + speedup_key: report.baseline_seconds / device,
        }
        for field in self.columns:
            key = field if field.startswith(self.prefix) else self.prefix + field
            row[key] = float(getattr(report, field))
        row["wall_seconds"] = wall  # informational, never gated
        return row


#: The report fields every batched-service row carries.
SERVICE_COLUMNS = (
    "batch_occupancy_mean", "num_batches", "throughput_qps", "latency_p95",
)


def _pagerank_residual_norm(csr, p, damping=0.85) -> float:
    """Host-side ``|A(p) - p|_1`` for the exact PageRank operator.

    Used to turn the oracle's estimate into its own computed error
    certificate (``residual / (1 - damping)`` bounds the L1 distance to
    the true fixpoint), so the PageRank comparison below never trusts
    either side's convergence claim.
    """
    n = csr.num_nodes
    deg = csr.out_degrees().astype(np.float64)
    coo = csr.to_coo()
    out = np.zeros(n, dtype=np.float64)
    np.add.at(out, coo.dst, damping * p[coo.src] / deg[coo.src])
    out += (1.0 - damping) / n + damping * p[deg == 0.0].sum() / n
    return float(np.abs(out - p).sum())


def _dynamic_stream_row(smoke: bool) -> dict:
    """The ``dynamic_stream`` tier: incremental repair vs full recompute.

    A seeded stream of insert/delete batches flows through a
    :class:`DynamicGraph`; after every merge the delta-aware engines
    (incremental BFS, SSSP, PageRank) repair their standing answers
    while the oracle recomputes each app from scratch on the new graph.
    Both sides run on the same simulated device, so the gated ratio is
    pure device time at identical answers: BFS/SSSP must be
    bit-identical per epoch, and the PageRank estimates must be within
    the *sum* of the two sides' computed residual certificates of each
    other (each bounds its own L1 distance to the true fixpoint).

    The tier runs its own graph scale (15/16) instead of ``RMAT_SCALE``:
    with a 1 us kernel-launch latency, a scale-10 graph makes *every*
    traversal launch-bound, so a repair that touches 30 vertices costs
    the same handful of launches as a full sweep and the ratio measures
    nothing.  At 250 K+ edges the full recompute pays real per-edge
    work each epoch while the repair cone stays launch-dominated —
    which is exactly the regime the incremental engines exist for.
    """
    from repro.apps.incremental import (
        IncrementalBFS,
        IncrementalPageRank,
        IncrementalSSSP,
    )
    from repro.graph.dynamic import DynamicGraph

    graph = _rmat(15 if smoke else 16)
    epochs = 6 if smoke else 10
    rng = np.random.default_rng(19)
    source = int(np.argmax(graph.out_degrees()))
    batch = max(8, graph.num_edges // 4000)
    pr_tolerance = 1e-6
    damping = 0.85

    dyn = DynamicGraph(graph)
    engines = {
        "bfs": IncrementalBFS(dyn.graph, source),
        "sssp": IncrementalSSSP(dyn.graph, source),
        "pr": IncrementalPageRank(
            dyn.graph, damping=damping, tolerance=pr_tolerance
        ),
    }

    def full_runs(csr):
        seconds = 0.0
        out = {}
        specs = {
            "bfs": (BFSApp(), source),
            "sssp": (SSSPApp(), source),
            "pr": (PageRankApp(damping=damping, max_iterations=200,
                               tolerance=pr_tolerance), None),
        }
        for name, (app, src) in specs.items():
            result = TraversalPipeline(csr, SageScheduler()).run(app, src)
            seconds += result.seconds
            out[name] = result.result
        return seconds, out

    wall_start = time.perf_counter()
    incremental_seconds = 0.0
    full_seconds = 0.0
    repairs = full_recomputes = noops = 0
    affected_total = 0
    for _ in range(epochs):
        coo = dyn.graph.to_coo()
        ins_src = rng.integers(0, graph.num_nodes, batch)
        ins_dst = rng.integers(0, graph.num_nodes, batch)
        keep = ins_src != ins_dst
        dyn.insert_edges(ins_src[keep], ins_dst[keep])
        drop = rng.choice(coo.src.size, size=batch // 2, replace=False)
        dyn.delete_edges(coo.src[drop], coo.dst[drop])
        dyn.flush()
        delta = dyn.last_delta
        new_graph = dyn.graph
        for engine in engines.values():
            report = engine.update(new_graph, delta)
            incremental_seconds += report.sim_seconds
            repairs += report.mode == "incremental"
            full_recomputes += report.mode == "full"
            noops += report.mode == "noop"
            affected_total += report.affected
        oracle_seconds, oracle = full_runs(new_graph)
        full_seconds += oracle_seconds
        for name in ("bfs", "sssp"):
            require(
                np.array_equal(engines[name].distances, oracle[name]["dist"]),
                f"incremental {name} diverged from the full-recompute oracle",
            )
        oracle_p = np.asarray(oracle["pr"]["pagerank"], dtype=np.float64)
        oracle_bound = _pagerank_residual_norm(
            new_graph, oracle_p, damping
        ) / (1.0 - damping)
        gap = float(np.abs(engines["pr"].pagerank - oracle_p).sum())
        bound = engines["pr"].error_bound() + oracle_bound
        require(
            gap <= bound + 1e-12,
            f"incremental PageRank outside the residual certificate: "
            f"|gap|_1={gap:.3e} > {bound:.3e}",
        )
    wall = time.perf_counter() - wall_start
    speedup = (
        full_seconds / incremental_seconds
        if incremental_seconds > 0 else float("inf")
    )
    return {
        "simulated_seconds": incremental_seconds,
        "dynamic_full_recompute_seconds": full_seconds,
        "dynamic_speedup_vs_recompute": speedup,
        "dynamic_epochs": float(epochs),
        "dynamic_repairs": float(repairs),
        "dynamic_full_recomputes": float(full_recomputes),
        "dynamic_noops": float(noops),
        "dynamic_affected_vertices": float(affected_total),
        "wall_seconds": wall,  # informational, never gated
    }


def _tuned_row(smoke: bool) -> dict:
    """The ``tuned_vs_default`` tier: committed profiles vs defaults.

    For every committed profile the evaluator replays the profile's own
    workload twice — once with the default configuration, once with the
    tuned point — and records the deterministic device-seconds speedup
    per graph category.  The profile's graph fingerprint is re-derived
    from the workload, so a regenerated graph (stale profile) fails
    loudly here instead of silently comparing unrelated configurations.
    Same size at --smoke and full: the tuning workloads are fixed.
    """
    from repro.serve.cache import graph_fingerprint
    from repro.tune import CostModelEvaluator, ProfileStore, get_workload

    store = ProfileStore(PROFILES_DIR)
    paths = store.list()
    if not paths:
        raise RuntimeError(
            f"no tuned profiles under {PROFILES_DIR} — run "
            "`python -m repro tune --out profiles` and commit the result"
        )
    wall_start = time.perf_counter()
    row: dict[str, float] = {}
    total_tuned = 0.0
    total_default = 0.0
    categories_above_floor = 0
    for path in paths:
        profile = store.load(path)
        evaluator = CostModelEvaluator(get_workload(profile.workload))
        fingerprint = graph_fingerprint(evaluator.graph)
        if fingerprint != profile.graph_fingerprint:
            raise RuntimeError(
                f"{path.name}: stale profile (graph fingerprint "
                f"{profile.graph_fingerprint} != {fingerprint}) — retune"
            )
        default = evaluator.default()
        tuned = evaluator.evaluate(profile.point)
        if not tuned.feasible:
            raise RuntimeError(
                f"{path.name}: tuned point is SLO-infeasible — retune"
            )
        speedup = default.cost_seconds / tuned.cost_seconds
        row[f"tuned_speedup_{profile.category}"] = speedup
        total_tuned += tuned.cost_seconds
        total_default += default.cost_seconds
        if speedup >= TUNED_SPEEDUP_FLOOR:
            categories_above_floor += 1
    row["simulated_seconds"] = total_tuned
    row["tuned_default_seconds"] = total_default
    row["tuned_categories_above_floor"] = float(categories_above_floor)
    row["wall_seconds"] = time.perf_counter() - wall_start
    return row


class RunnerTier(NamedTuple):
    """A row its own function writes, checks and times."""

    name: str
    runner: Callable[[bool], dict]   # smoke -> row
    floor_key: str                   # the row key the floor applies to
    floor: float                     # minimum value, enforced every run
    label: str                       # what the speedup is measured against

    def run(self, smoke: bool, graphs=None, sanitizer=None) -> dict:
        return self.runner(smoke)


#: Every row of the suite, in run order.  A record with a ``floor_key``
#: fails the run when that key falls below ``floor``; every row is
#: virtual-time, so the floors are deterministic across machines.
TIERS: tuple[TraversalTier | OpenLoopTier | RunnerTier, ...] = (
    TraversalTier("bfs_rmat", RMAT_SCALE, BFSApp),
    TraversalTier("pagerank_rmat", RMAT_SCALE, PageRankApp,
                  {"max_iterations": PR_ITERATIONS}),
    TraversalTier("sssp_rmat", RMAT_SCALE, SSSPApp),
    TraversalTier("bfs_rmat_outofcore", RMAT_SCALE, BFSApp,
                  runner=_out_of_core),
    # Scale-up tier: the simulated metrics are just as deterministic at
    # 131072 nodes as at 1024, so they are gated like every other row;
    # only wall time (informational) reflects the graph being ~1000x
    # heavier per iteration.
    TraversalTier("bfs_rmat_100k", SCALE_UP_RMAT_SCALE, BFSApp),
    TraversalTier("pagerank_rmat_100k", SCALE_UP_RMAT_SCALE, PageRankApp,
                  {"max_iterations": PR_ITERATIONS}),
    # Micro-batched service vs one query at a time.
    OpenLoopTier(
        "serve_openloop", "serve_", Sizes(64, 192), seed=7, rate_qps=400.0,
        replay={**SINGLE_BROKER, "batch_window": 0.05, "max_batch_size": 64},
        baseline="sequential", columns=SERVICE_COLUMNS,
        floor=2.0, label="device time vs one-query-at-a-time service",
    ),
    # Distinct sources never share a frontier, but the sampling executor
    # coalesces same-kind queries into one multi-source run; its
    # counter-based RNG keeps the answers bit-identical.
    OpenLoopTier(
        "sampling_openloop", "sampling_", Sizes(48, 144), seed=17,
        rate_qps=400.0, mix=SAMPLING_MIX,
        replay={**SINGLE_BROKER, "batch_window": 0.05, "max_batch_size": 64},
        baseline="sequential", columns=SERVICE_COLUMNS,
        guard=_oracle_every_fourth,
        floor=2.0, label="device time vs one-query-at-a-time service "
                         "(coalesced multi-source runs)",
    ),
    # A low-rate, hot-key skewed, source-heavy mix: micro-batching alone
    # cannot merge distinct SSSP sources, but the versioned cache
    # collapses the repeats.
    OpenLoopTier(
        "cluster_openloop", "cluster_", Sizes(64, 192), seed=11,
        rate_qps=100.0, mix={"bfs": 0.5, "sssp": 0.4, "pr": 0.1},
        skew={"hot_set_size": 4, "hot_fraction": 0.9},
        replay={"num_replicas": 2, "routing": "affinity",
                "batch_window": 0.05, "max_batch_size": 64},
        baseline="single_broker",
        columns=("cache_hit_ratio", "cache_hits", "num_batches",
                 "throughput_qps", "latency_p95"),
        floor=2.0,
        label="device time vs a single broker at equal offered load",
    ),
    # One replica, cache off and admission effectively unbounded, so
    # batch formation is identical on both sides and the ratio is pure
    # compute/transfer overlap.  Arrival spacing must be comparable to
    # per-batch *device* time (tens of microseconds on the smoke graph)
    # or the device drains every batch before the next window flushes:
    # 2e6 qps with a 10 us window keeps ~20 queries per batch and
    # several batches resident at once.
    OpenLoopTier(
        "pipeline_openloop", "pipeline_", Sizes(64, 192), seed=13,
        rate_qps=2e6, mix={"bfs": 0.3, "sssp": 0.6, "pr": 0.1},
        replay={"num_replicas": 1, "routing": "affinity",
                "batch_window": 1e-5, "max_batch_size": 64,
                "cache_capacity": 0,
                "admission": AdmissionConfig(max_concurrency=10**6),
                "pipeline": PipelineConfig(in_flight=4, num_streams=4,
                                           prefetch_depth=1)},
        baseline="unpipelined",
        columns=("pipeline_busy_seconds", "pipeline_overlap_saved_seconds",
                 "pipeline_inflight_peak", "num_batches"),
        guard=_pipeline_matches_batch,
        floor=1.3, label="device time vs the batch-at-a-time executor at "
                         "equal offered load",
    ),
    RunnerTier(
        "dynamic_stream", _dynamic_stream_row,
        "dynamic_speedup_vs_recompute", 2.0,
        "device time vs per-epoch full recomputes on the update stream",
    ),
    RunnerTier(
        "tuned_vs_default", _tuned_row, "tuned_categories_above_floor", 2,
        f"graph categories where tuned profiles beat the defaults by "
        f">= {TUNED_SPEEDUP_FLOOR:.2f}x",
    ),
)


def check_floors(current: dict) -> list[str]:
    """Every tier below its floor, as human-readable strings."""
    failures = []
    for tier in TIERS:
        if tier.floor_key is None:
            continue
        value = current["workloads"][tier.name][tier.floor_key]
        if value < tier.floor:
            failures.append(
                f"{tier.name}: {tier.floor_key}={value:.3f} < floor "
                f"{tier.floor} ({tier.label})"
            )
    return failures


def run_suite(smoke: bool, sanitizer=None) -> dict:
    """Run every record of ``TIERS``; returns the BENCH_repro.json payload.

    A :class:`repro.analysis.Sanitizer` audits the traversal rows only:
    the serving executor behind the open-loop rows takes no sanitizer,
    and the runner rows pass none.  The simulated metrics are unaffected
    either way.
    """
    graphs: dict = {}
    rows: dict[str, dict] = {}
    for tier in TIERS:
        row = tier.run(smoke, graphs, sanitizer)
        rows[tier.name] = row
        shown = tier.floor_key or "total_cycles"
        print(f"  {tier.name:24s} {shown}={row[shown]:.3f} "
              f"sim={row['simulated_seconds'] * 1e3:9.4f} ms "
              f"wall={row['wall_seconds']:6.2f} s")
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "smoke" if smoke else "full",
        "ungated_metrics": sorted(UNGATED_METRICS),
        "workloads": rows,
    }


def wall_time_report(current: dict) -> dict:
    """Wall-time-only view of a suite run (the CI perf-trend artifact).

    Wall times are machine-dependent and never gated; this report exists
    so perf trends stay visible across PRs without touching the gate.
    ``import_seconds`` is this script's module-level import time, which
    no tier's wall includes.
    """
    walls = {
        name: row["wall_seconds"]
        for name, row in current["workloads"].items()
    }
    return {
        "suite": current["suite"],
        "import_seconds": IMPORT_SECONDS,
        "wall_seconds": walls,
        "total_wall_seconds": sum(walls.values()),
    }


def check_regression(
    current: dict, baseline: dict, tolerance: float
) -> list[str]:
    """Every gated value that moved, either way, by more than
    ``tolerance`` relative to the baseline, as ``workload.key old -> new``
    lines, plus every key (or workload) that appeared or disappeared."""
    failures: list[str] = []
    if baseline.get("suite") != current.get("suite"):
        failures.append(
            f"suite mismatch: baseline is {baseline.get('suite')!r}, "
            f"current is {current.get('suite')!r} — refresh the baseline"
        )
        return failures
    base_rows = baseline.get("workloads", {})
    rows = current["workloads"]
    for name in sorted(set(base_rows) - set(rows)):
        failures.append(f"{name} disappeared from the suite")
    for name, row in rows.items():
        base = base_rows.get(name)
        if base is None:
            failures.append(f"{name} appeared — refresh the baseline")
            continue
        for key in sorted((set(base) | set(row)) - UNGATED_METRICS):
            if key not in row:
                failures.append(f"{name}.{key} disappeared (was {base[key]!r})")
                continue
            if key not in base:
                failures.append(
                    f"{name}.{key} appeared ({row[key]!r}) — refresh the baseline"
                )
                continue
            old, new = base[key], row[key]
            if abs(new - old) > tolerance * abs(old):
                change = (
                    f"{100 * (new / old - 1):+.6g} %" if old else "from 0"
                )
                failures.append(
                    f"{name}.{key} {old!r} -> {new!r} ({change}, "
                    f"tolerance {tolerance:g})"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small graphs (the CI configuration)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the trajectory JSON here")
    parser.add_argument("--wall-report", default=None, metavar="PATH",
                        help="write a wall-time-only JSON report here "
                             "(CI artifact; never gated)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="committed baseline to compare against")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if a gated value moves")
    parser.add_argument("--tolerance", type=float, default=1e-9,
                        help="allowed relative move either way "
                             "(default 1e-9)")
    parser.add_argument("--sanitize", action="store_true",
                        help="run the six traversal rows under the kernel "
                             "hazard sanitizer (the serving, dynamic and "
                             "tuned rows run unaudited); exit 1 on any "
                             "finding")
    args = parser.parse_args(argv)

    sanitizer = None
    if args.sanitize:
        from repro.analysis import Sanitizer
        sanitizer = Sanitizer()

    print(f"bench_trajectory: suite={'smoke' if args.smoke else 'full'}")
    current = run_suite(args.smoke, sanitizer)

    floor_failures = check_floors(current)
    if floor_failures:
        print("speedup tiers below their floors:", file=sys.stderr)
        for failure in floor_failures:
            print(f"  {failure}", file=sys.stderr)
        return 1

    if sanitizer is not None:
        if not sanitizer.clean:
            print("sanitizer findings:", file=sys.stderr)
            for line in sanitizer.format_summary().splitlines():
                print(f"  {line}", file=sys.stderr)
            return 1
        audited = [t.name for t in TIERS if isinstance(t, TraversalTier)]
        print(f"sanitizer: clean on {', '.join(audited)} "
              f"({sanitizer.levels_checked} levels, "
              f"{sanitizer.edges_checked} edges audited)")

    for path, payload in ((args.out, current),
                          (args.wall_report, wall_time_report(current))):
        if path:
            Path(path).write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            print(f"wrote {path}")

    if args.baseline:
        base_path = Path(args.baseline)
        if not base_path.exists():
            print(f"baseline {base_path} missing", file=sys.stderr)
            return 1 if args.check else 0
        baseline = json.loads(base_path.read_text(encoding="utf-8"))
        failures = check_regression(current, baseline, args.tolerance)
        if failures:
            print("gated values moved:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            if args.check:
                return 1
        else:
            print(f"no gated value moved beyond a relative "
                  f"{args.tolerance:g} of {base_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
