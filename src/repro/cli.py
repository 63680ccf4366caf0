"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``info``      — Table-1 style statistics for a dataset or edge-list file
* ``generate``  — write a synthetic dataset as a SNAP edge list
* ``run``       — run an application with a chosen scheduler, print timing
  (``--emit-metrics PATH`` exports the hierarchical span/metrics JSON)
* ``report``    — pretty-print a metrics JSON written by ``--emit-metrics``
* ``reorder``   — apply a reordering method, report locality + cost
* ``scc``       — strongly-connected-component decomposition
* ``experiment``— regenerate one paper table/figure from the harness
* ``serve-bench``— load-test the batched query service (open loop,
  fixed seeds, deterministic virtual time)
* ``cluster-bench``— benchmark the sharded cluster tier (routing +
  admission + result cache) against the single broker on one trace
* ``tune``      — search the tuning space against the deterministic
  cost model and save/verify tuned profiles (``--verify DIR``
  regenerates committed profiles and byte-compares them — the CI gate)

``run``, ``serve-bench``, ``cluster-bench`` and ``tune`` share one flag
family (``--emit-metrics``, ``--sanitize``, ``--sanitize-report``,
``--seed``) via a common parent parser, so observability and
determinism knobs are spelled identically everywhere.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro import api
from repro.api import APPS, SCHEDULERS
from repro.apps.scc import strongly_connected_components
from repro.baselines import LigraRunner
from repro.bench import (
    fig6_rows,
    fig7_rows,
    fig8_rows,
    fig9_rows,
    fig10_rows,
    format_table,
    sage_reorder_rounds,
    table1_rows,
    table2_rows,
    table3_rows,
)
from repro.graph import datasets, degree_stats, id_locality, io, sector_span
from repro.obs import (
    MetricsRegistry,
    format_report,
    report_from_json,
    write_json,
)
from repro.graph.csr import CSRGraph
from repro.reorder import (
    bfs_order,
    degree_order,
    gorder_order,
    llp_order,
    random_perm,
    rcm_order,
    timed_ordering,
)

DATASETS = ("uk-2002", "brain", "ljournal", "twitter", "friendster")

EXPERIMENTS = {
    "table1": lambda scale: table1_rows(scale),
    "table2": lambda scale: table2_rows(scale),
    "table3": lambda scale: table3_rows(scale),
    "fig6": lambda scale: fig6_rows(scale, num_sources=2),
    "fig7": lambda scale: fig7_rows(scale, num_sources=2),
    "fig8": lambda scale: fig8_rows(scale),
    "fig9": lambda scale: fig9_rows(scale),
    "fig10": lambda scale: fig10_rows(scale, num_sources=2),
}

REORDER_METHODS = {
    "rcm": rcm_order,
    "llp": llp_order,
    "gorder": gorder_order,
    "degree": degree_order,
    "bfs": bfs_order,
}


def _load_graph(args: argparse.Namespace) -> CSRGraph:
    if args.file:
        return io.read_edge_list(args.file)
    return datasets.by_name(args.dataset, args.scale).graph


def _add_graph_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=DATASETS, default="twitter",
                        help="built-in synthetic dataset stand-in")
    parser.add_argument("--scale", type=float, default=0.5,
                        help="dataset scale factor")
    parser.add_argument("--file", default=None,
                        help="read a SNAP edge list instead")


def _common_flags() -> argparse.ArgumentParser:
    """Parent parser shared by run / serve-bench / cluster-bench.

    One spelling for the observability and determinism knobs everywhere:
    ``--emit-metrics PATH``, ``--sanitize``, ``--sanitize-report PATH``
    (implies ``--sanitize``) and ``--seed N``.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--emit-metrics", metavar="PATH", default=None,
                        help="write the hierarchical span/metrics JSON here")
    parent.add_argument("--sanitize", action="store_true",
                        help="audit the run(s) with the kernel hazard "
                             "sanitizer (exit code 3 on findings)")
    parent.add_argument("--sanitize-report", metavar="PATH", default=None,
                        help="write the sanitizer findings JSON here "
                             "(implies --sanitize)")
    parent.add_argument("--seed", type=int, default=None,
                        help="seed for randomized choices (sources, "
                             "query mixes, arrival schedules)")
    return parent


def cmd_info(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    stats = degree_stats(graph)
    print(graph)
    print(f"  avg degree     {stats.mean:10.2f}")
    print(f"  median degree  {stats.median:10.2f}")
    print(f"  max degree     {stats.maximum:10d}")
    print(f"  degree gini    {stats.gini:10.3f}")
    print(f"  p99 degree     {stats.p99:10.1f}")
    print(f"  id locality    {id_locality(graph, 64):10.3f}")
    print(f"  sector span    {sector_span(graph):10.2f}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    graph = datasets.by_name(args.dataset, args.scale).graph
    io.write_edge_list(graph, args.out)
    print(f"wrote {graph} to {args.out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    app = APPS[args.app]()
    source = args.source
    if source is None and args.app in api.SOURCE_APPS:
        if args.seed is not None:
            # Seeded random source: reproducible sweeps without pinning
            # everyone to the same argmax-degree hub.
            rng = np.random.default_rng(args.seed)
            source = int(rng.integers(0, graph.num_nodes))
        else:
            source = int(np.argmax(graph.out_degrees()))
    sanitize = args.sanitize or args.sanitize_report is not None
    if sanitize and args.scheduler == "ligra":
        print("error: --sanitize does not support the ligra runner "
              "(it bypasses the traversal pipeline)", file=sys.stderr)
        return 2
    metrics = MetricsRegistry() if args.emit_metrics else None
    sanitizer = None
    if args.scheduler == "ligra":
        result = LigraRunner().run(graph, app, source)
        scheduler_name = result.scheduler_name
        values = result.result
        seconds, gteps = result.seconds, result.gteps
        iterations = result.iterations
        edges_traversed = result.edges_traversed
        reorder_commits = result.reorder_commits
        profiler = result.profiler
    else:
        run = api.run(graph, app, source=source, scheduler=args.scheduler,
                      checks=sanitize, metrics=metrics)
        scheduler_name = run.scheduler
        values = run.values
        seconds, gteps = run.seconds, run.gteps
        iterations = run.iterations
        edges_traversed = run.edges_traversed
        reorder_commits = run.reorder_commits
        profiler = run.profiler
        sanitizer = run.checks
    print(f"{args.app} on {graph} with {scheduler_name}"
          + (f" from source {source}" if source is not None else ""))
    print(f"  simulated time   {seconds * 1e3:10.4f} ms")
    print(f"  iterations       {iterations:10d}")
    print(f"  edges traversed  {edges_traversed:10d}")
    print(f"  traversal speed  {gteps:10.3f} GTEPS")
    if reorder_commits:
        print(f"  reorder commits  {reorder_commits:10d}")
    if args.profile:
        print("profile:")
        for line in profiler.format_summary().splitlines():
            print(f"  {line}")
    if args.validate:
        from repro.validate import validate_run
        validate_run(graph, args.app, values, source,
                     weights=getattr(app, "weights", None))
        print("  validation: results match the reference implementation")
    if args.emit_metrics:
        assert metrics is not None
        # The registry mirrors the run's profiler exactly (the ligra
        # path has no pipeline instrumentation, so fold it here; the
        # snapshot semantics make this a no-op for instrumented paths).
        metrics.fold_profiler(profiler)
        metrics.set_gauge("run.simulated_seconds", seconds)
        metrics.set_gauge("run.gteps", gteps)
        out = write_json(metrics, args.emit_metrics)
        print(f"  metrics exported to {out}")
    if sanitizer is not None:
        print("sanitizer:")
        for line in sanitizer.format_summary().splitlines():
            print(f"  {line}")
        if args.sanitize_report is not None:
            sanitizer.write_json(args.sanitize_report)
            print(f"  report written to {args.sanitize_report}")
        if not sanitizer.clean:
            return 3
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    with open(args.path, encoding="utf-8") as handle:
        report = report_from_json(handle.read())
    try:
        print(format_report(report))
    except BrokenPipeError:
        # Downstream pager/head closed early — not an error.  Point
        # stdout at devnull so the interpreter's exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def cmd_reorder(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    before = sector_span(graph)
    if args.method == "sage":
        rounds = sage_reorder_rounds(graph, args.rounds,
                                     checkpoints=(args.rounds,))
        after_graph = rounds.snapshots[args.rounds]
        seconds = sum(rounds.per_round_seconds)
        label = f"sage x{args.rounds} rounds"
    elif args.method == "random":
        after_graph = graph.permute(random_perm(graph.num_nodes))
        seconds = 0.0
        label = "random"
    else:
        timed = timed_ordering(args.method, REORDER_METHODS[args.method],
                               graph)
        after_graph = graph.permute(timed.perm)
        seconds = timed.seconds
        label = args.method
    after = sector_span(after_graph)
    print(f"{label} on {graph}")
    print(f"  wall-clock cost   {seconds:10.3f} s")
    print(f"  sector span       {before:10.2f} -> {after:.2f} "
          f"({100 * (after - before) / before:+.1f} %)")
    return 0


def cmd_scc(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    result = strongly_connected_components(graph, SCHEDULERS[args.scheduler])
    sizes = np.bincount(result.labels)
    sizes = np.sort(sizes[sizes > 0])[::-1]
    print(f"SCC decomposition of {graph}")
    print(f"  components       {result.num_components:10d}")
    print(f"  largest SCC      {int(sizes[0]):10d} nodes")
    print(f"  reachability sweeps {result.sweeps:7d} "
          f"(trimmed {result.trimmed} trivial nodes)")
    print(f"  simulated time   {result.seconds * 1e3:10.4f} ms")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    rows = EXPERIMENTS[args.name](args.scale)
    print(format_table(rows, f"{args.name} (scale {args.scale})"))
    return 0


def _parse_mix(spec: str) -> dict[str, float]:
    """``bfs=0.8,pr=0.1,sssp=0.1`` -> weight dict."""
    mix: dict[str, float] = {}
    for part in spec.split(","):
        kind, _, weight = part.partition("=")
        mix[kind.strip()] = float(weight)
    return mix


def _audited_baseline(
    graph, requests, scheduler: str, report_path: str | None
) -> tuple[float, bool]:
    """Sequential oracle with the hazard sanitizer auditing every run.

    Returns (total simulated seconds, all-clean).  This is the bench's
    ``--sanitize`` mode: the baseline the speedups are measured against
    is itself certified hazard-free.
    """
    from repro.serve import make_single_app

    seconds = 0.0
    clean = True
    last_checks = None
    for request in requests:
        run = api.run(
            graph, make_single_app(request.app, request.param_dict()),
            source=request.source, scheduler=scheduler, checks=True,
        )
        seconds += run.seconds
        clean = clean and run.clean
        last_checks = run.checks
    if report_path is not None and last_checks is not None:
        last_checks.write_json(report_path)
    return seconds, clean


def cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.serve import (
        SINGLE_BROKER,
        generate_queries,
        open_loop_arrivals,
        sequential_baseline,
        simulate_cluster_open_loop,
    )

    graph = _load_graph(args)
    seed = args.seed if args.seed is not None else 0
    mix = _parse_mix(args.mix) if args.mix else None
    requests = generate_queries(
        "bench", graph.num_nodes, args.queries,
        mix=mix, deadline_seconds=args.deadline, seed=seed,
    )
    metrics = MetricsRegistry() if args.emit_metrics else None
    scheduler_factory = SCHEDULERS[args.scheduler]
    sanitize = args.sanitize or args.sanitize_report is not None
    oracle_clean = True
    arrivals = open_loop_arrivals(args.queries, rate_qps=args.rate, seed=seed)
    if sanitize:
        sequential, oracle_clean = _audited_baseline(
            graph, requests, args.scheduler, args.sanitize_report
        )
    else:
        sequential = sequential_baseline(graph, requests, scheduler_factory)
    _, report = simulate_cluster_open_loop(
        {"bench": graph}, requests, arrivals, scheduler_factory,
        batch_window=args.batch_window,
        max_batch_size=args.max_batch_size,
        baseline_seconds=sequential,
        metrics=metrics,
        **SINGLE_BROKER,
    )
    unit = "virtual s"
    print(f"serve-bench (open-loop) on {graph}")
    statuses = ", ".join(
        f"{k}={v}" for k, v in sorted(report.status_counts.items())
    )
    print(f"  queries           {report.num_queries:10d}   ({statuses})")
    print(f"  batches           {report.num_batches:10d}"
          f"   occupancy {report.batch_occupancy_mean:.2f}")
    print(f"  makespan          {report.makespan_seconds:10.4f} {unit}")
    print(f"  throughput        {report.throughput_qps:10.2f} qps")
    print(f"  latency p50/95/99 {report.latency_p50:10.4f}"
          f" / {report.latency_p95:.4f} / {report.latency_p99:.4f} {unit}")
    print(f"  device time       {report.sim_seconds_total:10.6f} s"
          f"   (sequential {report.baseline_seconds:.6f} s)")
    print(f"  speedup vs 1-at-a-time {report.speedup_vs_baseline:7.2f}x")
    if args.emit_metrics:
        assert metrics is not None
        out = write_json(metrics, args.emit_metrics)
        print(f"  metrics exported to {out}")
    if sanitize:
        print(f"  sanitizer (oracle runs): "
              f"{'clean' if oracle_clean else 'FINDINGS'}")
        if not oracle_clean:
            return 3
    return 0


def cmd_cluster_bench(args: argparse.Namespace) -> int:
    from repro.serve import (
        SINGLE_BROKER,
        AdmissionConfig,
        PipelineConfig,
        generate_queries,
        open_loop_arrivals,
        simulate_cluster_open_loop,
        skew_sources,
    )

    graph = _load_graph(args)
    seed = args.seed if args.seed is not None else 0
    mix = _parse_mix(args.mix) if args.mix else None
    requests = generate_queries(
        "bench", graph.num_nodes, args.queries,
        mix=mix, deadline_seconds=args.deadline, seed=seed,
    )
    if args.hot_fraction > 0:
        requests = skew_sources(
            requests,
            hot_set_size=args.hot_set,
            hot_fraction=args.hot_fraction,
            num_nodes=graph.num_nodes,
            seed=seed,
        )
    arrivals = open_loop_arrivals(args.queries, rate_qps=args.rate, seed=seed)
    metrics = MetricsRegistry() if args.emit_metrics else None
    scheduler_factory = SCHEDULERS[args.scheduler]
    sanitize = args.sanitize or args.sanitize_report is not None
    oracle_clean = True
    if sanitize:
        _, oracle_clean = _audited_baseline(
            graph, requests, args.scheduler, args.sanitize_report
        )
    # The comparison point: the identical trace through one broker.
    _, single = simulate_cluster_open_loop(
        {"bench": graph}, requests, arrivals, scheduler_factory,
        batch_window=args.batch_window,
        max_batch_size=args.max_batch_size,
        **SINGLE_BROKER,
    )
    admission = AdmissionConfig(
        rate_qps=args.rate_limit,
        burst=args.burst,
        max_concurrency=args.max_concurrency,
    )
    pipeline = PipelineConfig(
        in_flight=args.in_flight,
        num_streams=args.streams,
        prefetch_depth=args.prefetch_depth,
    )
    _, report = simulate_cluster_open_loop(
        {"bench": graph}, requests, arrivals, scheduler_factory,
        num_replicas=args.replicas,
        routing=args.routing,
        batch_window=args.batch_window,
        max_batch_size=args.max_batch_size,
        cache_capacity=args.cache_capacity,
        admission=admission,
        pipeline=pipeline,
        baseline_seconds=single.sim_seconds_total,
        metrics=metrics,
    )
    print(f"cluster-bench on {graph} "
          f"({report.num_replicas} replicas, {report.routing} routing)")
    statuses = ", ".join(
        f"{k}={v}" for k, v in sorted(report.status_counts.items())
    )
    print(f"  queries           {report.num_queries:10d}   ({statuses})")
    print(f"  batches           {report.num_batches:10d}"
          f"   occupancy {report.batch_occupancy_mean:.2f}")
    print(f"  cache             {report.cache_hits:10d} hits"
          f" / {report.cache_misses} misses"
          f"   (ratio {report.cache_hit_ratio:.2f})")
    print(f"  admission         {report.throttled:10d} throttled"
          f" / {report.shed} shed"
          f"   (throttle level {report.throttle_level:.2f})")
    print(f"  makespan          {report.makespan_seconds:10.4f} virtual s")
    print(f"  throughput        {report.throughput_qps:10.2f} qps")
    print(f"  latency p50/95/99 {report.latency_p50:10.4f}"
          f" / {report.latency_p95:.4f} / {report.latency_p99:.4f} virtual s")
    print(f"  device time       {report.sim_seconds_total:10.6f} s"
          f"   (single broker {report.baseline_seconds:.6f} s)")
    print(f"  replica occupancy {report.replica_occupancy_mean:10.2f}")
    if report.pipeline_enabled:
        print(f"  pipeline busy     {report.pipeline_busy_seconds:10.6f} s"
              f"   (overlap saved {report.pipeline_overlap_saved_seconds:.6f} s,"
              f" peak in-flight {report.pipeline_inflight_peak})")
        print(f"  device-time speedup vs serial "
              f"{report.pipeline_speedup_vs_serial:5.2f}x")
    if report.baseline_seconds > 0:
        print(f"  speedup vs single broker {report.speedup_vs_baseline:5.2f}x")
    if args.emit_metrics:
        assert metrics is not None
        out = write_json(metrics, args.emit_metrics)
        print(f"  metrics exported to {out}")
    if sanitize:
        print(f"  sanitizer (oracle runs): "
              f"{'clean' if oracle_clean else 'FINDINGS'}")
        if not oracle_clean:
            return 3
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    from repro.tune import BENCH_WORKLOADS, ProfileStore

    seed = args.seed if args.seed is not None else 0
    metrics = MetricsRegistry() if args.emit_metrics else None

    def trace_path(workload: str) -> str | None:
        if args.trace is None:
            return None
        return os.path.join(args.trace, f"{workload}.trace.json")

    if args.verify is not None:
        store = ProfileStore(args.verify)
        paths = store.list()
        if not paths:
            print(f"no profiles found under {args.verify}", file=sys.stderr)
            return 2
        mismatches = 0
        for path in paths:
            committed = path.read_text(encoding="utf-8")
            profile = store.load(path)
            regenerated = api.tune(
                profile.workload,
                budget=profile.budget,
                seed=profile.seed,
                space=profile.space,
                trace=trace_path(profile.workload),
                metrics=metrics,
            )
            ok = regenerated.canonical_json() == committed
            print(f"  {path.name}: {'ok' if ok else 'MISMATCH'}"
                  f"   (speedup {regenerated.speedup:.3f}x,"
                  f" {regenerated.evaluations} evaluations)")
            if not ok:
                mismatches += 1
        if mismatches:
            print(f"{mismatches} profile(s) did not regenerate identically "
                  "— rerun `repro tune` and commit the result",
                  file=sys.stderr)
            return 1
        print(f"verified {len(paths)} profile(s): bit-identical")
    else:
        if args.workload == "all":
            workloads = [w.name for w in BENCH_WORKLOADS]
        else:
            workloads = [args.workload]
        for name in workloads:
            profile = api.tune(
                name,
                budget=args.budget,
                seed=seed,
                out=args.out,
                trace=trace_path(name),
                metrics=metrics,
            )
            point = profile.point
            print(f"tuned {name} ({profile.category}): "
                  f"speedup {profile.speedup:.3f}x over defaults "
                  f"({profile.evaluations} evaluations)")
            print(f"  batch_window={point.batch_window}"
                  f" max_batch_size={point.max_batch_size}"
                  f" routing={point.routing}")
            print(f"  alpha={point.alpha} beta={point.beta}"
                  f" min_tile={point.min_tile}"
                  f" max_concurrency={point.max_concurrency}")
            print(f"  in_flight={point.in_flight}"
                  f" num_streams={point.num_streams}"
                  f" prefetch_depth={point.prefetch_depth}")
            if args.out is not None:
                print(f"  profile written to "
                      f"{ProfileStore(args.out).path_for(name)}")
    if args.emit_metrics:
        assert metrics is not None
        out = write_json(metrics, args.emit_metrics)
        print(f"  metrics exported to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SAGE reproduction toolkit (SIGMOD 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_flags()

    p = sub.add_parser("info", help="graph statistics")
    _add_graph_args(p)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("generate", help="write a dataset as an edge list")
    p.add_argument("--dataset", choices=DATASETS, default="twitter")
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("run", help="run an application", parents=[common])
    _add_graph_args(p)
    p.add_argument("--app", choices=sorted(APPS), default="bfs")
    p.add_argument("--scheduler",
                   choices=sorted(SCHEDULERS) + ["ligra"], default="sage")
    p.add_argument("--source", type=int, default=None,
                   help="traversal source (default: highest-degree node, "
                        "or a seeded random node with --seed)")
    p.add_argument("--profile", action="store_true",
                   help="print simulator counters after the run")
    p.add_argument("--validate", action="store_true",
                   help="check results against the reference oracle")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "report", help="pretty-print an --emit-metrics JSON file"
    )
    p.add_argument("path", help="metrics JSON written by --emit-metrics")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("reorder", help="apply a reordering method")
    _add_graph_args(p)
    p.add_argument("--method",
                   choices=sorted(REORDER_METHODS) + ["sage", "random"],
                   default="sage")
    p.add_argument("--rounds", type=int, default=5,
                   help="rounds for --method sage")
    p.set_defaults(fn=cmd_reorder)

    p = sub.add_parser("scc", help="strongly connected components")
    _add_graph_args(p)
    p.add_argument("--scheduler", choices=sorted(SCHEDULERS), default="sage")
    p.set_defaults(fn=cmd_scc)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("name", choices=sorted(EXPERIMENTS))
    p.add_argument("--scale", type=float, default=0.3)
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser(
        "serve-bench",
        help="load-test the batched query service (seeded)",
        parents=[common],
    )
    _add_graph_args(p)
    p.add_argument("--scheduler", choices=sorted(SCHEDULERS), default="sage")
    p.add_argument("--queries", type=int, default=64)
    p.add_argument("--rate", type=float, default=200.0,
                   help="open-loop Poisson arrival rate (qps)")
    p.add_argument("--batch-window", type=float, default=0.05,
                   help="micro-batching window (seconds)")
    p.add_argument("--max-batch-size", type=int, default=64)
    p.add_argument("--mix", default=None,
                   help="app mix, e.g. bfs=0.8,pr=0.1,sssp=0.1")
    p.add_argument("--deadline", type=float, default=None,
                   help="per-query latency budget (seconds)")
    p.set_defaults(fn=cmd_serve_bench)

    p = sub.add_parser(
        "cluster-bench",
        help="benchmark the sharded cluster tier vs the single broker",
        parents=[common],
    )
    _add_graph_args(p)
    p.add_argument("--scheduler", choices=sorted(SCHEDULERS), default="sage")
    p.add_argument("--queries", type=int, default=64)
    p.add_argument("--rate", type=float, default=100.0,
                   help="open-loop Poisson arrival rate (qps)")
    p.add_argument("--replicas", type=int, default=2)
    p.add_argument("--routing", choices=("round_robin", "least_outstanding",
                                         "affinity"),
                   default="affinity")
    p.add_argument("--cache-capacity", type=int, default=1024,
                   help="result-cache entries (0 disables caching)")
    p.add_argument("--rate-limit", type=float, default=None,
                   help="per-client token-bucket rate (qps; default: off)")
    p.add_argument("--burst", type=float, default=16.0,
                   help="token-bucket burst capacity")
    p.add_argument("--max-concurrency", type=int, default=64,
                   help="AIMD concurrency limiter ceiling")
    p.add_argument("--batch-window", type=float, default=0.05,
                   help="micro-batching window (seconds)")
    p.add_argument("--max-batch-size", type=int, default=64)
    p.add_argument("--hot-fraction", type=float, default=0.8,
                   help="fraction of source-bearing queries redrawn from "
                        "the hot set (0 disables skew)")
    p.add_argument("--hot-set", type=int, default=8,
                   help="hot-set size for the skewed workload")
    p.add_argument("--mix", default=None,
                   help="app mix, e.g. bfs=0.5,sssp=0.4,pr=0.1")
    p.add_argument("--deadline", type=float, default=None,
                   help="per-query latency budget (seconds)")
    p.add_argument("--in-flight", type=int, default=1,
                   help="pipelined batches concurrently resident per "
                        "replica device (1 = batch-at-a-time)")
    p.add_argument("--streams", type=int, default=1,
                   help="compute streams per replica device")
    p.add_argument("--prefetch-depth", type=int, default=0,
                   help="iterations of out-of-core prefetch lookahead")
    p.set_defaults(fn=cmd_cluster_bench)

    p = sub.add_parser(
        "tune",
        help="search the tuning space against the deterministic cost "
             "model; save or verify tuned profiles",
        parents=[common],
    )
    p.add_argument("--workload", default="all",
                   help="tuning workload name, or 'all' (default)")
    p.add_argument("--budget", type=int, default=32,
                   help="UCB search rollouts per workload")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="write tuned profiles into this directory "
                        "(canonical JSON, one file per workload)")
    p.add_argument("--trace", default=None, metavar="DIR",
                   help="write per-workload search traces (JSON) here")
    p.add_argument("--verify", default=None, metavar="DIR",
                   help="regenerate every profile in DIR from its "
                        "embedded seed/budget/space and fail unless "
                        "byte-identical (exit 1 on mismatch)")
    p.set_defaults(fn=cmd_tune)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
