"""The benchmark's five workloads: seeded inputs, a measured loop, checks.

Three traversal workloads drive ``repro.api.run`` (or one reused
``TraversalPipeline``) in a closed loop: one caller submits the next
query only after the previous answer arrives.  Two serving workloads
replay an open-loop trace in virtual time through
``simulate_cluster_open_loop`` at four fixed arrival rates.  Every knob
is passed explicitly.  The seed makes every input: graph, query mix
order, sources, arrivals and edge updates.  README.md says why each
workload exists and what it should move.

Traversal queries come in blocks with an exact app mix, so two seeds
differ in sources and graph, not in how many PageRank queries they drew.
Simulated metrics cover the first ``MIN_BLOCKS`` blocks (or the first
rate sweep), which always run, so they are identical for equal seeds.

Host time is the least of a few timings of each unit of work (a
query, a replay, a batch), the passes running one after another over
the whole measured set: on a machine shared with other work, slow
spells only ever add time.  It is then scaled to the reference machine
by the run's :class:`~perfbench.calibration.Calibration`, which cancels
slow spells that outlast the run.
"""

from __future__ import annotations

import bisect
import itertools
import statistics
from collections.abc import Callable
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro import api
from repro.core import SageScheduler, TraversalPipeline
from repro.graph import datasets, generators
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph
from repro.obs import MetricsRegistry
from repro.serve.admission import AdmissionConfig
from repro.serve.cache import GraphStore
from repro.serve.cluster import simulate_cluster_open_loop
from repro.serve.executor import BatchExecutor
from repro.serve.loadgen import DEFAULT_PARAMS
from repro.serve.request import QueryRequest

from perfbench.calibration import Calibration
from perfbench.oracles import AnswerChecker
from perfbench.tracing import QUERY_SPAN, REPLAY_SPAN, Tracer

#: Blocks every measured traversal run completes (100 queries: enough
#: for a p90 with ten samples beyond it); smoke runs complete one.
MIN_BLOCKS = 5
#: Blocks the traced run replays, once untraced and once traced.
TRACE_BLOCKS = 2
#: Timings of each unit of work; host metrics use the least.  A serving
#: sweep is long (2400 queries), so two passes keep its run near the
#: others' length.
QUERY_PASSES = 3
SWEEP_PASSES = 2

#: Open-loop arrival rates (queries per virtual second) of every sweep.
RATES = (50_000, 100_000, 200_000, 400_000)
#: The rate whose median latency is the end-to-end ``sim_p50_us``: the
#: lowest, where neither workload queues, so the median reads service.
REFERENCE_RATE = 50_000
#: A rate is sustained when its p90 stays under this and throughput
#: keeps up with the offered load (no growing backlog).
LATENCY_LIMIT_S = 500e-6
THROUGHPUT_FLOOR = 0.95

#: Admission that never sheds: the serving workloads measure the path
#: every query takes, not the shedding policy.
UNBOUNDED = AdmissionConfig(max_concurrency=10**9)


@dataclass
class Setup:
    """A workload's built inputs plus what building them cost."""

    seed: int
    smoke: bool
    graph: CSRGraph
    build_s: float = 0.0
    warmup_s: float = 0.0
    sources: np.ndarray = field(default_factory=lambda: np.empty(0))
    serving: "ServingInputs | None" = None


@dataclass
class Result:
    """Metrics of one run and how many answers were checked and wrong."""

    metrics: dict[str, float]
    attempted: int
    failed: int


def _alternate(index: int, first, second) -> tuple:
    """Both runs of one unit, the traced one first on odd units, so
    warming and drift do not bias ``trace_overhead``."""
    return (first, second) if index % 2 == 0 else (second, first)


def _stop(elapsed: float, done: int, minimum: int, seconds: float) -> bool:
    """Stop after ``minimum`` units at the whole number of units whose
    measured time comes closest to ``seconds``."""
    return done >= minimum and elapsed + elapsed / done / 2 >= seconds


# ----------------------------------------------------------------------
# Closed-loop traversal
# ----------------------------------------------------------------------


class Session:
    """One self-adaptive pipeline reused across queries, in original ids.

    After a reorder commit the pipeline keeps the relabelled graph, so
    its next run takes the source and returns the answer in the labels
    the previous run ended with.  Composing every run's ``final_perm``
    maps both back to the caller's ids.
    """

    def __init__(
        self, graph: CSRGraph, metrics: MetricsRegistry | None = None
    ) -> None:
        self.pipeline = TraversalPipeline(
            graph, SageScheduler(sampling_reorder=True), metrics=metrics
        )
        #: original id -> current id (None while no commit happened)
        self.to_current: np.ndarray | None = None

    def __call__(self, app: str, source: int | None):
        current = self.to_current
        if current is not None and source is not None:
            source = int(current[source])
        raw = self.pipeline.run(api.APPS[app](), source)
        values = raw.result
        if current is not None:
            values = {key: val[current] for key, val in values.items()}
        if raw.final_perm is not None:
            self.to_current = (
                raw.final_perm if current is None else raw.final_perm[current]
            )
        return raw.seconds, raw.edges_traversed, values


@dataclass(frozen=True)
class Traversal:
    """Closed loop of single queries over one graph."""

    name: str
    build: Callable[[int, bool], CSRGraph]
    #: (app, count) per block of queries, full size and smoke size
    block: tuple[tuple[str, int], ...]
    smoke_block: tuple[tuple[str, int], ...]
    session: bool = False

    def runner(self, graph: CSRGraph, metrics: MetricsRegistry | None = None):
        """A callable ``(app, source) -> (sim s, edges, values)``."""
        if self.session:
            return Session(graph, metrics)

        def run(app: str, source: int | None):
            result = api.run(
                graph, app, source=source, scheduler="sage", metrics=metrics
            )
            return result.seconds, result.edges_traversed, result.values

        return run

    def setup(self, seed: int, smoke: bool) -> Setup:
        start = perf_counter()
        graph = self.build(seed, smoke)
        built = perf_counter()
        sources = np.flatnonzero(graph.out_degrees() > 0)
        self.runner(graph)("bfs", int(sources[0]))
        return Setup(
            seed, smoke, graph,
            build_s=built - start,
            warmup_s=perf_counter() - built,
            sources=sources,
        )

    def queries(self, setup: Setup, block: int) -> list[tuple[str, int | None]]:
        """Block ``block`` of the seed's query stream (exact app mix)."""
        rng = np.random.default_rng([setup.seed, block])
        mix = self.smoke_block if setup.smoke else self.block
        apps = [app for app, count in mix for _ in range(count)]
        rng.shuffle(apps)
        return [
            (app, int(rng.choice(setup.sources))
             if app in api.SOURCE_APPS else None)
            for app in apps
        ]

    def measure(
        self, setup: Setup, seconds: float, calibration: Calibration
    ) -> Result:
        """The first pass runs blocks for ``seconds / QUERY_PASSES`` (at least
        the minimum); later passes rerun them on fresh runners, so a
        session repeats the same work.  The calibration kernel runs
        after every block."""
        minimum = 1 if setup.smoke else MIN_BLOCKS
        checker = AnswerChecker()
        blocks: list[list[tuple[str, int | None]]] = []
        timings: list[list[float]] = []
        sim: list[float] = []
        edges = 0
        elapsed = 0.0

        def timed(run, app, source):
            start = perf_counter()
            sim_s, traversed, values = run(app, source)
            took = perf_counter() - start
            checker.traversal(setup.graph, app, source, values)
            return took, sim_s, traversed

        run = self.runner(setup.graph)
        for block in itertools.count():
            if _stop(elapsed, block, minimum, seconds / QUERY_PASSES):
                break
            blocks.append(self.queries(setup, block))
            for app, source in blocks[-1]:
                took, sim_s, traversed = timed(run, app, source)
                elapsed += took
                timings.append([took])
                if block < minimum:
                    sim.append(sim_s)
                    edges += traversed
            calibration.sample()
        for _ in range(QUERY_PASSES - 1):
            run = self.runner(setup.graph)
            times = iter(timings)
            for queries in blocks:
                for app, source in queries:
                    next(times).append(timed(run, app, source)[0])
                calibration.sample()
        host = [min(times) * calibration.speed for times in timings]
        return Result(
            {
                "host_qps": len(host) / sum(host),
                "host_p50_ms": statistics.median(host) * 1e3,
                "host_p90_ms": float(np.percentile(host, 90)) * 1e3,
                "sim_gteps": edges / sum(sim) / 1e9,
                "sim_p50_us": statistics.median(sim) * 1e6,
                "sim_us_per_query": statistics.fmean(sim) * 1e6,
            },
            checker.checked,
            checker.wrong,
        )

    def trace(self, setup: Setup, tracer: Tracer) -> Result:
        blocks = 1 if setup.smoke else TRACE_BLOCKS
        queries = [q for b in range(blocks) for q in self.queries(setup, b)]
        checker = AnswerChecker()
        registry = MetricsRegistry()
        untraced = self.runner(setup.graph)
        traced = self.runner(setup.graph, registry)

        def traced_query(app, source):
            with tracer.hooks():
                return tracer.call(QUERY_SPAN, traced, app, source)

        host = {untraced: 0.0, traced_query: 0.0}
        for qid, (app, source) in enumerate(queries):
            tracer.qid = qid
            for run in _alternate(qid, untraced, traced_query):
                start = perf_counter()
                _, _, values = run(app, source)
                host[run] += perf_counter() - start
                checker.traversal(setup.graph, app, source, values)
        metrics = tracer.layer_metrics(registry, len(queries))
        metrics["trace_overhead"] = host[traced_query] / host[untraced] - 1.0
        return Result(metrics, checker.checked, checker.wrong)


# ----------------------------------------------------------------------
# Open-loop serving in virtual time
# ----------------------------------------------------------------------


@dataclass
class ServingInputs:
    """One request trace, its arrivals per rate and its edge updates."""

    requests: list[QueryRequest]
    arrivals: list[np.ndarray]
    #: per rate: the virtual times of the update batches
    update_times: list[list[float]]
    update_edges: list[tuple[np.ndarray, np.ndarray]]
    #: graph after k updates, built independently of DynamicGraph
    versions: list[CSRGraph]


def _serving_inputs(
    graph: CSRGraph, seed: int, smoke: bool, dynamic: bool
) -> ServingInputs:
    rng = np.random.default_rng(seed)
    size = 40 if smoke else 600
    hot_size = 8 if smoke else 64
    counts = {"bfs": round(0.6 * size), "sssp": round(0.3 * size)}
    counts["pr"] = size - sum(counts.values())
    apps = [app for app, count in counts.items() for _ in range(count)]
    rng.shuffle(apps)
    sources = np.flatnonzero(graph.out_degrees() > 0)
    hot = rng.choice(sources, size=hot_size, replace=False)
    # Exactly half of the source-bearing queries hit the hot set.
    sourced = size - counts["pr"]
    is_hot = np.arange(sourced) < sourced // 2
    rng.shuffle(is_hot)
    hot_flags = iter(is_hot)
    requests = []
    for app in apps:
        source = None
        if app != "pr":
            source = int(rng.choice(hot if next(hot_flags) else sources))
        requests.append(QueryRequest(
            app=app, graph="g", source=source, params=DEFAULT_PARAMS[app],
        ))
    arrivals = []
    for rate in RATES:
        gaps = rng.exponential(1.0 / rate, size=size)
        arrivals.append(np.cumsum(gaps) - gaps[0])

    every = 10 if smoke else 100
    batch = 4 if smoke else 32
    n = graph.num_nodes
    update_edges, update_times = [], [[] for _ in RATES]
    versions = [graph]
    if dynamic:
        coo = graph.to_coo()
        src, dst = [coo.src], [coo.dst]
        for k in range(every, size, every):
            new_src = rng.integers(0, n, size=batch)
            new_dst = (new_src + rng.integers(1, n, size=batch)) % n
            update_edges.append((new_src, new_dst))
            for times, arr in zip(update_times, arrivals):
                times.append(float(arr[k - 1] + arr[k]) / 2.0)
            src.append(new_src)
            dst.append(new_dst)
            versions.append(CSRGraph.from_edges(
                n, np.concatenate(src), np.concatenate(dst)
            ))
    return ServingInputs(
        requests, arrivals, update_times, update_edges, versions
    )


class TimedExecutor(BatchExecutor):
    """The stock executor, recording each batch's host time and the
    simulated work (edges, device seconds) of its runs."""

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        super().__init__(SageScheduler, metrics=metrics)
        self.batch_seconds: list[float] = []
        self.edges = 0
        self.device_seconds = 0.0

    def execute(self, graph, requests):
        start = perf_counter()
        execution = super().execute(graph, requests)
        self.batch_seconds.append(perf_counter() - start)
        for run in execution.runs:
            self.edges += run.edges_traversed
            self.device_seconds += run.seconds
        return execution


@dataclass
class Replay:
    """One rate step: responses, report and host cost.  ``responses``
    may be dropped once checked; the virtual latencies stay, of every
    response and of those a replica answered (not the cache)."""

    step: int
    responses: list
    report: object
    host_s: float
    executor: TimedExecutor
    latencies: np.ndarray = field(init=False)
    device_latencies: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.latencies = np.array(
            [r.latency_seconds for r in self.responses]
        )
        self.device_latencies = np.array([
            r.latency_seconds for r in self.responses
            if not r.extras.get("cached")
        ])


@dataclass(frozen=True)
class Serving:
    """Open-loop rate sweep of a hot-key trace through the cluster."""

    name: str
    dynamic: bool

    def setup(self, seed: int, smoke: bool) -> Setup:
        start = perf_counter()
        graph = generators.rmat(9 if smoke else 12, 8, seed=seed)
        built = perf_counter()
        setup = Setup(seed, smoke, graph, build_s=built - start)
        setup.serving = _serving_inputs(graph, seed, smoke, self.dynamic)
        self.replay(setup, 0, count=1)
        setup.warmup_s = perf_counter() - built
        return setup

    def replay(
        self,
        setup: Setup,
        step: int,
        *,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        count: int | None = None,
    ) -> Replay:
        inputs = setup.serving
        graph = DynamicGraph(setup.graph) if self.dynamic else setup.graph
        store = GraphStore({"g": graph})
        executor = TimedExecutor(registry)
        updates = [
            (when, "g", src, dst)
            for when, (src, dst) in zip(
                inputs.update_times[step], inputs.update_edges
            )
        ] if self.dynamic else None

        def call():
            return simulate_cluster_open_loop(
                store,
                inputs.requests[:count],
                inputs.arrivals[step][:count],
                SageScheduler,
                num_replicas=2,
                routing="affinity",
                batch_window=2e-5,
                max_batch_size=64,
                cache_capacity=256,
                admission=UNBOUNDED,
                updates=updates if count is None else None,
                executor=executor,
                metrics=registry,
            )

        start = perf_counter()
        if tracer is None:
            responses, report = call()
        else:
            tracer.qid = step
            responses, report = tracer.call(REPLAY_SPAN, call)
        return Replay(step, responses, report, perf_counter() - start,
                      executor)

    def check(self, setup: Setup, replay: Replay, checker: AnswerChecker) -> None:
        """A response is right if it equals ``run_direct`` on any graph
        version live between its arrival and its completion."""
        inputs = setup.serving
        times = inputs.update_times[replay.step]
        arrivals = inputs.arrivals[replay.step]
        for i, response in enumerate(replay.responses):
            if not response.ok:
                checker.fail()
                continue
            arrival = float(arrivals[i])
            first = bisect.bisect_right(times, arrival)
            last = bisect.bisect_right(
                times, arrival + response.latency_seconds
            )
            checker.serving(
                inputs.versions, range(first, last + 1),
                inputs.requests[i], response.result,
            )

    def measure(
        self, setup: Setup, seconds: float, calibration: Calibration
    ) -> Result:
        """The first pass replays whole sweeps for ``seconds / SWEEP_PASSES``
        (at least one); later passes replay them again.  Replays are
        deterministic, so the i-th batch of a replay is the same work in
        every pass.  The calibration kernel runs after every replay."""
        checker = AnswerChecker()

        def run(step: int) -> Replay:
            replay = self.replay(setup, step)
            calibration.sample()
            self.check(setup, replay, checker)
            replay.responses = []
            return replay

        first: list[Replay] = []
        elapsed = 0.0
        for done in itertools.count():
            if _stop(elapsed, done, 1, seconds / SWEEP_PASSES):
                break
            for step in range(len(RATES)):
                first.append(run(step))
                elapsed += first[-1].host_s
        passes = [first] + [
            [run(replay.step) for replay in first]
            for _ in range(SWEEP_PASSES - 1)
        ]
        # Every metric reads the device path: the queries a replica
        # answered and the batches that answered them.  What the cache
        # answers (in zero virtual time, at next to no host cost) is
        # serve.cache_hit_ratio's to report.
        speed = calibration.speed
        replay_host = sum(
            min(r.host_s for r in runs) for runs in zip(*passes)
        ) * speed
        batch_host = np.concatenate([
            np.min([r.executor.batch_seconds for r in runs], axis=0)
            for runs in zip(*passes)
        ]) * speed
        answered = sum(r.device_latencies.size for r in first)
        sweep = first[:len(RATES)]
        reference = sweep[RATES.index(REFERENCE_RATE)].device_latencies
        edges = sum(r.executor.edges for r in sweep)
        device = sum(r.executor.device_seconds for r in sweep)
        return Result(
            {
                "host_qps": answered / replay_host,
                "host_p50_ms": float(np.median(batch_host)) * 1e3,
                "host_p90_ms": float(np.percentile(batch_host, 90)) * 1e3,
                "sim_gteps": edges / device / 1e9,
                "sim_p50_us": float(np.median(reference)) * 1e6,
                "sim_us_per_query": device / sum(
                    r.device_latencies.size for r in sweep
                ) * 1e6,
            },
            checker.checked,
            checker.wrong,
        )

    def trace(self, setup: Setup, tracer: Tracer) -> Result:
        checker = AnswerChecker()
        registry = MetricsRegistry()

        def untraced_replay(step):
            return self.replay(setup, step)

        def traced_replay(step):
            with tracer.hooks():
                return self.replay(setup, step, registry=registry,
                                   tracer=tracer)

        host = {untraced_replay: 0.0, traced_replay: 0.0}
        sweep = []
        for step in range(len(RATES)):
            for run in _alternate(step, untraced_replay, traced_replay):
                replay = run(step)
                host[run] += replay.host_s
                self.check(setup, replay, checker)
                replay.responses = []
                if run is traced_replay:
                    sweep.append(replay)

        queries = sum(r.latencies.size for r in sweep)
        metrics = tracer.layer_metrics(registry, queries)
        metrics["trace_overhead"] = (
            host[traced_replay] / host[untraced_replay] - 1.0
        )
        metrics.update(_serving_layers(setup, sweep, registry))
        return Result(metrics, checker.checked, checker.wrong)


def _serving_layers(
    setup: Setup, sweep: list[Replay], registry: MetricsRegistry
) -> dict[str, float]:
    """Serving-layer metrics of one sweep (all in virtual time)."""
    reports = [r.report for r in sweep]
    batches = sum(rep.num_batches for rep in reports)
    hits = sum(rep.cache_hits for rep in reports)
    misses = sum(rep.cache_misses for rep in reports)
    per_replica = np.sum([rep.per_replica_sim_seconds for rep in reports],
                         axis=0)
    out = {
        "serve.batches": float(batches),
        "serve.batch_size_mean": sum(
            rep.num_batches * rep.batch_occupancy_mean for rep in reports
        ) / batches,
        "serve.cache_hit_ratio": hits / (hits + misses),
        "serve.replica_imbalance": float(per_replica.max() / per_replica.mean()),
        "graph.updates": registry.counters.get("cluster.graph_updates", 0.0),
        "serve.cache_entries_kept": registry.counters.get(
            "delta.cache_entries_kept", 0.0),
        "serve.cache_entries_purged": registry.counters.get(
            "delta.cache_entries_purged", 0.0),
    }
    sustained = 0.0
    for rate, replay in zip(RATES, sweep):
        latencies = replay.latencies
        tag = f"r{rate // 1000:03d}k"
        out[f"serve.p50_us.{tag}"] = float(np.percentile(latencies, 50)) * 1e6
        out[f"serve.p90_us.{tag}"] = float(np.percentile(latencies, 90)) * 1e6
        offered = len(latencies) / float(
            setup.serving.arrivals[replay.step][-1]
        )
        if (out[f"serve.p90_us.{tag}"] <= LATENCY_LIMIT_S * 1e6
                and replay.report.throughput_qps >= THROUGHPUT_FLOOR * offered):
            sustained = float(rate)
    out["serve.max_rate_qps"] = sustained
    return out


# ----------------------------------------------------------------------
# The workloads by name
# ----------------------------------------------------------------------


def _rmat(seed: int, smoke: bool) -> CSRGraph:
    return generators.rmat(10 if smoke else 15, 8, seed=seed)


def _mesh(seed: int, smoke: bool) -> CSRGraph:
    side = 24 if smoke else 112
    return generators.grid_2d(side, side)


def _twitter(seed: int, smoke: bool) -> CSRGraph:
    return datasets.twitter_like(0.1 if smoke else 0.15).graph


WORKLOADS: dict[str, Traversal | Serving] = {
    w.name: w for w in (
        Traversal(
            "traverse_powerlaw", _rmat,
            block=(("bfs", 8), ("sssp", 6), ("cc", 3), ("pr", 3)),
            smoke_block=(("bfs", 2), ("sssp", 1), ("cc", 1), ("pr", 1)),
        ),
        Traversal(
            "traverse_mesh", _mesh,
            block=(("bfs", 10), ("sssp", 10)),
            smoke_block=(("bfs", 2), ("sssp", 2)),
        ),
        Traversal(
            "adaptive_session", _twitter,
            block=(("bfs", 20),),
            smoke_block=(("bfs", 4),),
            session=True,
        ),
        Serving("serve_hotkey", dynamic=False),
        Serving("serve_rw", dynamic=True),
    )
}
