"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from perfbench import compare, oracles, workloads
from perfbench.calibration import Calibration
from perfbench.tracing import LAYER_HOOKS, QUERY_SPAN, Tracer
from repro import api
from repro.apps import BFSApp
from repro.core import SageScheduler, TraversalPipeline
from repro.graph import datasets
from repro.serve.executor import BatchExecutor

ROOT = pathlib.Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SIM_METRICS = ("sim_gteps", "sim_p50_us", "sim_us_per_query")


def _deterministic(metrics: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics that are counts or simulated (not host time)."""
    return {
        name: value for name, value in metrics.items()
        if not name.endswith("_s") and name != "trace_overhead"
    }


def test_smoke_run_of_every_workload_is_fast_and_correct(tmp_path):
    out = tmp_path / "smoke.json"
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--seconds", "0",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert time.perf_counter() - start < 30
    results = json.loads(out.read_text())["results"]
    assert set(results) == set(workloads.WORKLOADS)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["end_to_end"]}
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0, name
        assert set(result["metrics"]) == names
        assert all(m["value"] > 0 for m in result["metrics"].values())
    lines = [line.split() for line in done.stdout.splitlines()[:-1]]
    assert ["traverse_mesh", "sim_gteps"] in [line[:2] for line in lines]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_equal_seeds_give_identical_simulated_metrics_and_counts(name):
    workload = workloads.WORKLOADS[name]
    first, second = (
        workload.measure(workload.setup(3, smoke=True), 0.0, Calibration())
        for _ in range(2)
    )
    assert {m: first.metrics[m] for m in SIM_METRICS} == {
        m: second.metrics[m] for m in SIM_METRICS
    }
    traced = [
        workload.trace(workload.setup(3, smoke=True), Tracer()).metrics
        for _ in range(2)
    ]
    assert _deterministic(traced[0]) == _deterministic(traced[1])
    if isinstance(workload, workloads.Serving):
        assert traced[0]["serve.max_rate_qps"] > 0


def test_span_self_times_sum_to_each_query_span():
    originals = {(o, a): vars(o)[a] for o, a, _ in LAYER_HOOKS}
    workload = workloads.WORKLOADS["traverse_powerlaw"]
    tracer = Tracer()
    workload.trace(workload.setup(0, smoke=True), tracer)
    assert all(vars(o)[a] is f for (o, a), f in originals.items())

    own = tracer.self_times()
    parents = np.asarray(tracer.parents)
    duration = np.asarray(tracer.ends) - np.asarray(tracer.starts)
    roots = [i for i, n in enumerate(tracer.names) if n == QUERY_SPAN]
    assert roots and len(tracer.names) > len(roots)
    for root in roots:
        subtree, frontier = {root}, [root]
        while frontier:
            children = np.flatnonzero(np.isin(parents, frontier)).tolist()
            subtree.update(children)
            frontier = children
        assert own[sorted(subtree)].sum() == pytest.approx(
            duration[root], rel=0.01
        )


def test_planted_wrong_traversal_answer_is_counted(monkeypatch):
    real_run = api.run

    def wrong_run(graph, app, **kwargs):
        result = real_run(graph, app, **kwargs)
        if app == "bfs":
            result.values["dist"][0] += 1
        return result

    workload = workloads.WORKLOADS["traverse_mesh"]
    setup = workload.setup(0, smoke=True)
    monkeypatch.setattr(workloads.api, "run", wrong_run)
    result = workload.measure(setup, 0.0, Calibration())
    assert result.failed >= 1
    assert result.failed < result.attempted


def test_planted_wrong_served_answer_is_counted(monkeypatch):
    real_execute = BatchExecutor.execute

    def wrong_execute(self, graph, requests):
        execution = real_execute(self, graph, requests)
        if "dist" in execution.results[0]:
            execution.results[0]["dist"][0] += 1
        return execution

    workload = workloads.WORKLOADS["serve_hotkey"]
    setup = workload.setup(0, smoke=True)
    monkeypatch.setattr(BatchExecutor, "execute", wrong_execute)
    result = workload.measure(setup, 0.0, Calibration())
    assert result.failed >= 1


def _session_case():
    graph = datasets.twitter_like(0.1).graph
    sources = np.flatnonzero(graph.out_degrees() > 0)[:6].tolist()
    fresh = [api.run(graph, "bfs", source=s).values["dist"] for s in sources]
    return graph, sources, fresh


def test_composed_session_answers_match_fresh_runs():
    graph, sources, fresh = _session_case()
    session = workloads.Session(graph)
    for source, expected in zip(sources, fresh):
        _, _, values = session("bfs", source)
        assert np.array_equal(values["dist"], expected)
    assert session.to_current is not None


def test_reused_pipeline_answers_in_relabelled_ids():
    graph, sources, fresh = _session_case()
    pipeline = TraversalPipeline(graph, SageScheduler(sampling_reorder=True))
    wrong = sum(
        not np.array_equal(pipeline.run(BFSApp(), s).result["dist"], want)
        for s, want in zip(sources, fresh)
    )
    assert wrong > 0


@pytest.mark.xfail(
    strict=True,
    reason="SSSPApp.weights is indexed by edge and is not permuted on a "
    "reorder commit, so sage-sr returns wrong SSSP distances",
)
def test_sssp_under_sampling_reorder_matches_dijkstra():
    graph = datasets.twitter_like(0.5).graph
    source = int(np.argmax(graph.out_degrees()))
    got = api.run(graph, "sssp", source=source, scheduler="sage-sr")
    assert got.reorder_commits > 0
    want = oracles.TraversalOracle(graph).sssp_distances(source)
    assert np.array_equal(got.values["dist"], want)


def test_benchmark_alone_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_rw",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def _report(path: pathlib.Path, host_qps: float, failed: int = 0) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in spec["end_to_end"]}
    metrics["host_qps"]["value"] = host_qps
    path.write_text(json.dumps({"results": {"w": {
        "correct": failed == 0, "attempted": 10, "failed": failed,
        "metrics": metrics,
    }}}))
    return str(path)


def test_compare_flags_regressions_and_new_wrong_answers(tmp_path, capsys):
    a = [_report(tmp_path / f"a{i}.json", 100.0 + i) for i in range(2)]
    same = [_report(tmp_path / f"b{i}.json", 100.5 + i) for i in range(2)]
    slow = [_report(tmp_path / f"s{i}.json", 60.0 + i) for i in range(2)]
    wrong = [_report(tmp_path / f"w{i}.json", 100.0 + i, failed=1)
             for i in range(2)]
    assert compare.main(a + ["--"] + same) == 0
    assert compare.main(a + ["--"] + slow) == 1
    assert compare.main(a + ["--"] + wrong) == 1
    assert "worse" in capsys.readouterr().out


def test_compare_judges_exactly_repeating_metrics_exactly():
    assert compare.verdict([5.0, 5.0], [5.0, 5.0], 0.1, True) == "unchanged"
    assert compare.verdict([5.0, 5.0], [4.999, 4.999], 0.1, True) == "worse"
    assert compare.verdict([5.0, 6.0], [5.1, 6.1], 0.1, True) == "unresolved"
