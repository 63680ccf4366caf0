"""``bench_trajectory.py``'s tier table and the guards its rows run.

Every row is one record of ``TIERS``; these tests add a tier as one
record, and plant a divergence under each answer guard to show it
raises (an ``assert`` would vanish under ``python -O``).
"""

from __future__ import annotations

import ast
import dataclasses

import numpy as np
import pytest

from repro.apps.incremental import IncrementalBFS, IncrementalPageRank, IncrementalSSSP
from repro.errors import GuardError
from tests.conftest import BENCH_DIR, load_bench_trajectory


@pytest.fixture(scope="module")
def bench():
    return load_bench_trajectory()


def _flipped(result: dict) -> dict:
    """A copy of a result dict with one value changed."""
    out = {key: np.array(value, copy=True) for key, value in result.items()}
    key = next(k for k in sorted(out) if out[k].size)
    flat = out[key].reshape(-1)
    flat[0] = ~flat[0] if flat.dtype == bool else flat[0] + 1
    return out


def _tiny(bench, **changes):
    """An 8-query single-broker serving tier."""
    tier = bench.OpenLoopTier(
        "tiny_openloop", "tiny_", bench.Sizes(8, 8), seed=3, rate_qps=400.0,
        replay={**bench.SINGLE_BROKER, "batch_window": 0.05,
                "max_batch_size": 64},
        baseline="sequential", columns=bench.SERVICE_COLUMNS,
        floor=1.5, label="device time vs one query at a time",
    )
    return tier._replace(**changes)


def _tier(bench, name):
    (tier,) = [t for t in bench.TIERS if t.name == name]
    return tier


def test_bench_trajectory_has_no_assert():
    source = (BENCH_DIR / "bench_trajectory.py").read_text(encoding="utf-8")
    asserts = [node.lineno for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Assert)]
    assert asserts == []


class TestTierTable:
    def test_a_tier_is_one_table_entry(self, bench, monkeypatch):
        tier = _tiny(bench)
        monkeypatch.setattr(bench, "TIERS", bench.TIERS + (tier,))
        row = tier.run(True, {})
        assert set(row) == {
            "tiny_sequential_seconds", "tiny_speedup_vs_sequential",
            *(f"tiny_{column}" for column in bench.SERVICE_COLUMNS),
            "simulated_seconds", "wall_seconds",
        }
        assert row["tiny_speedup_vs_sequential"] > 1.0

        suite = {"workloads": {t.name: {t.floor_key: t.floor}
                               for t in bench.TIERS if t.floor_key}}
        assert bench.check_floors(suite) == []
        suite["workloads"]["tiny_openloop"] = dict(
            row, tiny_speedup_vs_sequential=1.0
        )
        (failure,) = bench.check_floors(suite)
        assert failure.startswith(
            "tiny_openloop: tiny_speedup_vs_sequential=1.000 < floor 1.5"
        )

    def test_rows_sharing_a_scale_share_one_graph(self, bench, monkeypatch):
        built = []
        real = bench._rmat
        monkeypatch.setattr(
            bench, "_rmat", lambda scale: built.append(scale) or real(scale)
        )
        graphs = {}
        for tier in bench.TIERS:
            if isinstance(tier, bench.TraversalTier):
                tier.run(True, graphs)
        assert built == [10, 17]
        _tiny(bench).run(True, graphs)
        assert built == [10, 17, 10]   # an open-loop row builds its own


class TestGuards:
    """Each guard raises ``GuardError`` on one planted divergence."""

    def test_a_query_not_answered_ok_raises(self, bench, monkeypatch):
        real = bench.simulate_cluster_open_loop

        def planted(*args, **kwargs):
            responses, report = real(*args, **kwargs)
            report.status_counts = {"ok": len(responses) - 1, "error": 1}
            return responses, report

        monkeypatch.setattr(bench, "simulate_cluster_open_loop", planted)
        with pytest.raises(GuardError, match="not every query"):
            _tiny(bench).run(True, {})

    def test_sampling_oracle_divergence_raises(self, bench, monkeypatch):
        tier = _tier(bench, "sampling_openloop")._replace(
            queries=bench.Sizes(8, 8)
        )
        tier.run(True, {})   # the unplanted tier passes
        real = bench.run_direct

        def planted(*args, **kwargs):
            run = real(*args, **kwargs)
            return dataclasses.replace(run, result=_flipped(run.result))

        monkeypatch.setattr(bench, "run_direct", planted)
        with pytest.raises(GuardError, match="vs the direct oracle"):
            tier.run(True, {})

    @pytest.mark.parametrize("plant", ["answer", "seconds", "oracle"])
    def test_pipeline_divergence_raises(self, bench, monkeypatch, plant):
        tier = _tier(bench, "pipeline_openloop")._replace(
            queries=bench.Sizes(8, 8)
        )
        tier.run(True, {})
        real_replay, real_direct = (bench.simulate_cluster_open_loop,
                                    bench.run_direct)

        def replay(*args, **kwargs):
            responses, report = real_replay(*args, **kwargs)
            if "pipeline" in kwargs and plant == "answer":
                responses[-1] = dataclasses.replace(
                    responses[-1], result=_flipped(responses[-1].result)
                )
            if "pipeline" in kwargs and plant == "seconds":
                report.sim_seconds_total *= 1.5
            return responses, report

        def direct(*args, **kwargs):
            run = real_direct(*args, **kwargs)
            return dataclasses.replace(run, result=_flipped(run.result))

        monkeypatch.setattr(bench, "simulate_cluster_open_loop", replay)
        if plant == "oracle":
            monkeypatch.setattr(bench, "run_direct", direct)
        match = {"answer": "between batch and pipeline",
                 "seconds": "device seconds differ",
                 "oracle": "vs the direct oracle"}[plant]
        with pytest.raises(GuardError, match=match):
            tier.run(True, {})

    @pytest.mark.parametrize("engine, attribute, match", [
        (IncrementalBFS, "distances", "incremental bfs diverged"),
        (IncrementalSSSP, "distances", "incremental sssp diverged"),
        (IncrementalPageRank, "pagerank", "residual certificate"),
    ])
    def test_dynamic_stream_divergence_raises(
        self, bench, monkeypatch, engine, attribute, match
    ):
        real = getattr(engine, attribute)

        def planted(self):
            values = np.array(real.fget(self), copy=True)
            values[np.argmax(values)] += 1
            return values

        monkeypatch.setattr(engine, attribute, property(planted))
        with pytest.raises(GuardError, match=match):
            bench._dynamic_stream_row(True)
