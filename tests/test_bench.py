"""Tests for the experiment harness (tiny scales) and reporting."""

import numpy as np
import pytest

from repro.bench import (
    APP_NAMES,
    app_factory,
    fig6_rows,
    fig7_rows,
    fig8_rows,
    fig9_rows,
    fig10_rows,
    format_table,
    needs_source,
    pick_sources,
    sage_reorder_rounds,
    table1_rows,
    table2_rows,
    table3_rows,
)
from repro.errors import InvalidParameterError
from repro.graph import generators as gen

TINY = 0.05


class TestWorkloads:
    def test_app_factories(self):
        for name in APP_NAMES:
            app = app_factory(name)()
            assert app.name in ("bfs", "bc", "pr")

    def test_unknown_app(self):
        with pytest.raises(InvalidParameterError):
            app_factory("nope")

    def test_needs_source(self):
        assert needs_source("bfs") and needs_source("bc")
        assert not needs_source("pr")

    def test_pick_sources_nonzero_degree(self, skewed_graph):
        sources = pick_sources(skewed_graph, 5, seed=1)
        degrees = skewed_graph.out_degrees()
        assert np.all(degrees[sources] > 0)

    def test_pick_sources_deterministic(self, skewed_graph):
        a = pick_sources(skewed_graph, 5, seed=1)
        b = pick_sources(skewed_graph, 5, seed=1)
        assert np.array_equal(a, b)

    def test_pick_sources_empty_graph(self):
        from repro.graph.csr import CSRGraph
        g = CSRGraph.from_edges(3, np.array([], dtype=int),
                                np.array([], dtype=int))
        with pytest.raises(InvalidParameterError):
            pick_sources(g, 2)


class TestReorderRounds:
    def test_snapshots_at_checkpoints(self):
        g = gen.power_law_configuration(
            200, 2.0, 8.0, seed=3, community_count=4, scramble_ids=True
        )
        rounds = sage_reorder_rounds(g, 3, checkpoints=(1, 3))
        assert set(rounds.snapshots) == {1, 3}
        assert len(rounds.per_round_seconds) == 3
        assert rounds.mean_round_seconds > 0

    def test_perm_tracks_graph(self):
        g = gen.power_law_configuration(
            200, 2.0, 8.0, seed=3, community_count=4, scramble_ids=True
        )
        rounds = sage_reorder_rounds(g, 2, checkpoints=(2,))
        perm = rounds.perms[2]
        snapshot = rounds.snapshots[2]
        # applying the cumulative perm to the original must equal snapshot
        assert np.array_equal(g.permute(perm).targets, snapshot.targets)

    def test_validation(self, tiny_graph):
        with pytest.raises(InvalidParameterError):
            sage_reorder_rounds(tiny_graph, 0)


class TestHarnessRows:
    def test_table1(self):
        rows = table1_rows(TINY)
        assert len(rows) == 5
        assert {"dataset", "nodes", "edges"} <= set(rows[0])

    def test_table2(self):
        rows = table2_rows(TINY, sage_rounds=1)
        assert len(rows) == 5
        for row in rows:
            assert row["sage_per_round_s"] >= 0

    def test_table3(self):
        rows = table3_rows(TINY, num_sources=1)
        assert len(rows) == 5
        for row in rows:
            for app in APP_NAMES:
                assert 0 <= row[f"{app}_tp_pct"] <= 100

    def test_fig6(self):
        rows = fig6_rows(TINY, num_sources=1, sage_checkpoints=(1,),
                         apps=("bfs",))
        assert len(rows) == 5
        assert {"original", "rcm", "llp", "gorder", "sage_1"} <= set(rows[0])

    def test_fig7(self):
        rows = fig7_rows(TINY, num_sources=1, apps=("bfs",),
                         with_gorder=False)
        assert len(rows) == 5
        assert {"ligra", "tpn", "b40c", "tigr", "gunrock", "sage"} <= \
            set(rows[0])

    def test_fig8(self):
        rows = fig8_rows(TINY, num_sources=1)
        assert {"subway", "sage-ooc", "um-ondemand"} <= set(rows[0])

    def test_fig9(self):
        rows = fig9_rows(TINY, num_sources=1)
        assert {"gunrock_1gpu", "gunrock_2gpu", "sage_2gpu"} <= set(rows[0])

    def test_fig10(self):
        rows = fig10_rows(TINY, num_sources=1, apps=("bfs",),
                          reorder_rounds=1)
        for row in rows:
            assert {"base", "+tp", "+tp+rts", "+tp+rts+sr"} <= set(row)


class TestReporting:
    def test_format_table(self):
        text = format_table(
            [{"a": 1, "b": "x"}, {"a": 2.5, "b": "yy"}], "T"
        )
        assert "T" in text
        assert "a" in text and "b" in text
        assert "2.5" in text

    def test_empty(self):
        assert "(no rows)" in format_table([], "T")


class TestTrajectoryGate:
    """``bench_trajectory.py --check`` pins every gated metric at float
    noise, in either direction."""

    @staticmethod
    def payload(**row):
        return {"suite": "smoke", "workloads": {"bfs": row}}

    @pytest.fixture(scope="class")
    def bench(self):
        from tests.conftest import load_bench_trajectory

        return load_bench_trajectory()

    def test_float_noise_passes(self, bench):
        base = self.payload(total_cycles=1000.0, kernels=0.0)
        noise = self.payload(total_cycles=1000.0 * (1 + 1e-12), kernels=0.0)
        assert bench.check_regression(noise, base, 1e-9) == []

    @pytest.mark.parametrize("new", [999.0, 1001.0])
    def test_a_move_either_way_fails_and_is_named(self, bench, new):
        failures = bench.check_regression(
            self.payload(total_cycles=new),
            self.payload(total_cycles=1000.0),
            1e-9,
        )
        assert len(failures) == 1
        assert failures[0].startswith(f"bfs.total_cycles 1000.0 -> {new!r}")

    def test_a_move_off_zero_fails(self, bench):
        failures = bench.check_regression(
            self.payload(kernels=1.0), self.payload(kernels=0.0), 1e-9
        )
        assert failures == ["bfs.kernels 0.0 -> 1.0 (from 0, tolerance 1e-09)"]
