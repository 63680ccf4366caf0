"""Profile persistence: canonical JSON, keying, invalidation, robustness."""

from __future__ import annotations

import json

import pytest

from repro.errors import InvalidParameterError
from repro.obs import MetricsRegistry
from repro.serve.cache import graph_fingerprint
from repro.tune import (
    ProfileStore,
    TunedProfile,
    default_profile_dir,
    tune_workload,
)

pytestmark = pytest.mark.tune


@pytest.fixture(scope="module")
def profile(tiny_workload):
    profile, _ = tune_workload(tiny_workload, budget=4, seed=0)
    return profile


class TestCanonicalJson:
    def test_round_trip_is_byte_stable(self, profile):
        text = profile.canonical_json()
        reloaded = TunedProfile.from_dict(json.loads(text))
        assert reloaded.canonical_json() == text

    def test_trailing_newline_and_sorted_keys(self, profile):
        text = profile.canonical_json()
        assert text.endswith("}\n")
        keys = list(json.loads(text))
        assert keys == sorted(keys)

    def test_schema_version_gate(self, profile):
        data = json.loads(profile.canonical_json())
        data["schema_version"] = 999
        with pytest.raises(InvalidParameterError, match="schema_version"):
            TunedProfile.from_dict(data)

    def test_speedup_property(self, profile):
        assert profile.speedup == pytest.approx(
            profile.default_cost_seconds / profile.tuned_cost_seconds
        )


class TestMatching:
    def test_matches_fingerprint(self, profile):
        assert profile.matches(profile.graph_fingerprint)
        assert not profile.matches("0" * 16)

    def test_fingerprint_invalidation(self, profile, tiny_workload):
        # A regenerated graph (epoch bump, generator edit) changes the
        # content hash, so the committed profile silently stops applying.
        from repro.graph.generators import rmat

        other = rmat(7, edge_factor=4, seed=100)
        assert graph_fingerprint(other) != profile.graph_fingerprint
        assert not profile.matches(graph_fingerprint(other))


class TestStore:
    def test_save_load_find(self, tmp_path, profile):
        metrics = MetricsRegistry()
        store = ProfileStore(tmp_path, metrics=metrics)
        path = store.save(profile)
        assert path.read_text(encoding="utf-8") == profile.canonical_json()
        assert store.load(path).canonical_json() == profile.canonical_json()
        found = store.find(profile.graph_fingerprint)
        assert found is not None
        assert found.canonical_json() == profile.canonical_json()
        assert store.find("0" * 16) is None
        counters = metrics.report()["counters"]
        assert counters["tune.profiles_saved"] == 1
        assert counters["tune.profile_matches"] == 1

    def test_corrupt_files_are_skipped_not_fatal(self, tmp_path, profile):
        metrics = MetricsRegistry()
        store = ProfileStore(tmp_path, metrics=metrics)
        store.save(profile)
        (tmp_path / "aaa_garbage.json").write_text("{not json", "utf-8")
        (tmp_path / "bbb_foreign.json").write_text('{"x": 1}', "utf-8")
        found = store.find(profile.graph_fingerprint)
        assert found is not None
        assert metrics.report()["counters"]["tune.profiles_skipped"] == 2

    def test_empty_store(self, tmp_path):
        store = ProfileStore(tmp_path / "nowhere")
        assert store.list() == []
        assert store.find("anything") is None

    def test_default_dir_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path / "custom"))
        assert default_profile_dir() == tmp_path / "custom"
        assert ProfileStore().root == tmp_path / "custom"


class TestRegeneration:
    def test_profile_embeds_its_own_regeneration_inputs(
        self, profile, tiny_workload
    ):
        # The CI verify job's contract: rerunning with the profile's own
        # (workload, seed, budget, space) reproduces it byte-for-byte.
        again, _ = tune_workload(
            tiny_workload,
            budget=profile.budget,
            seed=profile.seed,
            space=profile.space,
        )
        assert again.canonical_json() == profile.canonical_json()
