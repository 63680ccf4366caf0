"""Tuned-profile persistence: JSON records of what the tuner found.

A :class:`TunedProfile` captures one search outcome — the winning
:class:`~repro.tune.space.TuningPoint`, the default/tuned costs, and
everything needed to *regenerate* the search (workload name, seed,
budget, the exact space) — keyed on the graph's content fingerprint,
the apps of the traffic mix, and the workload class.

Serialization is **canonical**: sorted keys, two-space indent, a
trailing newline, and no wall-clock fields anywhere.  Rerunning the
tuner with equal inputs therefore reproduces the committed file
byte-for-byte, which is exactly what the CI `tune` job asserts.

Profiles invalidate themselves on graph change: the fingerprint is a
content hash of the CSR, so a dynamic-graph epoch bump (or any edit to
a generator) changes the fingerprint and :meth:`ProfileStore.find`
simply stops matching — stale tuning can never be applied to a graph
it was not measured on.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass
from typing import Any

from repro.errors import InvalidParameterError
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.tune.space import TuningPoint, TuningSpace

SCHEMA_VERSION = 1

#: Profiles live here unless overridden (env var or explicit root).
PROFILE_DIR_ENV = "REPRO_PROFILE_DIR"
DEFAULT_PROFILE_DIR = "profiles"


@dataclass(frozen=True)
class TunedProfile:
    """One persisted tuning outcome (see module docstring for keying)."""

    graph_fingerprint: str
    apps: tuple[str, ...]
    workload: str
    category: str
    point: TuningPoint
    default_cost_seconds: float
    tuned_cost_seconds: float
    seed: int
    budget: int
    evaluations: int
    space: TuningSpace
    schema_version: int = SCHEMA_VERSION

    @property
    def speedup(self) -> float:
        if self.tuned_cost_seconds <= 0:
            return 1.0
        return self.default_cost_seconds / self.tuned_cost_seconds

    def matches(self, fingerprint: str) -> bool:
        """Does this profile apply to the graph?  Exact-key semantics."""
        return fingerprint == self.graph_fingerprint

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "graph_fingerprint": self.graph_fingerprint,
            "apps": list(self.apps),
            "workload": self.workload,
            "category": self.category,
            "point": self.point.to_dict(),
            "default_cost_seconds": self.default_cost_seconds,
            "tuned_cost_seconds": self.tuned_cost_seconds,
            "speedup": self.speedup,
            "seed": self.seed,
            "budget": self.budget,
            "evaluations": self.evaluations,
            "space": self.space.to_list(),
        }

    def canonical_json(self) -> str:
        """The byte-stable serialization the CI job diffs against."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TunedProfile":
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise InvalidParameterError(
                f"unsupported profile schema_version {version!r} "
                f"(expected {SCHEMA_VERSION})"
            )
        return cls(
            graph_fingerprint=str(data["graph_fingerprint"]),
            apps=tuple(data["apps"]),
            workload=str(data["workload"]),
            category=str(data["category"]),
            point=TuningPoint.from_dict(data["point"]),
            default_cost_seconds=float(data["default_cost_seconds"]),
            tuned_cost_seconds=float(data["tuned_cost_seconds"]),
            seed=int(data["seed"]),
            budget=int(data["budget"]),
            evaluations=int(data["evaluations"]),
            space=TuningSpace.from_list(data["space"]),
        )


def default_profile_dir() -> pathlib.Path:
    return pathlib.Path(os.environ.get(PROFILE_DIR_ENV, DEFAULT_PROFILE_DIR))


class ProfileStore:
    """Loads and saves tuned profiles under one directory.

    Filenames are ``<workload>.json`` — one committed profile per
    tuning workload; the content key (fingerprint + apps) decides
    whether a profile applies at load time.
    """

    def __init__(
        self,
        root: str | pathlib.Path | None = None,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.root = (
            pathlib.Path(root) if root is not None else default_profile_dir()
        )
        self.metrics = metrics if metrics is not None else NULL_REGISTRY

    def path_for(self, workload: str) -> pathlib.Path:
        return self.root / f"{workload}.json"

    def save(self, profile: TunedProfile) -> pathlib.Path:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(profile.workload)
        path.write_text(profile.canonical_json(), encoding="utf-8")
        self.metrics.count("tune.profiles_saved")
        return path

    def load(self, path: str | pathlib.Path) -> TunedProfile:
        text = pathlib.Path(path).read_text(encoding="utf-8")
        profile = TunedProfile.from_dict(json.loads(text))
        self.metrics.count("tune.profiles_loaded")
        return profile

    def list(self) -> list[pathlib.Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.json"))

    def find(self, fingerprint: str) -> TunedProfile | None:
        """The first committed profile for the graph, if any.

        Unreadable or foreign JSON files in the directory are skipped —
        a corrupt profile must never break serving, which falls back to
        defaults.
        """
        for path in self.list():
            try:
                profile = self.load(path)
            except (OSError, ValueError, KeyError, InvalidParameterError):
                self.metrics.count("tune.profiles_skipped")
                continue
            if profile.matches(fingerprint):
                self.metrics.count("tune.profile_matches")
                return profile
        return None
