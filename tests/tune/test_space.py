"""The typed tuning space: validation, projections, serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.hybrid import DEFAULT_ALPHA, DEFAULT_BETA
from repro.core.tiling import DEFAULT_MIN_TILE
from repro.errors import InvalidParameterError
from repro.tune import DEFAULT_SPACE, TuningPoint, TuningSpace

pytestmark = pytest.mark.tune


class TestTuningPoint:
    def test_default_point_is_the_shipped_configuration(self):
        point = TuningPoint()
        assert point.alpha == DEFAULT_ALPHA
        assert point.beta == DEFAULT_BETA
        assert point.min_tile == DEFAULT_MIN_TILE

    @pytest.mark.parametrize("bad", [
        dict(alpha=0.0),
        dict(alpha=-3.0),
        dict(beta=0.0),
        dict(min_tile=0),
        dict(min_tile=3),
        dict(min_tile=-8),
        dict(batch_window=-0.1),
        dict(max_batch_size=0),
        dict(routing="teleport"),
        dict(max_concurrency=0),
        dict(backoff=0.0),
        dict(backoff=1.0),
        dict(recovery=0.0),
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(InvalidParameterError):
            TuningPoint(**bad)

    def test_round_trip_and_unknown_knob(self):
        point = TuningPoint(alpha=8.0, min_tile=16, routing="round_robin")
        assert TuningPoint.from_dict(point.to_dict()) == point
        with pytest.raises(InvalidParameterError, match="unknown tuning"):
            TuningPoint.from_dict({"alpha": 8.0, "warp_size": 64})

    def test_key_is_hashable_identity(self):
        a, b = TuningPoint(), TuningPoint(alpha=8.0)
        assert a.key() == TuningPoint().key()
        assert a.key() != b.key()
        assert len({a.key(), b.key(), TuningPoint().key()}) == 2

    def test_projections_carry_the_knobs(self):
        point = TuningPoint(alpha=4.0, beta=64.0, min_tile=32,
                            max_concurrency=16, backoff=0.25, recovery=2.0)
        hybrid = point.hybrid_config()
        assert (hybrid.alpha, hybrid.beta) == (4.0, 64.0)
        admission = point.admission_config()
        assert admission.max_concurrency == 16
        assert admission.backoff == 0.25
        assert admission.recovery == 2.0
        scheduler = point.scheduler_factory()()
        assert scheduler.min_tile == 32


class TestTuningSpace:
    def test_default_space_contains_the_default_point(self):
        for name, values in DEFAULT_SPACE.axes:
            assert getattr(TuningPoint(), name) in values, name

    @pytest.mark.parametrize("axes,match", [
        ((("warp_size", (32,)),), "unknown tuning knob"),
        ((("alpha", (8.0,)), ("alpha", (4.0,))), "duplicate axis"),
        ((("alpha", ()),), "no candidates"),
    ])
    def test_invalid_axes_rejected(self, axes, match):
        with pytest.raises(InvalidParameterError, match=match):
            TuningSpace(axes)

    def test_invalid_candidate_rejected(self):
        with pytest.raises(InvalidParameterError):
            TuningSpace((("min_tile", (8, 3)),))

    def test_size(self, tiny_space):
        assert tiny_space.size == 3 * 2 * 2

    def test_sample_is_seed_deterministic(self, tiny_space):
        runs = [
            [tiny_space.sample(np.random.default_rng(7)) for _ in range(5)]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_list_form_survives_key_sorting_serializers(self, tiny_space):
        # Axis order is the search DAG's level order; a sort_keys dump of
        # the list-of-pairs form must round-trip to the same order.
        dumped = json.dumps(tiny_space.to_list(), sort_keys=True)
        restored = TuningSpace.from_list(json.loads(dumped))
        assert restored.axes == tiny_space.axes
