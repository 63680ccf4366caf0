"""Self-tuning: cost-model-driven search over the traversal knob space.

The paper's self-adaptivity picks strategy *per iteration*; this
package closes the remaining loop by picking the *configuration* per
workload — Beamer thresholds, tile floor, batching, routing and
admission — with a seeded UCB/MCTS search scored entirely by the
deterministic simulator.  Results persist as canonical-JSON
:class:`~repro.tune.profiles.TunedProfile` files that
``api.serve``/``api.cluster`` auto-load by graph fingerprint, and the
whole pipeline is bit-reproducible, so CI regenerates and diffs the
committed profiles on every push.
"""

from __future__ import annotations

from repro.obs import MetricsRegistry
from repro.serve.cache import graph_fingerprint
from repro.tune.evaluator import CostModelEvaluator, Evaluation
from repro.tune.profiles import (
    ProfileStore,
    TunedProfile,
    default_profile_dir,
)
from repro.tune.search import SearchResult, search
from repro.tune.space import DEFAULT_SPACE, TuningPoint, TuningSpace
from repro.tune.workloads import (
    BENCH_WORKLOADS,
    SAMPLING_WORKLOADS,
    TuningWorkload,
    get_workload,
)

__all__ = [
    "BENCH_WORKLOADS",
    "DEFAULT_SPACE",
    "SAMPLING_WORKLOADS",
    "CostModelEvaluator",
    "Evaluation",
    "ProfileStore",
    "SearchResult",
    "TunedProfile",
    "TuningPoint",
    "TuningSpace",
    "TuningWorkload",
    "default_profile_dir",
    "get_workload",
    "search",
    "tune_workload",
]


def tune_workload(
    workload: TuningWorkload | str,
    *,
    budget: int = 32,
    seed: int = 0,
    space: TuningSpace | None = None,
    metrics: MetricsRegistry | None = None,
) -> tuple[TunedProfile, SearchResult]:
    """Search one workload and package the outcome as a profile.

    The returned profile embeds the workload name, seed, budget and
    space, so ``tune_workload(profile.workload, budget=profile.budget,
    seed=profile.seed, space=profile.space)`` regenerates it exactly —
    the contract the CI verification job checks byte-for-byte.
    """
    if isinstance(workload, str):
        workload = get_workload(workload)
    space = space if space is not None else DEFAULT_SPACE
    evaluator = CostModelEvaluator(workload, metrics=metrics)
    result = search(
        space, evaluator, budget=budget, seed=seed, metrics=metrics
    )
    profile = TunedProfile(
        graph_fingerprint=graph_fingerprint(evaluator.graph),
        apps=tuple(sorted(workload.mix)),
        workload=workload.name,
        category=workload.category,
        point=result.best.point,
        default_cost_seconds=result.default.cost_seconds,
        tuned_cost_seconds=result.best.cost_seconds,
        seed=seed,
        budget=budget,
        evaluations=result.evaluations,
        space=space,
    )
    return profile, result
