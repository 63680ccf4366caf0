"""Seeded UCB/MCTS search over the tuning-space DAG.

The search tree mirrors the :class:`~repro.tune.space.TuningSpace` axis
order: a node at depth *d* is a partial assignment of the first *d*
axes, its children the candidates of axis *d*.  Each rollout descends
by UCB1 while every child has been visited, expands the first
unvisited child otherwise (candidate order — deterministic), completes
the remaining axes by seeded uniform sampling, scores the full point
through the cached :class:`~repro.tune.evaluator.CostModelEvaluator`,
and backpropagates the reward (speedup over the default, zeroed for
infeasible points, clipped to tame outliers).

Everything that moves is seeded — candidate order, the numpy
``default_rng`` rollout tail, and deterministic argmax tie-breaks — so
equal ``(space, workload, budget, seed)`` inputs reproduce the same
trace and the same best point bit-for-bit on any machine.  The CI
`tune` job leans on exactly that property.

The default point is evaluated before the first rollout and competes
for *best* on equal terms, so tuning can never return a configuration
worse than the shipped defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import InvalidParameterError
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.tune.evaluator import CostModelEvaluator, Evaluation
from repro.tune.space import TuningPoint, TuningSpace

#: UCB1 exploration constant.  Smaller than the classic sqrt(2): the
#: reward spread between configurations is a few tenths, so the bandit
#: must exploit early within small CI budgets.
EXPLORATION = 0.5

#: Probability that a rollout tail keeps an axis at its default value
#: instead of sampling uniformly.  Biasing tails toward the shipped
#: defaults isolates the expanded axis's effect (coordinate-descent
#: flavor) while still exploring joint interactions.
DEFAULT_TAIL_BIAS = 0.5

#: Rewards are clipped here so one freak outlier cannot dominate UCB.
MAX_REWARD = 4.0


@dataclass
class _Node:
    """One search-DAG node: a prefix assignment of the axis order."""

    visits: int = 0
    total_reward: float = 0.0
    children: dict[Any, "_Node"] = field(default_factory=dict)

    @property
    def mean_reward(self) -> float:
        return self.total_reward / self.visits if self.visits else 0.0


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one tuner search (all costs in simulated seconds)."""

    best: Evaluation
    default: Evaluation
    rollouts: int
    evaluations: int
    trace: tuple[dict[str, Any], ...]

    @property
    def speedup(self) -> float:
        if self.best.cost_seconds <= 0:
            return 1.0
        return self.default.cost_seconds / self.best.cost_seconds


def search(
    space: TuningSpace,
    evaluator: CostModelEvaluator,
    *,
    budget: int = 32,
    seed: int = 0,
    metrics: MetricsRegistry | None = None,
) -> SearchResult:
    """Run ``budget`` seeded UCB rollouts and return the best point."""
    if budget < 1:
        raise InvalidParameterError("budget must be >= 1")
    metrics = metrics if metrics is not None else NULL_REGISTRY
    rng = np.random.default_rng(seed)
    root = _Node()
    trace: list[dict[str, Any]] = []

    with metrics.span("tune.search", workload=evaluator.workload.name):
        default = evaluator.default()
        best = default
        for rollout in range(budget):
            metrics.count("tune.rollouts")
            point, path = _select(space, root, rng)
            evaluation = evaluator.evaluate(point)
            reward = _reward(default, evaluation)
            for node in path:
                node.visits += 1
                node.total_reward += reward
            if _better(evaluation, best):
                best = evaluation
            trace.append(
                {
                    "rollout": rollout,
                    "point": point.to_dict(),
                    "cost_seconds": evaluation.cost_seconds,
                    "latency_p95": evaluation.latency_p95,
                    "feasible": evaluation.feasible,
                    "reward": reward,
                    "best_cost_seconds": best.cost_seconds,
                }
            )
        metrics.set_gauge(
            "tune.best_speedup",
            default.cost_seconds / best.cost_seconds
            if best.cost_seconds > 0
            else 1.0,
        )
        metrics.count("tune.searches")
    return SearchResult(
        best=best,
        default=default,
        rollouts=budget,
        evaluations=evaluator.evaluations,
        trace=tuple(trace),
    )


def _select(
    space: TuningSpace,
    root: _Node,
    rng: np.random.Generator,
) -> tuple[TuningPoint, list[_Node]]:
    """One tree descent: UCB while saturated, expand once, sample tail."""
    assignment: dict[str, Any] = {}
    path = [root]
    node = root
    defaults = TuningPoint()
    for depth, (name, values) in enumerate(space.axes):
        unvisited = [v for v in values if v not in node.children]
        if unvisited:
            value = unvisited[0]
            child = _Node()
            node.children[value] = child
            assignment[name] = value
            path.append(child)
            # Expansion stops the walk.  Root expansions anchor the
            # tail to pure defaults — a deterministic single-axis probe
            # of each first-level arm, so one noisy tail can never bury
            # a good arm before it is ever tried cleanly.  Deeper
            # expansions sample a seeded tail biased toward defaults.
            anchored = depth == 0
            for tail_name, tail_values in space.axes[depth + 1:]:
                default_value = getattr(defaults, tail_name)
                if anchored:
                    assignment[tail_name] = default_value
                elif rng.random() < DEFAULT_TAIL_BIAS and (
                    default_value in tail_values
                ):
                    assignment[tail_name] = default_value
                else:
                    assignment[tail_name] = tail_values[
                        int(rng.integers(len(tail_values)))
                    ]
            return space.point(assignment), path
        value = _ucb_argmax(node, values)
        child = node.children[value]
        assignment[name] = value
        path.append(child)
        node = child
    return space.point(assignment), path


def _ucb_argmax(node: _Node, values: tuple) -> Any:
    """Highest-UCB child; ties break on candidate order (deterministic)."""
    log_parent = math.log(max(1, node.visits))
    best_value = values[0]
    best_score = -math.inf
    for value in values:
        child = node.children[value]
        score = child.mean_reward + EXPLORATION * math.sqrt(
            log_parent / child.visits
        )
        if score > best_score:
            best_score = score
            best_value = value
    return best_value


def _reward(default: Evaluation, evaluation: Evaluation) -> float:
    """Clipped speedup over default; infeasible points keep a damped
    fraction of it so one bad tail cannot zero out a whole arm."""
    if evaluation.cost_seconds <= 0:
        return 0.0
    speedup = min(MAX_REWARD, default.cost_seconds / evaluation.cost_seconds)
    if not evaluation.feasible:
        return min(0.75, 0.25 * speedup)
    return speedup


def _better(candidate: Evaluation, incumbent: Evaluation) -> bool:
    """Strictly lower feasible cost wins (ties keep the incumbent)."""
    if not candidate.feasible:
        return False
    if not incumbent.feasible:
        return True
    return candidate.cost_seconds < incumbent.cost_seconds
