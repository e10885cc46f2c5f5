"""Configuration search towards a minimum-cost configuration (Section 7.2).

The most far-reaching use of the configuration tool is to ask for the
minimum-cost configuration that meets the specified performability and
availability goals.  The paper's first version uses a *greedy heuristic*:
iterate over candidate configurations by adding a replica of the most
critical server type, interleaving the availability and the performability
criterion so that each added server is justified by a re-evaluation (this
avoids "oversizing").  The paper remarks that full-fledged optimization
such as branch-and-bound or simulated annealing may eventually be used;
an exhaustive (exact) search and a simulated-annealing search are
therefore also provided, doubling as ablation baselines for the greedy
heuristic's near-minimality claim.

This module is the stable public API; the machinery lives in
:mod:`repro.core.search`, where one :class:`~repro.core.search.SearchEngine`
runs each algorithm as a candidate-proposal strategy.
"""

from __future__ import annotations

from typing import Callable

from repro.core.goals import GoalEvaluator, PerformabilityGoals
from repro.core.performance import SystemConfiguration
from repro.core.search.engine import SearchEngine
from repro.core.search.strategies import (
    BranchAndBoundStrategy,
    ExhaustiveStrategy,
    GreedyStrategy,
    SimulatedAnnealingStrategy,
)
from repro.core.search.types import (
    ConfigurationRecommendation,
    ReplicationConstraints,
    SearchStep,
)

__all__ = [
    "SEARCHES",
    "ConfigurationRecommendation",
    "ReplicationConstraints",
    "SearchStep",
    "branch_and_bound_configuration",
    "exhaustive_configuration",
    "greedy_configuration",
    "simulated_annealing_configuration",
]


def greedy_configuration(
    evaluator: GoalEvaluator,
    goals: PerformabilityGoals,
    constraints: ReplicationConstraints | None = None,
    initial: SystemConfiguration | None = None,
    stop_check: Callable[[], bool] | None = None,
) -> ConfigurationRecommendation:
    """The paper's greedy heuristic (Section 7.2).

    Starting from the minimal admissible configuration, each step
    evaluates both criteria and adds one replica of the most critical
    server type for whichever goal is still violated — first the
    availability criterion, then (after re-evaluating) the
    performability criterion — until both goals hold.  Raises
    :class:`~repro.exceptions.InfeasibleConfigurationError` when the
    constraint bounds are exhausted first (the best configuration found
    is attached).
    """
    constraints = constraints or ReplicationConstraints()
    strategy = GreedyStrategy(evaluator, goals, constraints, initial)
    return SearchEngine(evaluator, goals, stop_check=stop_check).run(strategy)


def exhaustive_configuration(
    evaluator: GoalEvaluator,
    goals: PerformabilityGoals,
    constraints: ReplicationConstraints | None = None,
    stop_check: Callable[[], bool] | None = None,
) -> ConfigurationRecommendation:
    """Exact minimum-cost configuration by enumeration in cost order.

    Exponential in the number of server types, but exact — the oracle
    against which the greedy heuristic's near-minimality is measured.
    """
    constraints = constraints or ReplicationConstraints(max_total_servers=16)
    strategy = ExhaustiveStrategy(evaluator, goals, constraints)
    return SearchEngine(evaluator, goals, stop_check=stop_check).run(strategy)


def branch_and_bound_configuration(
    evaluator: GoalEvaluator,
    goals: PerformabilityGoals,
    constraints: ReplicationConstraints | None = None,
    stop_check: Callable[[], bool] | None = None,
) -> ConfigurationRecommendation:
    """Exact minimum-cost search with monotonicity-based pruning.

    Analytic per-type lower bounds prune the infeasible corner without
    model evaluations; best-first expansion in cost order makes the
    first feasible configuration a provably minimum-cost one.  Exact
    like :func:`exhaustive_configuration`, typically at a small
    fraction of its model evaluations.
    """
    constraints = constraints or ReplicationConstraints(max_total_servers=32)
    strategy = BranchAndBoundStrategy(evaluator, goals, constraints)
    return SearchEngine(evaluator, goals, stop_check=stop_check).run(strategy)


def simulated_annealing_configuration(
    evaluator: GoalEvaluator,
    goals: PerformabilityGoals,
    constraints: ReplicationConstraints | None = None,
    iterations: int = 400,
    initial_temperature: float = 4.0,
    cooling: float = 0.98,
    violation_penalty: float = 100.0,
    seed: int = 0,
    stop_check: Callable[[], bool] | None = None,
) -> ConfigurationRecommendation:
    """Simulated-annealing search over the configuration space.

    The objective is ``cost + violation_penalty * (#violated goals)``;
    neighbour moves add or remove one replica of a random type within the
    constraint bounds.  Deterministic for a fixed ``seed``.
    """
    constraints = constraints or ReplicationConstraints(max_total_servers=32)
    strategy = SimulatedAnnealingStrategy(
        evaluator,
        goals,
        constraints,
        iterations=iterations,
        initial_temperature=initial_temperature,
        cooling=cooling,
        violation_penalty=violation_penalty,
        seed=seed,
    )
    return SearchEngine(evaluator, goals, stop_check=stop_check).run(strategy)


#: The point searches by algorithm name: the ``--algorithm`` choices of
#: ``repro recommend``/``repro serve`` and the service pipeline's table.
SEARCHES: dict[str, Callable[..., ConfigurationRecommendation]] = {
    "greedy": greedy_configuration,
    "exhaustive": exhaustive_configuration,
    "branch_and_bound": branch_and_bound_configuration,
    "simulated_annealing": simulated_annealing_configuration,
}
