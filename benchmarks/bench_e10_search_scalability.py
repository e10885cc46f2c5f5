"""E10 — configuration search at scale (extension experiment).

The paper's example has three server types; Figure 2's general
architecture has ``m`` engine types and ``n`` application server types.
This experiment runs the searches on the five-type extended landscape
(two engine types, two application types, one communication type, loan +
e-commerce + order mix) and compares cost and model evaluations across
the algorithms: the paper's greedy heuristic, the exact branch-and-bound
(with analytic lower bounds), exact exhaustive enumeration, and
simulated annealing.

Shape claims: branch-and-bound matches the exhaustive optimum with a
small fraction of its evaluations; greedy stays within one server of the
optimum; the marginal performability fast path makes every evaluation
cheap enough for the 5-dimensional space.
"""

from benchmarks.conftest import emit
from repro.core.configuration import (
    ReplicationConstraints,
    branch_and_bound_configuration,
    exhaustive_configuration,
    greedy_configuration,
    simulated_annealing_configuration,
)
from repro.core.goals import GoalEvaluator, PerformabilityGoals
from repro.core.performance import PerformanceModel, Workload, WorkloadItem
from repro.workflows import (
    ecommerce_workflow,
    extended_server_types,
    loan_workflow,
    order_processing_workflow,
)

GOALS = PerformabilityGoals(max_waiting_time=0.2, max_unavailability=1e-5)

CONSTRAINTS = ReplicationConstraints(
    maximum={name: 4 for name in (
        "comm-server", "wf-engine", "app-server",
        "wf-engine-2", "app-server-2",
    )},
    max_total_servers=20,
)


def make_performance():
    types = extended_server_types()
    workload = Workload(
        [
            WorkloadItem(ecommerce_workflow(), 0.3),
            WorkloadItem(order_processing_workflow(), 0.15),
            WorkloadItem(loan_workflow(), 0.1),
        ]
    )
    return PerformanceModel(types, workload)


def make_evaluator():
    return GoalEvaluator(make_performance())


def test_e10_algorithm_comparison(benchmark):
    def run_all():
        results = {}
        results["greedy"] = greedy_configuration(
            make_evaluator(), GOALS, CONSTRAINTS
        )
        results["branch_and_bound"] = branch_and_bound_configuration(
            make_evaluator(), GOALS, CONSTRAINTS
        )
        results["exhaustive"] = exhaustive_configuration(
            make_evaluator(), GOALS, CONSTRAINTS
        )
        results["simulated_annealing"] = simulated_annealing_configuration(
            make_evaluator(), GOALS, CONSTRAINTS,
            iterations=500, seed=13,
        )
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = ["algorithm              cost   evaluations   configuration"]
    for name, recommendation in results.items():
        lines.append(
            f"{name:20s} {recommendation.cost:6.0f} "
            f"{recommendation.evaluations:13d}   "
            f"{recommendation.configuration}"
        )
    emit("E10: search algorithms on the five-type landscape", lines)

    optimum = results["exhaustive"].cost
    assert results["branch_and_bound"].cost == optimum
    assert results["greedy"].cost <= optimum + 1.0
    assert results["simulated_annealing"].cost <= optimum + 2.0
    # Branch-and-bound prunes hard relative to exhaustive enumeration.
    assert (results["branch_and_bound"].evaluations
            < results["exhaustive"].evaluations / 5)
    for recommendation in results.values():
        assert recommendation.assessment.satisfied


def test_e10_evaluation_cost_is_small(benchmark):
    """One goal evaluation on the 5-type landscape stays in the
    millisecond range thanks to the marginal performability path."""
    performance = make_performance()
    from repro.core.performance import SystemConfiguration

    configuration = SystemConfiguration(
        {
            "comm-server": 2, "wf-engine": 2, "app-server": 3,
            "wf-engine-2": 2, "app-server-2": 2,
        }
    )

    def evaluate_fresh():
        # A fresh evaluator has a cold cache: time the real work.
        return GoalEvaluator(performance).assess(configuration, GOALS)

    assessment = benchmark(evaluate_fresh)
    emit(
        "E10b: single goal evaluation on 5 types",
        [
            f"configuration: {configuration}",
            f"satisfied: {assessment.satisfied}",
            f"unavailability: {assessment.unavailability:.3e}",
        ],
    )
    assert assessment.unavailability is not None
