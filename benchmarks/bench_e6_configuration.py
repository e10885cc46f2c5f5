"""E6 — Section 7.2: greedy minimum-cost configuration search.

Regenerates the configuration tool's recommendation loop over a grid of
(waiting-time goal, availability goal) pairs and compares the greedy
heuristic's cost with the exhaustive optimum and simulated annealing.
Shape claims: greedy always returns a feasible configuration; its cost
is within one server of the exhaustive optimum on this grid (the
"near-minimum cost" claim); it needs orders of magnitude fewer model
evaluations than exhaustive search; tighter goals cost more servers.
"""

from benchmarks.conftest import emit
from repro.core.configuration import (
    ReplicationConstraints,
    exhaustive_configuration,
    greedy_configuration,
    simulated_annealing_configuration,
)
from repro.core.goals import GoalEvaluator, PerformabilityGoals
from repro.core.performance import PerformanceModel, Workload, WorkloadItem
from repro.workflows import (
    ecommerce_workflow,
    order_processing_workflow,
    standard_server_types,
)

GOAL_GRID = [
    (0.5, 1e-4),
    (0.5, 1e-6),
    (0.15, 1e-4),
    (0.15, 1e-6),
    (0.05, 1e-7),
]

CONSTRAINTS = ReplicationConstraints(
    maximum={"comm-server": 4, "wf-engine": 5, "app-server": 6},
    max_total_servers=15,
)


def make_evaluator():
    types = standard_server_types()
    workload = Workload(
        [
            WorkloadItem(ecommerce_workflow(), 0.4),
            WorkloadItem(order_processing_workflow(), 0.2),
        ]
    )
    return GoalEvaluator(PerformanceModel(types, workload))


def test_e6_greedy_vs_exhaustive_grid(benchmark):
    def run_grid():
        rows = []
        for waiting_goal, unavailability_goal in GOAL_GRID:
            goals = PerformabilityGoals(
                max_waiting_time=waiting_goal,
                max_unavailability=unavailability_goal,
            )
            greedy = greedy_configuration(
                make_evaluator(), goals, CONSTRAINTS
            )
            exhaustive = exhaustive_configuration(
                make_evaluator(), goals, CONSTRAINTS
            )
            rows.append((waiting_goal, unavailability_goal,
                         greedy, exhaustive))
        return rows

    rows = benchmark.pedantic(run_grid, rounds=1, iterations=1)

    lines = [
        "w goal   unavail goal   greedy config          cost"
        "   optimum cost   greedy evals   exhaustive evals"
    ]
    for waiting_goal, unavailability_goal, greedy, exhaustive in rows:
        lines.append(
            f"{waiting_goal:6.2f} {unavailability_goal:12.0e}   "
            f"{str(greedy.configuration):22s} {greedy.cost:4.0f} "
            f"{exhaustive.cost:14.0f} {greedy.evaluations:14d} "
            f"{exhaustive.evaluations:18d}"
        )
    emit("E6: greedy vs exhaustive minimum-cost configuration", lines)

    for _, _, greedy, exhaustive in rows:
        assert greedy.assessment.satisfied
        # Near-minimality: within one server of the optimum.
        assert greedy.cost <= exhaustive.cost + 1.0
        # And dramatically cheaper to compute.
        assert greedy.evaluations <= exhaustive.evaluations

    # Tighter goals never get cheaper.
    costs = [greedy.cost for _, _, greedy, _ in rows]
    assert costs[1] >= costs[0]
    assert costs[3] >= costs[2]
    assert costs[4] == max(costs)


def test_e6_simulated_annealing_competitive(benchmark):
    goals = PerformabilityGoals(
        max_waiting_time=0.15, max_unavailability=1e-6
    )

    annealed = benchmark.pedantic(
        lambda: simulated_annealing_configuration(
            make_evaluator(), goals, CONSTRAINTS,
            iterations=400, seed=7,
        ),
        rounds=1, iterations=1,
    )
    exhaustive = exhaustive_configuration(
        make_evaluator(), goals, CONSTRAINTS
    )
    emit(
        "E6b: simulated annealing vs exhaustive",
        [
            f"annealing: {annealed.configuration} cost {annealed.cost:.0f}"
            f" ({annealed.evaluations} evaluations)",
            f"optimum:   {exhaustive.configuration} "
            f"cost {exhaustive.cost:.0f}",
        ],
    )
    assert annealed.assessment.satisfied
    assert annealed.cost <= exhaustive.cost + 2.0


def test_e6_greedy_interleaving_avoids_oversizing(benchmark):
    """Each greedy step must be justified: removing any single replica
    from the recommendation breaks a goal (no oversizing, Section 7.2)."""
    goals = PerformabilityGoals(
        max_waiting_time=0.15, max_unavailability=1e-6
    )
    evaluator = make_evaluator()
    recommendation = benchmark.pedantic(
        lambda: greedy_configuration(make_evaluator(), goals, CONSTRAINTS),
        rounds=1, iterations=1,
    )
    from repro.core.performance import SystemConfiguration

    lines = [f"recommendation: {recommendation.configuration}"]
    for name in evaluator.server_types.names:
        count = recommendation.configuration.count(name)
        if count <= 1:
            continue
        replicas = dict(recommendation.configuration.replicas)
        replicas[name] = count - 1
        shrunk = evaluator.assess(SystemConfiguration(replicas), goals)
        lines.append(
            f"  remove one {name}: satisfied={shrunk.satisfied}"
        )
        assert not shrunk.satisfied
    emit("E6c: no single replica is removable (no oversizing)", lines)
