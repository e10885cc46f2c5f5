"""Tests for the Pareto-frontier multi-objective search.

Pins the three contracts the frontier is sold on: dominance handling in
:class:`ParetoFrontier` (rejection, eviction, deterministic
tie-breaking, objective subsets), correctness of
:func:`frontier_search` against an independent brute-force
non-dominated set over the exhaustive candidate enumeration, and
byte-identical determinism across repeated runs with the same seed.
"""

import json
import math

import pytest

from repro import obs
from repro.core.configuration import (
    ReplicationConstraints,
    exhaustive_configuration,
)
from repro.core.goals import GoalEvaluator, PerformabilityGoals
from repro.core.model_types import (
    ActivitySpec,
    ServerTypeIndex,
    ServerTypeSpec,
)
from repro.core.performance import (
    PerformanceModel,
    SystemConfiguration,
    Workload,
    WorkloadItem,
)
from repro.core.search import (
    OBJECTIVES,
    FrontierPoint,
    ParetoFrontier,
    frontier_search,
)
from repro.core.search.candidates import configurations_by_cost
from repro.core.workflow_model import WorkflowDefinition, WorkflowState
from repro.exceptions import (
    InfeasibleConfigurationError,
    ValidationError,
)

GOALS = PerformabilityGoals(max_waiting_time=0.2, max_unavailability=1e-5)

SMALL_CONSTRAINTS = ReplicationConstraints(
    maximum={"comm": 3, "engine": 3, "app": 4},
    max_total_servers=10,
)


def make_performance():
    types = ServerTypeIndex(
        [
            ServerTypeSpec(
                "comm", 0.05, failure_rate=1 / 43200, repair_rate=0.1
            ),
            ServerTypeSpec(
                "engine", 0.1, failure_rate=1 / 10080, repair_rate=0.1
            ),
            ServerTypeSpec(
                "app", 0.3, failure_rate=1 / 1440, repair_rate=0.1
            ),
        ]
    )
    activity = ActivitySpec(
        "act", 5.0, loads={"comm": 2.0, "engine": 3.0, "app": 3.0}
    )
    workflow = WorkflowDefinition(
        name="wf",
        states=(WorkflowState("only", activity=activity),),
        transitions={},
        initial_state="only",
    )
    return PerformanceModel(
        types, Workload([WorkloadItem(workflow, 0.8)])
    )


def make_evaluator():
    return GoalEvaluator(make_performance())


def make_point(cost, waiting, unavailability, perf=None, name="x"):
    """A synthetic frontier point (no real assessment behind it)."""
    return FrontierPoint(
        configuration=SystemConfiguration({name: max(1, int(cost))}),
        cost=float(cost),
        metrics={
            "cost": float(cost),
            "max_waiting_time": float(waiting),
            "unavailability": float(unavailability),
            "performability_waiting_time": float(
                waiting if perf is None else perf
            ),
        },
        assessment=None,
    )


def brute_force_frontier(evaluator, goals, constraints):
    """Independent non-dominated set over the whole admissible space."""
    full_goals = goals.requiring_all_metrics()
    points = []
    for configuration in configurations_by_cost(
        evaluator.server_types, constraints
    ):
        assessment = evaluator.assess(configuration, full_goals)
        if assessment.satisfied:
            points.append(
                FrontierPoint.from_assessment(
                    assessment, evaluator.server_types
                )
            )

    def dominates(p, q):
        a = [p.metrics[axis] for axis in OBJECTIVES]
        b = [q.metrics[axis] for axis in OBJECTIVES]
        return all(x <= y for x, y in zip(a, b)) and any(
            x < y for x, y in zip(a, b)
        )

    return {
        p.key
        for p in points
        if not any(dominates(q, p) for q in points)
    }


class TestParetoFrontier:
    def test_dominated_insertion_rejected(self):
        frontier = ParetoFrontier()
        assert frontier.insert(make_point(1, 1.0, 1e-6))
        assert not frontier.insert(make_point(2, 2.0, 1e-5))
        assert len(frontier) == 1
        assert frontier.rejected == 1

    def test_dominating_insertion_evicts(self):
        frontier = ParetoFrontier()
        frontier.insert(make_point(3, 3.0, 1e-5))
        frontier.insert(make_point(2, 4.0, 1e-5))
        # Strictly better than both on every axis: both go.
        assert frontier.insert(make_point(1, 1.0, 1e-6))
        assert len(frontier) == 1
        assert frontier.evicted == 2

    def test_incomparable_points_coexist(self):
        frontier = ParetoFrontier()
        frontier.insert(make_point(1, 5.0, 1e-5))
        frontier.insert(make_point(2, 1.0, 1e-5))
        frontier.insert(make_point(3, 0.5, 1e-7))
        assert len(frontier) == 3

    def test_objective_equal_tie_keeps_incumbent(self):
        frontier = ParetoFrontier()
        first = make_point(2, 1.0, 1e-6, name="first")
        second = make_point(2, 1.0, 1e-6, name="second")
        assert frontier.insert(first)
        assert not frontier.insert(second)
        assert frontier.points[0].configuration.replicas == {"first": 2}

    def test_objective_subset_changes_dominance(self):
        # On (cost, unavailability) only, the slower-but-equal-cost
        # point is objective-equal and rejected.
        frontier = ParetoFrontier(objectives=("cost", "unavailability"))
        assert frontier.insert(make_point(2, 1.0, 1e-6))
        assert not frontier.insert(make_point(2, 9.0, 1e-6))
        full = ParetoFrontier()
        assert full.insert(make_point(2, 9.0, 1e-6))
        assert full.insert(make_point(2, 1.0, 1e-6))

    def test_infinite_metric_values_are_dominated(self):
        frontier = ParetoFrontier()
        frontier.insert(make_point(1, math.inf, 1e-6))
        assert frontier.insert(make_point(1, 1.0, 1e-6))
        assert len(frontier) == 1
        assert frontier.points[0].metrics["max_waiting_time"] == 1.0

    def test_points_sorted_by_cost(self):
        frontier = ParetoFrontier()
        frontier.insert(make_point(3, 0.5, 1e-5))
        frontier.insert(make_point(1, 5.0, 1e-5))
        frontier.insert(make_point(2, 1.0, 1e-5))
        assert [p.cost for p in frontier.points] == [1.0, 2.0, 3.0]

    def test_invalid_objectives_rejected(self):
        with pytest.raises(ValidationError):
            ParetoFrontier(objectives=())
        with pytest.raises(ValidationError):
            ParetoFrontier(objectives=("cost", "latency"))
        with pytest.raises(ValidationError):
            ParetoFrontier(objectives=("cost", "cost"))


class TestFrontierPoint:
    def test_requires_full_assessment(self):
        evaluator = make_evaluator()
        availability_only = PerformabilityGoals(max_unavailability=1e-5)
        assessment = evaluator.assess(
            SystemConfiguration({"comm": 2, "engine": 2, "app": 2}),
            availability_only,
        )
        assert assessment.performability is None
        with pytest.raises(ValidationError):
            FrontierPoint.from_assessment(
                assessment, evaluator.server_types
            )

    def test_metrics_extracted_from_assessment(self):
        evaluator = make_evaluator()
        configuration = SystemConfiguration(
            {"comm": 2, "engine": 2, "app": 3}
        )
        assessment = evaluator.assess(
            configuration, GOALS.requiring_all_metrics()
        )
        point = FrontierPoint.from_assessment(
            assessment, evaluator.server_types
        )
        assert point.cost == configuration.cost(evaluator.server_types)
        assert point.metrics["unavailability"] == (
            assessment.unavailability
        )
        report = assessment.performability
        assert point.metrics["max_waiting_time"] == max(
            report.failure_free_waiting_times.values()
        )
        assert point.metrics["performability_waiting_time"] == (
            report.max_expected_waiting_time
        )


class TestFrontierSearch:
    def test_every_point_survives_brute_force_dominance(self):
        # Acceptance criterion (c): each emitted point checked against
        # an independent brute-force non-dominated set built from the
        # exhaustive candidate enumeration.
        result = frontier_search(
            make_evaluator(), GOALS, SMALL_CONSTRAINTS, seed=0
        )
        brute = brute_force_frontier(
            make_evaluator(), GOALS, SMALL_CONSTRAINTS
        )
        assert result.points
        assert {p.key for p in result.points} <= brute

    def test_exact_mode_recovers_full_brute_force_frontier(self):
        # With the prefix covering the whole admissible space the sweep
        # degenerates to an exact frontier computation.
        result = frontier_search(
            make_evaluator(), GOALS, SMALL_CONSTRAINTS,
            prefix=10**9, shotgun=0, restarts=0, seed=0,
        )
        brute = brute_force_frontier(
            make_evaluator(), GOALS, SMALL_CONSTRAINTS
        )
        assert {p.key for p in result.points} == brute

    def test_contains_single_objective_recommendation(self):
        # Acceptance criterion (a): the single-objective exact optimum
        # is on the frontier, and is what the frontier recommends.
        exact = exhaustive_configuration(
            make_evaluator(), GOALS, SMALL_CONSTRAINTS
        )
        result = frontier_search(
            make_evaluator(), GOALS, SMALL_CONSTRAINTS, seed=0
        )
        keys = {p.key for p in result.points}
        assert tuple(
            sorted(exact.configuration.replicas.items())
        ) in keys
        assert result.recommendation.cost == exact.cost
        assert result.recommendation.assessment.satisfied

    def test_points_satisfy_goal_bounds(self):
        result = frontier_search(
            make_evaluator(), GOALS, SMALL_CONSTRAINTS, seed=0
        )
        for point in result.points:
            assert point.assessment.satisfied
            assert point.metrics["unavailability"] <= (
                GOALS.max_unavailability
            )
            assert point.metrics["performability_waiting_time"] <= (
                GOALS.max_waiting_time
            )

    def test_repeated_runs_byte_identical(self):
        documents = [
            json.dumps(
                frontier_search(
                    make_evaluator(), GOALS, SMALL_CONSTRAINTS, seed=11
                ).to_document(),
                sort_keys=True,
            )
            for _ in range(2)
        ]
        assert documents[0] == documents[1]

    def test_different_seeds_still_non_dominated(self):
        brute = brute_force_frontier(
            make_evaluator(), GOALS, SMALL_CONSTRAINTS
        )
        for seed in (0, 1, 42):
            result = frontier_search(
                make_evaluator(), GOALS, SMALL_CONSTRAINTS, seed=seed
            )
            assert {p.key for p in result.points} <= brute

    def test_infeasible_goals_raise_with_best_found(self):
        impossible = PerformabilityGoals(
            max_waiting_time=1e-12, max_unavailability=1e-30
        )
        tight = ReplicationConstraints(
            maximum={"comm": 2, "engine": 2, "app": 2},
            max_total_servers=5,
        )
        with pytest.raises(InfeasibleConfigurationError) as excinfo:
            frontier_search(make_evaluator(), impossible, tight, seed=0)
        best = excinfo.value.best_found
        assert best is not None
        assert best.assessment.violations

    def test_unbounded_axes_expose_all_metrics(self):
        # An availability-only goal still yields all four metrics on
        # every frontier point (the waiting axes are free objectives).
        availability_only = PerformabilityGoals(max_unavailability=1e-5)
        result = frontier_search(
            make_evaluator(), availability_only, SMALL_CONSTRAINTS,
            seed=0,
        )
        for point in result.points:
            for axis in OBJECTIVES:
                assert axis in point.metrics
            assert point.assessment.performability is not None

    def test_emits_frontier_counters(self):
        # A space large enough that the climb runs dry and the seeded
        # restarts actually fire.
        roomy = ReplicationConstraints(max_total_servers=12)
        obs.reset()
        obs.enable()
        try:
            result = frontier_search(
                make_evaluator(), GOALS, roomy, seed=0
            )
            counters = {
                name: state["value"]
                for name, state in (
                    obs.registry().export_snapshot().items()
                )
                if state["kind"] == "counter"
            }
        finally:
            obs.disable()
            obs.reset()
        assert counters["search.frontier.evaluated"] > 0
        assert counters["search.frontier.inserted"] > 0
        assert counters["search.frontier.dominated"] > 0
        assert result.restarts_used > 0
        assert counters["search.frontier.restarts"] == (
            result.restarts_used
        )

    def test_document_is_json_safe_and_ranked(self):
        result = frontier_search(
            make_evaluator(), GOALS, SMALL_CONSTRAINTS, seed=0
        )
        document = json.loads(json.dumps(result.to_document()))
        assert document["schema"] == "repro.search.frontier/v1"
        assert document["algorithm"] == "frontier"
        assert [p["rank"] for p in document["points"]] == list(
            range(1, len(result.points) + 1)
        )
        costs = [p["cost"] for p in document["points"]]
        assert costs == sorted(costs)
        assert document["recommended"]["satisfied"] is True

    def test_format_text_lists_every_point(self):
        result = frontier_search(
            make_evaluator(), GOALS, SMALL_CONSTRAINTS, seed=0
        )
        text = result.format_text()
        assert "Pareto frontier" in text
        assert "Recommended" in text
        assert len(text.splitlines()) == len(result.points) + 3
