"""Tests for the unified search engine (strategies and enumeration).

The four public searches in :mod:`repro.core.configuration` are thin
wrappers over :class:`repro.core.search.SearchEngine`; these tests pin
the engine-level contracts the wrappers rely on: the lazy cost-ordered
candidate enumeration, cross-algorithm agreement on the optimum, and
the JSON form of a recommendation.  The order in which each strategy
consumes its candidates is pinned by ``test_search_goldens.py``.
"""

import json

from repro.core.configuration import (
    ReplicationConstraints,
    branch_and_bound_configuration,
    exhaustive_configuration,
    greedy_configuration,
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
from repro.core.search.candidates import configurations_by_cost
from repro.core.workflow_model import WorkflowDefinition, WorkflowState

GOALS = PerformabilityGoals(max_waiting_time=0.2, max_unavailability=1e-5)


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


SMALL_CONSTRAINTS = ReplicationConstraints(
    maximum={"comm": 3, "engine": 3, "app": 4},
    max_total_servers=10,
)


class TestCostOrderedEnumeration:
    def test_matches_eager_enumeration(self):
        server_types = make_evaluator().server_types
        lazy = list(configurations_by_cost(server_types, SMALL_CONSTRAINTS))
        eager = []
        for comm in range(1, 4):
            for engine in range(1, 4):
                for app in range(1, 5):
                    if comm + engine + app > 10:
                        continue
                    configuration = SystemConfiguration(
                        {"comm": comm, "engine": engine, "app": app}
                    )
                    eager.append(configuration)
        eager.sort(
            key=lambda c: (
                c.cost(server_types), c.total_servers, str(c)
            )
        )
        assert lazy == eager

    def test_is_lazy(self):
        # Pulling a few items from a space of ~10^9 configurations must
        # not enumerate it: only a heap of near-frontier nodes exists.
        server_types = make_evaluator().server_types
        generator = configurations_by_cost(
            server_types,
            ReplicationConstraints(max_total_servers=100),
        )
        first = next(generator)
        assert first.total_servers == 3
        for _ in range(50):
            next(generator)

    def test_costs_non_decreasing(self):
        server_types = make_evaluator().server_types
        costs = [
            configuration.cost(server_types)
            for configuration in configurations_by_cost(
                server_types, SMALL_CONSTRAINTS
            )
        ]
        assert costs == sorted(costs)


class TestCrossAlgorithmAgreement:
    def test_branch_and_bound_matches_exhaustive_cost(self):
        exhaustive = exhaustive_configuration(
            make_evaluator(), GOALS, SMALL_CONSTRAINTS
        )
        bounded = branch_and_bound_configuration(
            make_evaluator(), GOALS, SMALL_CONSTRAINTS
        )
        assert bounded.cost == exhaustive.cost
        assert bounded.assessment.satisfied

    def test_greedy_never_beats_the_exact_optimum(self):
        exhaustive = exhaustive_configuration(
            make_evaluator(), GOALS, SMALL_CONSTRAINTS
        )
        greedy = greedy_configuration(
            make_evaluator(), GOALS, SMALL_CONSTRAINTS
        )
        assert greedy.cost >= exhaustive.cost
        assert greedy.assessment.satisfied


class TestRecommendationDocument:
    def test_to_document_is_json_safe(self):
        recommendation = greedy_configuration(
            make_evaluator(), GOALS, SMALL_CONSTRAINTS
        )
        document = recommendation.to_document()
        encoded = json.loads(json.dumps(document))
        assert encoded["algorithm"] == "greedy"
        assert encoded["cost"] == recommendation.cost
        assert encoded["satisfied"] is True
        assert encoded["configuration"] == dict(
            recommendation.configuration.replicas
        )
        assert len(encoded["trace"]) == len(recommendation.trace)
