"""Tests for the unified search engine (strategies and enumeration).

The four public searches in :mod:`repro.core.configuration` are thin
wrappers over :class:`repro.core.search.SearchEngine`; these tests pin
the engine-level contracts the wrappers rely on: the lazy cost-ordered
candidate enumeration, cross-algorithm agreement on the optimum,
cancellation through ``stop_check``, and the JSON form of a
recommendation.  The order in which each strategy
consumes its candidates is pinned by ``test_search_goldens.py``.

:class:`TestEnumerationOracle` checks the count-tuple enumeration
against the heap over :class:`SystemConfiguration` objects it replaced,
kept here as :func:`oracle_configurations_by_cost`.
"""

import heapq
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.exceptions import SearchCancelledError

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


class TestStopCheck:
    def test_search_engine_raises_when_stop_check_fires(self):
        with pytest.raises(SearchCancelledError):
            greedy_configuration(
                make_evaluator(),
                PerformabilityGoals(max_waiting_time=1.0),
                ReplicationConstraints(max_total_servers=8),
                stop_check=lambda: True,
            )

    def test_none_stop_check_is_the_default_path(self):
        recommendation = greedy_configuration(
            make_evaluator(),
            PerformabilityGoals(max_waiting_time=1.0),
            ReplicationConstraints(max_total_servers=8),
            stop_check=None,
        )
        assert recommendation.assessment.satisfied


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


def oracle_configurations_by_cost(server_types, constraints):
    """The enumeration as it was before the search moved onto count tuples.

    Each heap entry builds a :class:`SystemConfiguration` and orders it
    by ``(cost(), total_servers, str())``; nothing here is shared with
    :mod:`repro.core.search.candidates`.
    """
    names = server_types.names
    lower = tuple(constraints.lower_bound(name) for name in names)
    upper = tuple(constraints.upper_bound(name) for name in names)
    if any(low > high for low, high in zip(lower, upper)):
        return

    def entry(counts, first_index):
        configuration = SystemConfiguration(dict(zip(names, counts)))
        return (
            configuration.cost(server_types),
            configuration.total_servers,
            str(configuration),
            counts,
            first_index,
            configuration,
        )

    frontier = [entry(lower, 0)]
    while frontier:
        _, total, _, counts, first_index, configuration = heapq.heappop(
            frontier
        )
        if total > constraints.max_total_servers:
            continue
        yield configuration
        for j in range(first_index, len(names)):
            if counts[j] + 1 <= upper[j]:
                child = counts[:j] + (counts[j] + 1,) + counts[j + 1:]
                heapq.heappush(frontier, entry(child, j))


#: Type names whose name order differs from any drawn type order and
#: whose prefixes collide (``app`` < ``app-2``, ``x`` < ``x1``).
ORACLE_NAMES = ("a", "b", "app", "app-2", "x", "x1", "wf", "z")

#: Costs whose sums tie or nearly tie (0.1 + 0.2 != 0.3 in floats).
ORACLE_COSTS = (0.1, 0.2, 0.3, 0.7, 1.0, 2.0)

#: Largest count above the lower-bound corner, by number of types: up
#: to three types reach counts of 10 and more, and no example
#: enumerates more than about 800 configurations.
ORACLE_SLACK = {1: 15, 2: 14, 3: 12, 4: 8, 5: 7}


@st.composite
def landscapes_with_bounds(draw):
    """A 1–5 type landscape and replication bounds over it.

    ``max_total_servers`` is drawn around the lower-bound corner, from
    one below it (nothing admissible) up to :data:`ORACLE_SLACK`.
    """
    size = draw(st.integers(1, 5))
    names = draw(
        st.lists(
            st.sampled_from(ORACLE_NAMES),
            min_size=size, max_size=size, unique=True,
        )
    )
    costs = draw(
        st.lists(st.sampled_from(ORACLE_COSTS), min_size=size, max_size=size)
    )
    server_types = ServerTypeIndex(
        [
            ServerTypeSpec(name, 0.1, cost=cost)
            for name, cost in zip(names, costs)
        ]
    )
    minimum, maximum, fixed = {}, {}, {}
    for name in names:
        kind = draw(
            st.sampled_from(("free", "minimum", "maximum", "both", "fixed"))
        )
        if kind in ("minimum", "both"):
            minimum[name] = draw(st.integers(1, 3))
        if kind in ("maximum", "both"):
            maximum[name] = minimum.get(name, 1) + draw(st.integers(0, 12))
        if kind == "fixed":
            fixed[name] = draw(st.integers(1, 12))
    corner = sum(
        fixed.get(name, minimum.get(name, 1)) for name in names
    )
    constraints = ReplicationConstraints(
        minimum=minimum,
        maximum=maximum,
        fixed=fixed,
        max_total_servers=max(
            1, corner + draw(st.integers(-1, ORACLE_SLACK[size]))
        ),
    )
    return server_types, constraints


class TestEnumerationOracle:
    @settings(max_examples=200, deadline=None)
    @given(landscapes_with_bounds())
    def test_matches_configuration_heap(self, case):
        server_types, constraints = case

        def sequence(configurations):
            return [
                (configuration.replicas, configuration.cost(server_types))
                for configuration in configurations
            ]

        assert sequence(
            configurations_by_cost(server_types, constraints)
        ) == sequence(
            oracle_configurations_by_cost(server_types, constraints)
        )
