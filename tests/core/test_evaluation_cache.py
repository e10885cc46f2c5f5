"""Tests for the shared evaluation-cache layer (configuration search)."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import goals as goals_module
from repro.core import performability
from repro.core.availability import RepairPolicy
from repro.core.configuration import (
    ReplicationConstraints,
    branch_and_bound_configuration,
    exhaustive_configuration,
    greedy_configuration,
    simulated_annealing_configuration,
)
from repro.core.evaluation_cache import BoundedCache, EvaluationCache
from repro.core.goals import GoalEvaluator, PerformabilityGoals
from repro.core.model_types import (
    ActivitySpec,
    ServerTypeIndex,
    ServerTypeSpec,
)
from repro.core.performability import DegradedStatePolicy, TypeRow
from repro.core.performance import (
    PerformanceModel,
    SystemConfiguration,
    Workload,
    WorkloadItem,
)
from repro.core.workflow_model import WorkflowDefinition, WorkflowState
from repro.exceptions import ValidationError
from repro.workflows import (
    ecommerce_workflow,
    extended_server_types,
    loan_workflow,
    order_processing_workflow,
)


def make_performance(arrival_rate=0.8, fast_service=0.05, slow_failure=0.01):
    types = ServerTypeIndex(
        [
            ServerTypeSpec(
                "fast", fast_service, failure_rate=0.001, repair_rate=0.1
            ),
            ServerTypeSpec(
                "slow", 0.3, failure_rate=slow_failure, repair_rate=0.1
            ),
        ]
    )
    activity = ActivitySpec("act", 5.0, loads={"fast": 3.0, "slow": 2.0})
    workflow = WorkflowDefinition(
        name="wf",
        states=(WorkflowState("only", activity=activity),),
        transitions={},
        initial_state="only",
    )
    return PerformanceModel(
        types, Workload([WorkloadItem(workflow, arrival_rate)])
    )


class TestBoundedCache:
    def test_maxsize_must_be_positive(self):
        with pytest.raises(ValidationError):
            BoundedCache("x", 0)

    def test_counts_hits_and_misses(self):
        cache = BoundedCache("x", 4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1
        assert cache.misses == 1

    def test_evicts_least_recently_used(self):
        cache = BoundedCache("x", 2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a"; "b" becomes LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1
        assert len(cache) == 2


FAST = ServerTypeSpec("fast", 0.05, failure_rate=0.001, repair_rate=0.1)


def fast_row():
    """A row of the ``fast`` type under the default policies."""
    return TypeRow(
        FAST,
        2.4,
        RepairPolicy.INDEPENDENT,
        DegradedStatePolicy.CONDITIONAL,
        None,
    )


@pytest.fixture
def points(monkeypatch):
    """Record every waiting-time point a row computes, returning ``n``."""
    computed = []

    def point(spec, total, n):
        computed.append(n)
        return float(n)

    monkeypatch.setattr(performability, "waiting_time_point", point)
    return computed


@pytest.fixture
def pools_built(monkeypatch):
    """Record the ``(type, count)`` of every birth-death pool built."""
    built = []
    real = performability.ServerPoolAvailability

    def pool(spec, count, policy):
        built.append((spec.name, count))
        return real(spec=spec, count=count, policy=policy)

    monkeypatch.setattr(performability, "ServerPoolAvailability", pool)
    return built


@pytest.fixture
def counters():
    """Nonzero assessment counters recorded since the last ``obs.reset``."""
    obs.reset()
    obs.enable()
    names = (
        "configuration.candidates_evaluated",
        "evaluation_cache.assessments.hits",
        "evaluation_cache.assessments.misses",
        "evaluation_cache.type_terms.misses",
        "performance.waiting_time_points",
    )
    yield lambda: {
        name: obs.registry().counter(name).value
        for name in names
        if obs.registry().counter(name).value
    }
    obs.disable()
    obs.reset()


class TestWaitingCurves:
    def test_curve_grows_monotonically(self, points):
        row = fast_row()
        short = row.waits(2)
        longer = row.waits(4)
        assert list(short) == [0.0, 1.0, 2.0]
        assert list(longer) == [0.0, 1.0, 2.0, 3.0, 4.0]
        # The prefix 0..2 was computed once, never recomputed.
        assert points == [0, 1, 2, 3, 4]

    def test_prefix_request_is_a_pure_hit(self, points):
        row = fast_row()
        row.waits(3)
        again = row.waits(1)
        assert list(again) == [0.0, 1.0]
        assert points == [0, 1, 2, 3]

    def test_returned_array_is_a_copy(self, points):
        row = fast_row()
        first = row.waits(2)
        first[0] = 99.0
        second = row.waits(2)
        assert second[0] == 0.0

    def test_disabled_cache_always_computes(self, points, pools_built):
        cache = EvaluationCache(enabled=False)
        evaluator = GoalEvaluator(make_performance(), cache=cache)
        goals = PerformabilityGoals(max_waiting_time=10.0)
        first = SystemConfiguration({"fast": 2, "slow": 2})
        second = SystemConfiguration({"fast": 2, "slow": 3})
        for configuration in (first, first, second):
            evaluator.assess(configuration, goals)
        # Every candidate rebuilds every type's term from a fresh row,
        # whole curve included, and nothing is memoized.
        assert pools_built == [
            ("fast", 2), ("slow", 2), ("fast", 2), ("slow", 2),
            ("fast", 2), ("slow", 3),
        ]
        assert points == [0, 1, 2] * 5 + [0, 1, 2, 3]
        assert evaluator.evaluation_count == 3
        assert cache.stats() == {
            "rows.size": 0, "rows.hits": 0, "rows.misses": 0,
            "type_terms.hits": 0, "type_terms.misses": 0, "evictions": 0,
        }


class TestPoolSharing:
    def test_same_spec_count_policy_shares_one_pool(self, pools_built):
        cache = EvaluationCache()
        goals = PerformabilityGoals(max_waiting_time=10.0)
        # Two evaluators of equal-valued but distinct models share rows.
        for slow in (1, 2):
            GoalEvaluator(make_performance(), cache=cache).assess(
                SystemConfiguration({"fast": 3, "slow": slow}), goals
            )
        assert pools_built == [("fast", 3), ("slow", 1), ("slow", 2)]
        assert cache.stats()["rows.size"] == 2
        assert cache.stats()["rows.hits"] == 2

    def test_disabled_cache_builds_fresh_pools(self, pools_built):
        cache = EvaluationCache(enabled=False)
        evaluator = GoalEvaluator(make_performance(), cache=cache)
        goals = PerformabilityGoals(max_waiting_time=10.0)
        for slow in (1, 2):
            evaluator.assess(
                SystemConfiguration({"fast": 3, "slow": slow}), goals
            )
        assert pools_built == [
            ("fast", 3), ("slow", 1), ("fast", 3), ("slow", 2)
        ]


class TestAssessmentEviction:
    def test_assessments_are_bounded(self, monkeypatch):
        monkeypatch.setattr(goals_module, "MAX_ASSESSMENTS", 8)
        evaluator = GoalEvaluator(make_performance())
        goals = PerformabilityGoals(max_waiting_time=1e6)
        candidates = [
            SystemConfiguration({"fast": fast, "slow": slow})
            for fast in range(1, 5)
            for slow in range(1, 5)
        ]
        for configuration in candidates:
            evaluator.assess(configuration, goals)
        assert evaluator.evaluation_count == 16
        # The 8 most recent assessments are memoized ...
        for configuration in candidates[8:]:
            evaluator.assess(configuration, goals)
        assert evaluator.evaluation_count == 16
        # ... and the 8 oldest were evicted.
        evaluator.assess(candidates[0], goals)
        assert evaluator.evaluation_count == 17


class TestRows:
    def test_equal_inputs_share_one_row(self):
        cache = EvaluationCache()
        policies = (
            RepairPolicy.INDEPENDENT, DegradedStatePolicy.CONDITIONAL, None
        )
        twin = ServerTypeSpec(
            "fast", 0.05, failure_rate=0.001, repair_rate=0.1
        )
        row = cache.row(FAST, 2.4, *policies)
        assert cache.row(twin, 2.4, *policies) is row
        assert cache.row(FAST, 2.5, *policies) is not row
        assert cache.row(
            FAST, 2.4, RepairPolicy.SINGLE_CREW, *policies[1:]
        ) is not row

    def test_rows_are_bounded(self, monkeypatch):
        from repro.core import evaluation_cache

        monkeypatch.setattr(evaluation_cache, "MAX_ROWS", 2)
        cache = EvaluationCache()
        policies = (
            RepairPolicy.INDEPENDENT, DegradedStatePolicy.CONDITIONAL, None
        )
        first = cache.row(FAST, 1.0, *policies)
        cache.row(FAST, 2.0, *policies)
        cache.row(FAST, 3.0, *policies)
        assert cache.stats()["rows.size"] == 2
        assert cache.stats()["evictions"] == 1
        assert cache.row(FAST, 1.0, *policies) is not first

    def test_evaluator_validates_before_it_counts(self, counters):
        evaluator = GoalEvaluator(make_performance())
        goals = PerformabilityGoals(max_waiting_time=10.0)
        for _ in range(3):
            with pytest.raises(ValidationError, match="at least one"):
                evaluator.assess(
                    SystemConfiguration({"fast": 0, "slow": 1}), goals
                )
        assert evaluator.evaluation_count == 0
        assert counters() == {}

    def test_evaluator_rejects_unknown_types(self, counters):
        evaluator = GoalEvaluator(make_performance())
        goals = PerformabilityGoals(max_waiting_time=10.0)
        with pytest.raises(ValidationError, match="bogus"):
            evaluator.assess(
                SystemConfiguration({"fast": 1, "slow": 1, "bogus": 7}),
                goals,
            )
        assert evaluator.evaluation_count == 0
        assert counters() == {}


def assessment_values(assessment):
    performability = assessment.performability
    return (
        tuple(sorted(assessment.configuration.replicas.items())),
        assessment.satisfied,
        assessment.unavailability,
        tuple(sorted(assessment.per_type_unavailability.items())),
        tuple(sorted(assessment.utilizations.items())),
        tuple(sorted(performability.expected_waiting_times.items()))
        if performability is not None else None,
    )


class TestCachedEqualsUncached:
    """The cache must change performance only, never a single bit of
    output, for every search algorithm."""

    GOALS = PerformabilityGoals(
        max_waiting_time=0.5, max_unavailability=1e-4
    )
    CONSTRAINTS = ReplicationConstraints(
        maximum={"fast": 4, "slow": 4}, max_total_servers=8
    )

    @pytest.mark.parametrize(
        "search,kwargs",
        [
            (greedy_configuration, {}),
            (exhaustive_configuration, {}),
            (branch_and_bound_configuration, {}),
            (simulated_annealing_configuration,
             {"iterations": 120, "seed": 3}),
        ],
        ids=["greedy", "exhaustive", "branch_and_bound", "annealing"],
    )
    def test_identical_recommendation(self, search, kwargs):
        cached = search(
            GoalEvaluator(make_performance(), cache=EvaluationCache()),
            self.GOALS, self.CONSTRAINTS, **kwargs,
        )
        uncached = search(
            GoalEvaluator(
                make_performance(), cache=EvaluationCache(enabled=False)
            ),
            self.GOALS, self.CONSTRAINTS, **kwargs,
        )
        assert cached.cost == uncached.cost
        assert cached.configuration.replicas == uncached.configuration.replicas
        assert (assessment_values(cached.assessment)
                == assessment_values(uncached.assessment))

    def test_shared_cache_across_algorithms_reuses_terms(self):
        cache = EvaluationCache()
        performance = make_performance()
        exhaustive = exhaustive_configuration(
            GoalEvaluator(performance, cache=cache),
            self.GOALS, self.CONSTRAINTS,
        )
        before = cache.stats()
        bounded = branch_and_bound_configuration(
            GoalEvaluator(performance, cache=cache),
            self.GOALS, self.CONSTRAINTS,
        )
        assert bounded.cost == exhaustive.cost
        # Branch-and-bound re-visits configurations the exhaustive pass
        # already assessed; with a shared cache every term it reads was
        # built by that pass, while its own evaluations are counted.
        after = cache.stats()
        assert after["type_terms.misses"] == before["type_terms.misses"]
        assert after["type_terms.hits"] > before["type_terms.hits"]
        assert bounded.evaluations > 0

    def test_shared_cache_halves_the_work_on_five_types(self, counters):
        # The four algorithms in turn on the five-type landscape, every
        # evaluator on one cache: each waiting-time point is computed
        # once, so the shared cache computes at least 2x fewer than the
        # uncached path (25 against 23,860 when this test was written).
        performance = PerformanceModel(
            extended_server_types(),
            Workload([
                WorkloadItem(ecommerce_workflow(), 0.3),
                WorkloadItem(order_processing_workflow(), 0.15),
                WorkloadItem(loan_workflow(), 0.1),
            ]),
        )
        goals = PerformabilityGoals(
            max_waiting_time=0.2, max_unavailability=1e-5
        )
        constraints = ReplicationConstraints(
            maximum={name: 4 for name in performance.server_types.names},
            max_total_servers=20,
        )
        searches = (
            (greedy_configuration, {}),
            (exhaustive_configuration, {}),
            (branch_and_bound_configuration, {}),
            (simulated_annealing_configuration,
             {"iterations": 1000, "cooling": 0.999, "seed": 13}),
        )

        def run(cache):
            obs.reset()
            results = []
            for search, kwargs in searches:
                found = search(
                    GoalEvaluator(performance, cache=cache),
                    goals, constraints, **kwargs,
                )
                results.append(
                    (found.cost, assessment_values(found.assessment))
                )
            return results, counters()["performance.waiting_time_points"]

        uncached, uncached_points = run(EvaluationCache(enabled=False))
        cached, cached_points = run(EvaluationCache())
        assert cached == uncached
        assert 0 < 2 * cached_points <= uncached_points


class TestGoalsIdentityAliasing:
    """Regression: assessments were keyed by ``id(goals)``, and CPython
    recycles ids after garbage collection, so a dropped goals object
    could alias a brand-new one with different thresholds."""

    def test_rebuilt_goals_never_alias_stale_assessments(self):
        evaluator = GoalEvaluator(make_performance())
        configuration = SystemConfiguration({"fast": 1, "slow": 2})
        results = []
        for threshold in (1e-9, 1e6, 1e-9, 1e6):
            goals = PerformabilityGoals(max_waiting_time=threshold)
            results.append(
                evaluator.assess(configuration, goals).satisfied
            )
            # Drop the goals object and collect, encouraging id reuse
            # for the next iteration's goals — the old failure mode.
            del goals
            gc.collect()
        assert results == [False, True, False, True]

    def test_equal_valued_goals_share_one_entry(self):
        evaluator = GoalEvaluator(make_performance())
        configuration = SystemConfiguration({"fast": 1, "slow": 2})
        first = evaluator.assess(
            configuration, PerformabilityGoals(max_waiting_time=0.5)
        )
        count = evaluator.evaluation_count
        second = evaluator.assess(
            configuration, PerformabilityGoals(max_waiting_time=0.5)
        )
        assert second is first
        assert evaluator.evaluation_count == count


#: Model variants a recalibration can produce: nothing moved, one
#: type's service moments, one type's failure rate, the arrival rate
#: (which moves every type's total request rate and no spec).
VARIANTS = {
    "unchanged": make_performance(),
    "moments": make_performance(fast_service=0.07),
    "failure": make_performance(slow_failure=0.02),
    "arrival": make_performance(arrival_rate=1.1),
}

#: Every repair x degraded policy, PENALTY at two penalties.
EVALUATOR_POLICIES = [
    (repair, degraded, penalty)
    for repair in RepairPolicy
    for degraded, penalty in (
        (DegradedStatePolicy.CONDITIONAL, None),
        (DegradedStatePolicy.INFINITE, None),
        (DegradedStatePolicy.PENALTY, 50.0),
        (DegradedStatePolicy.PENALTY, 80.0),
    )
]

STEPS = [
    (variant, policies)
    for variant in VARIANTS
    for policies in EVALUATOR_POLICIES
]

candidates = st.builds(
    lambda fast, slow: SystemConfiguration({"fast": fast, "slow": slow}),
    st.integers(1, 4), st.integers(1, 4),
)


class TestSharedAcrossModels:
    """One cache serves every model variant and policy it meets.

    Rows are keyed by every input of a term, so evaluators of moved
    models and other policies interleaved through one shared cache
    assess exactly like cold evaluators, with nothing invalidated.
    """

    GOALS = PerformabilityGoals(max_waiting_time=10.0, max_unavailability=1e-4)

    @settings(max_examples=25, deadline=None)
    @given(
        order=st.permutations(STEPS),
        configurations=st.lists(candidates, min_size=1, max_size=3),
    )
    def test_interleaved_models_equal_cold(self, order, configurations):
        cache = EvaluationCache()
        for variant, (repair, degraded, penalty) in order:
            warm, cold = (
                GoalEvaluator(
                    VARIANTS[variant],
                    repair_policy=repair,
                    degraded_policy=degraded,
                    penalty_waiting_time=penalty,
                    cache=shared,
                )
                for shared in (cache, None)
            )
            for configuration in configurations:
                # repr round-trips every float: equal reprs, equal bits.
                assert repr(warm.assess(configuration, self.GOALS)) == repr(
                    cold.assess(configuration, self.GOALS)
                )
