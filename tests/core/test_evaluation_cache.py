"""Tests for the shared evaluation-cache layer (configuration search)."""

import gc

import pytest

from repro.core.availability import RepairPolicy
from repro.core.configuration import (
    ReplicationConstraints,
    branch_and_bound_configuration,
    exhaustive_configuration,
    greedy_configuration,
    simulated_annealing_configuration,
)
from repro.core import evaluation_cache
from repro.core.evaluation_cache import (
    BoundedCache,
    EvaluationCache,
    model_fingerprint,
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
from repro.core.workflow_model import WorkflowDefinition, WorkflowState
from repro.exceptions import ValidationError


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


class TestFingerprintBinding:
    def test_same_fingerprint_rebinds_quietly(self):
        cache = EvaluationCache()
        performance = make_performance()
        GoalEvaluator(performance, cache=cache)
        GoalEvaluator(make_performance(), cache=cache)  # equal values

    def test_different_model_raises(self):
        cache = EvaluationCache()
        GoalEvaluator(make_performance(arrival_rate=0.8), cache=cache)
        with pytest.raises(ValidationError):
            GoalEvaluator(make_performance(arrival_rate=0.9), cache=cache)

    def test_clear_drops_binding(self):
        cache = EvaluationCache()
        GoalEvaluator(make_performance(arrival_rate=0.8), cache=cache)
        cache.clear()
        GoalEvaluator(make_performance(arrival_rate=0.9), cache=cache)

    def test_fingerprint_reflects_service_times(self):
        first = model_fingerprint(make_performance(fast_service=0.05))
        second = model_fingerprint(make_performance(fast_service=0.06))
        assert first != second
        assert first == model_fingerprint(make_performance(fast_service=0.05))


class TestWaitingCurves:
    def test_curve_grows_monotonically(self):
        cache = EvaluationCache()
        computed = []

        def compute(n):
            computed.append(n)
            return float(n)

        short = cache.waiting_curve("fast", 2, compute)
        longer = cache.waiting_curve("fast", 4, compute)
        assert list(short) == [0.0, 1.0, 2.0]
        assert list(longer) == [0.0, 1.0, 2.0, 3.0, 4.0]
        # The prefix 0..2 was computed once, never recomputed.
        assert computed == [0, 1, 2, 3, 4]
        assert cache.curve_points_computed == 5

    def test_prefix_request_is_a_pure_hit(self):
        cache = EvaluationCache()
        cache.waiting_curve("fast", 3, float)
        again = cache.waiting_curve("fast", 1, pytest.fail)
        assert list(again) == [0.0, 1.0]
        assert cache.curve_hits == 1

    def test_returned_array_is_a_copy(self):
        cache = EvaluationCache()
        first = cache.waiting_curve("fast", 2, float)
        first[0] = 99.0
        second = cache.waiting_curve("fast", 2, float)
        assert second[0] == 0.0

    def test_disabled_cache_always_computes(self, monkeypatch):
        cache = EvaluationCache(enabled=False)
        calls = []

        def compute(n):
            calls.append(n)
            return float(n)

        cache.waiting_curve("fast", 1, compute)
        cache.waiting_curve("fast", 1, compute)
        assert calls == [0, 1, 0, 1]
        assert cache.curve_hits == 0

        # Terms too: every candidate recomputes every type's term.
        terms_built = []
        real_type_term = evaluation_cache.type_term

        def spy(performance, type_index, pool, waits, *policy):
            terms_built.append((type_index, pool.count))
            return real_type_term(performance, type_index, pool, waits, *policy)

        monkeypatch.setattr(evaluation_cache, "type_term", spy)
        evaluator = GoalEvaluator(make_performance(), cache=cache)
        goals = PerformabilityGoals(max_waiting_time=10.0)
        first = SystemConfiguration({"fast": 2, "slow": 2})
        second = SystemConfiguration({"fast": 2, "slow": 3})
        for configuration in (first, first, second):
            evaluator.assess(configuration, goals)
        assert terms_built == [
            (0, 2), (1, 2), (0, 2), (1, 2), (0, 2), (1, 3)
        ]
        stats = cache.stats()
        assert stats["type_terms.size"] == 0
        assert stats["type_terms.hits"] == stats["type_terms.misses"] == 0


class TestPoolSharing:
    def test_same_spec_count_policy_shares_one_pool(self):
        cache = EvaluationCache()
        spec = ServerTypeSpec(
            "fast", 0.05, failure_rate=0.001, repair_rate=0.1
        )
        first = cache.pool(spec, 3, RepairPolicy.INDEPENDENT)
        second = cache.pool(spec, 3, RepairPolicy.INDEPENDENT)
        assert first is second
        third = cache.pool(spec, 2, RepairPolicy.INDEPENDENT)
        assert third is not first

    def test_disabled_cache_builds_fresh_pools(self):
        cache = EvaluationCache(enabled=False)
        spec = ServerTypeSpec(
            "fast", 0.05, failure_rate=0.001, repair_rate=0.1
        )
        first = cache.pool(spec, 3, RepairPolicy.INDEPENDENT)
        second = cache.pool(spec, 3, RepairPolicy.INDEPENDENT)
        assert first is not second


class TestAssessmentEviction:
    def test_assessments_are_bounded(self):
        cache = EvaluationCache(max_assessments=8)
        evaluator = GoalEvaluator(make_performance(), cache=cache)
        goals = PerformabilityGoals(max_waiting_time=1e6)
        for fast in range(1, 5):
            for slow in range(1, 5):
                evaluator.assess(
                    SystemConfiguration({"fast": fast, "slow": slow}),
                    goals,
                )
        assert cache.stats()["assessments.size"] == 8
        assert cache.stats()["evictions"] == 8


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

    def test_shared_cache_across_algorithms_reuses_assessments(self):
        cache = EvaluationCache()
        performance = make_performance()
        exhaustive = exhaustive_configuration(
            GoalEvaluator(performance, cache=cache),
            self.GOALS, self.CONSTRAINTS,
        )
        before = cache.stats()["assessments.hits"]
        bounded = branch_and_bound_configuration(
            GoalEvaluator(performance, cache=cache),
            self.GOALS, self.CONSTRAINTS,
        )
        assert bounded.cost == exhaustive.cost
        # Branch-and-bound re-visits configurations the exhaustive pass
        # already assessed; with a shared cache it does no model work
        # for them.
        assert cache.stats()["assessments.hits"] > before
        assert bounded.evaluations == 0


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


class TestRebind:
    """Incremental re-binding after calibration drift."""

    def _warm(self, cache, arrival_rate=0.8, fast_service=0.05):
        performance = make_performance(arrival_rate, fast_service)
        evaluator = GoalEvaluator(performance, cache=cache)
        goals = PerformabilityGoals(max_waiting_time=10.0)
        evaluator.assess(SystemConfiguration({"fast": 2, "slow": 2}), goals)
        return model_fingerprint(performance)

    def test_unbound_cache_just_binds(self):
        cache = EvaluationCache()
        performance = make_performance()
        report = cache.rebind(model_fingerprint(performance))
        assert cache.fingerprint == model_fingerprint(performance)
        assert report["curves_dropped"] == 0

    def test_identical_fingerprint_keeps_everything(self):
        cache = EvaluationCache()
        fingerprint = self._warm(cache)
        before = cache.stats()
        report = cache.rebind(fingerprint)
        assert report["curves_dropped"] == 0
        assert report["assessments_dropped"] == 0
        assert cache.stats()["waiting_curve.types"] == (
            before["waiting_curve.types"]
        )
        assert cache.rebinds == 0  # degenerate rebind is not counted

    def test_changed_service_time_drops_only_that_curve(self):
        cache = EvaluationCache()
        self._warm(cache, fast_service=0.05)
        drifted = make_performance(fast_service=0.07)
        report = cache.rebind(model_fingerprint(drifted))
        # "fast" moved, "slow" did not -- but the workload totals also
        # change for both types only if arrival rate moved; here only
        # the fast type's moments changed, so slow's curve survives.
        assert report["curves_dropped"] == 1
        assert report["curves_kept"] == 1
        # Failure/repair rates unchanged -> every pool marginal is
        # re-keyed and survives.
        assert report["pools_dropped"] == 0
        assert report["pools_kept"] >= 1
        assert report["assessments_dropped"] >= 1
        assert cache.rebinds == 1
        assert cache.stats()["rebinds"] == 1

    def test_changed_arrival_rate_drops_all_curves_keeps_pools(self):
        cache = EvaluationCache()
        self._warm(cache, arrival_rate=0.8)
        drifted = make_performance(arrival_rate=1.1)
        report = cache.rebind(model_fingerprint(drifted))
        assert report["curves_kept"] == 0
        assert report["curves_dropped"] == 2
        assert report["pools_dropped"] == 0

    def test_rebound_cache_produces_cold_results(self):
        """After a rebind the cache serves the drifted model correctly."""
        cache = EvaluationCache()
        self._warm(cache, fast_service=0.05)
        drifted = make_performance(fast_service=0.07)
        cache.rebind(model_fingerprint(drifted))
        warm = GoalEvaluator(drifted, cache=cache)
        cold = GoalEvaluator(make_performance(fast_service=0.07))
        goals = PerformabilityGoals(max_waiting_time=10.0)
        configuration = SystemConfiguration({"fast": 2, "slow": 2})
        a = warm.assess(configuration, goals)
        b = cold.assess(configuration, goals)
        assert a.satisfied == b.satisfied
        assert a.unavailability == b.unavailability
        assert warm.evaluation_count == cold.evaluation_count

        # Each step below leaves every cached term stale; the next
        # assessment of the same candidates must equal a cold one bitwise.
        def assert_cold(*model_args):
            warm = GoalEvaluator(make_performance(*model_args), cache=cache)
            cold = GoalEvaluator(make_performance(*model_args))
            for fast, slow in ((2, 2), (3, 1)):
                candidate = SystemConfiguration({"fast": fast, "slow": slow})
                assert repr(warm.assess(candidate, goals)) == repr(
                    cold.assess(candidate, goals)
                )

        # One type's failure rate and the other's service moments move.
        cache.rebind(model_fingerprint(make_performance(0.8, 0.06, 0.02)))
        assert_cold(0.8, 0.06, 0.02)
        cache.clear()
        assert_cold(0.8, 0.05, 0.03)
        cache.invalidate("drift")
        assert_cold(0.9, 0.05, 0.03)

    def test_clear_assessments_keeps_curves(self):
        cache = EvaluationCache()
        self._warm(cache)
        before = cache.stats()
        dropped = cache.clear_assessments()
        assert dropped == before["assessments.size"]
        after = cache.stats()
        assert after["assessments.size"] == 0
        assert after["waiting_curve.types"] == (
            before["waiting_curve.types"]
        )
        assert after["pool_marginals.size"] == (
            before["pool_marginals.size"]
        )
