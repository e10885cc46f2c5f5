"""Tests for performability goals and their evaluation (Section 7.1)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.availability import (
    AvailabilityModel,
    RepairPolicy,
    ServerPoolAvailability,
)
from repro.core.evaluation_cache import EvaluationCache
from repro.core.goals import (
    GoalAssessment,
    GoalEvaluator,
    GoalViolation,
    PerformabilityGoals,
)
from repro.core.model_types import ActivitySpec, ServerTypeIndex, ServerTypeSpec
from repro.core.performability import (
    DegradedStatePolicy,
    PerformabilityModel,
    PerformabilityReport,
)
from repro.core.performance import (
    PerformanceModel,
    SystemConfiguration,
    Workload,
    WorkloadItem,
)
from repro.core.workflow_model import WorkflowDefinition, WorkflowState
from repro.exceptions import ValidationError


@pytest.fixture
def evaluator():
    types = ServerTypeIndex(
        [
            ServerTypeSpec(
                "fast", 0.05, failure_rate=0.001, repair_rate=0.1
            ),
            ServerTypeSpec(
                "slow", 0.3, failure_rate=0.01, repair_rate=0.1
            ),
        ]
    )
    activity = ActivitySpec(
        "act", 5.0, loads={"fast": 3.0, "slow": 2.0}
    )
    workflow = WorkflowDefinition(
        name="wf",
        states=(WorkflowState("only", activity=activity),),
        transitions={},
        initial_state="only",
    )
    performance = PerformanceModel(
        types, Workload([WorkloadItem(workflow, 0.8)])
    )
    return GoalEvaluator(performance)


class TestGoalValidation:
    def test_requires_at_least_one_goal(self):
        with pytest.raises(ValidationError):
            PerformabilityGoals()

    def test_thresholds_must_be_positive(self):
        with pytest.raises(ValidationError):
            PerformabilityGoals(max_waiting_time=0.0)
        with pytest.raises(ValidationError):
            PerformabilityGoals(max_waiting_times_per_type={"x": -1.0})

    def test_unavailability_in_unit_interval(self):
        with pytest.raises(ValidationError):
            PerformabilityGoals(max_unavailability=1.0)
        with pytest.raises(ValidationError):
            PerformabilityGoals(max_unavailability=0.0)

    def test_per_type_threshold_overrides_global(self):
        goals = PerformabilityGoals(
            max_waiting_time=1.0,
            max_waiting_times_per_type={"slow": 5.0},
        )
        assert goals.waiting_time_threshold("slow") == 5.0
        assert goals.waiting_time_threshold("fast") == 1.0

    def test_unconstrained_type_is_infinite(self):
        goals = PerformabilityGoals(
            max_waiting_times_per_type={"slow": 5.0}
        )
        assert math.isinf(goals.waiting_time_threshold("fast"))

    def test_goal_kind_flags(self):
        availability_only = PerformabilityGoals(max_unavailability=0.01)
        assert availability_only.has_availability_goal
        assert not availability_only.has_performance_goal
        perf_only = PerformabilityGoals(max_waiting_time=1.0)
        assert perf_only.has_performance_goal
        assert not perf_only.has_availability_goal


class TestAssessment:
    def test_generous_goals_satisfied(self, evaluator):
        goals = PerformabilityGoals(
            max_waiting_time=1e6, max_unavailability=0.9
        )
        assessment = evaluator.assess(
            SystemConfiguration({"fast": 1, "slow": 2}), goals
        )
        assert assessment.satisfied
        assert not assessment.violations

    def test_tight_waiting_goal_violated(self, evaluator):
        goals = PerformabilityGoals(max_waiting_time=1e-9)
        assessment = evaluator.assess(
            SystemConfiguration({"fast": 1, "slow": 2}), goals
        )
        assert not assessment.satisfied
        assert not assessment.performance_satisfied
        assert assessment.availability_satisfied  # no availability goal
        kinds = {violation.kind for violation in assessment.violations}
        assert kinds == {"waiting_time"}

    def test_tight_availability_goal_violated(self, evaluator):
        goals = PerformabilityGoals(max_unavailability=1e-12)
        assessment = evaluator.assess(
            SystemConfiguration({"fast": 1, "slow": 1}), goals
        )
        assert not assessment.availability_satisfied
        assert assessment.performance_satisfied

    def test_violation_records_actual_and_threshold(self, evaluator):
        goals = PerformabilityGoals(max_unavailability=1e-12)
        assessment = evaluator.assess(
            SystemConfiguration({"fast": 1, "slow": 1}), goals
        )
        violation = assessment.violations[0]
        assert violation.kind == "unavailability"
        assert violation.actual > violation.threshold
        assert "unavailability" in str(violation)

    def test_availability_only_goal_skips_performability(self, evaluator):
        goals = PerformabilityGoals(max_unavailability=0.5)
        assessment = evaluator.assess(
            SystemConfiguration({"fast": 1, "slow": 1}), goals
        )
        assert assessment.performability is None

    def test_per_type_unavailability_reported(self, evaluator):
        goals = PerformabilityGoals(max_unavailability=0.5)
        assessment = evaluator.assess(
            SystemConfiguration({"fast": 1, "slow": 1}), goals
        )
        assert set(assessment.per_type_unavailability) == {"fast", "slow"}

    def test_evaluation_cache(self, evaluator):
        goals = PerformabilityGoals(max_waiting_time=1.0)
        configuration = SystemConfiguration({"fast": 1, "slow": 2})
        first = evaluator.assess(configuration, goals)
        count = evaluator.evaluation_count
        second = evaluator.assess(configuration, goals)
        assert second is first
        assert evaluator.evaluation_count == count


class TestRequiringAllMetrics:
    def test_availability_only_goal_gains_free_waiting_axis(self):
        goals = PerformabilityGoals(max_unavailability=1e-5)
        assert not goals.has_performance_goal
        full = goals.requiring_all_metrics()
        assert full.has_performance_goal
        assert math.isinf(full.max_waiting_time)
        assert full.max_unavailability == goals.max_unavailability

    def test_noop_when_performance_goal_present(self):
        goals = PerformabilityGoals(
            max_waiting_time=0.2, max_unavailability=1e-5
        )
        assert goals.requiring_all_metrics() is goals

    def test_unbounded_axis_never_violates(self, evaluator):
        # The inf waiting bound makes the performability report appear
        # on every assessment without ever adding a violation.
        goals = PerformabilityGoals(max_unavailability=1e-2)
        assessment = evaluator.assess(
            SystemConfiguration({"fast": 2, "slow": 2}),
            goals.requiring_all_metrics(),
        )
        assert assessment.performability is not None
        assert assessment.satisfied == evaluator.assess(
            SystemConfiguration({"fast": 2, "slow": 2}), goals
        ).satisfied


class TestSaturatedTypes:
    def test_stable_configuration_has_none(self, evaluator):
        assessment = evaluator.assess(
            SystemConfiguration({"fast": 2, "slow": 2}),
            PerformabilityGoals(max_waiting_time=10.0),
        )
        assert assessment.saturated_types == ()

    def test_saturated_type_listed(self, evaluator):
        # slow: 0.8 * 2 req/u * 0.3 = 0.48 per server with one replica
        # is fine, but fast with load 3.0 at one replica gives
        # 0.8 * 3 * 0.05 = 0.12 — build genuine saturation instead.
        types = ServerTypeIndex(
            [ServerTypeSpec("hot", 0.5, failure_rate=0.001,
                            repair_rate=0.1)]
        )
        activity = ActivitySpec("act", 5.0, loads={"hot": 3.0})
        workflow = WorkflowDefinition(
            name="wf",
            states=(WorkflowState("only", activity=activity),),
            transitions={},
            initial_state="only",
        )
        model = PerformanceModel(
            types, Workload([WorkloadItem(workflow, 0.8)])
        )
        saturated = GoalEvaluator(model).assess(
            SystemConfiguration({"hot": 1}),
            PerformabilityGoals(max_waiting_time=10.0),
        )
        # utilization 0.8 * 3 * 0.5 = 1.2 >= 1: structurally saturated.
        assert saturated.saturated_types == ("hot",)
        assert not saturated.satisfied


# ----------------------------------------------------------------------
# Bitwise oracle: the term fold against the per-candidate composition
# ----------------------------------------------------------------------
def reference_assessment(
    performance, configuration, goals, repair_policy, degraded_policy,
    penalty_waiting_time,
):
    """A candidate assessed by composing the Section 5/6 models.

    Builds the per-type pools of the product form, runs the marginal
    performability loop over each type's waiting curve, and reads the
    failure-free waiting times and utilizations of the whole
    configuration from the performance model, in the order and with the
    operations the models used before assessments became a fold over
    cached per-type terms.
    """
    index = performance.server_types
    names = index.names
    counts = configuration.as_vector(index)
    if np.any(counts < 1):
        raise ValidationError(
            "every server type needs at least one configured replica; "
            f"got {configuration}"
        )
    pools = {
        spec.name: ServerPoolAvailability(
            spec=spec, count=int(counts[i]), policy=repair_policy
        )
        for i, spec in enumerate(index.specs)
    }
    system_availability = 1.0
    for pool in pools.values():
        system_availability *= pool.availability
    unavailability = 1.0 - system_availability
    per_type = {name: pool.unavailability for name, pool in pools.items()}

    violations = []
    if goals.max_unavailability is not None:
        if unavailability > goals.max_unavailability:
            violations.append(GoalViolation(
                "unavailability", None, unavailability,
                goals.max_unavailability,
            ))
    for name, value in per_type.items():
        threshold = goals.type_unavailability_threshold(name)
        if value > threshold:
            violations.append(GoalViolation(
                "type_unavailability", name, value, threshold
            ))

    report = None
    if goals.has_performance_goal:
        expected = np.zeros(len(names))
        feasible_probability = 1.0
        for i, name in enumerate(names):
            marginal = np.asarray(
                pools[name].state_probabilities, dtype=float
            )
            waits = np.array(
                [
                    performance.waiting_time_for_count(i, n)
                    for n in range(int(counts[i]) + 1)
                ],
                dtype=float,
            )
            finite = np.isfinite(waits)
            finite_mass = float(marginal[finite].sum())
            infinite_mass = 1.0 - finite_mass
            weighted = float(marginal[finite] @ waits[finite])
            feasible_probability *= finite_mass
            if degraded_policy is DegradedStatePolicy.CONDITIONAL:
                if finite_mass <= 0.0:
                    expected[i] = math.inf
                else:
                    expected[i] = weighted / finite_mass
            elif degraded_policy is DegradedStatePolicy.PENALTY:
                expected[i] = (
                    weighted + infinite_mass * penalty_waiting_time
                )
            elif bool(np.any(marginal[~finite] > 0.0)):
                expected[i] = math.inf
            else:
                expected[i] = weighted
        failure_free = performance.waiting_times(configuration)
        report = PerformabilityReport(
            configuration=configuration,
            expected_waiting_times={
                name: float(expected[i]) for i, name in enumerate(names)
            },
            failure_free_waiting_times={
                name: float(failure_free[i]) for i, name in enumerate(names)
            },
            feasible_probability=feasible_probability,
            unavailability=unavailability,
            policy=degraded_policy,
        )
        for name, value in report.expected_waiting_times.items():
            threshold = goals.waiting_time_threshold(name)
            if value > threshold:
                violations.append(GoalViolation(
                    "waiting_time", name, value, threshold
                ))

    utilizations = performance.utilizations(configuration)
    return GoalAssessment(
        configuration=configuration,
        goals=goals,
        violations=tuple(violations),
        performability=report,
        unavailability=unavailability,
        per_type_unavailability=per_type,
        utilizations={
            name: float(utilizations[i]) for i, name in enumerate(names)
        },
    )


#: Five types whose single-replica utilization sits exactly at 1 (edge),
#: beyond it (hot), just below it (near), well below (calm, with a
#: non-exponential second moment), and at zero load (idle).
ORACLE_TYPES = ServerTypeIndex([
    ServerTypeSpec("edge", 0.5, failure_rate=0.05, repair_rate=0.5),
    ServerTypeSpec("hot", 0.5, failure_rate=0.02, repair_rate=0.4),
    ServerTypeSpec("near", 0.999999, failure_rate=0.01, repair_rate=0.3),
    ServerTypeSpec("calm", 0.2, second_moment_service_time=0.12,
                   failure_rate=0.1, repair_rate=1.0),
    ServerTypeSpec("idle", 0.1, failure_rate=0.001, repair_rate=1.0),
])
ORACLE_MODEL = PerformanceModel.from_request_totals(
    ORACLE_TYPES, [2.0, 3.0, 1.0, 0.4, 0.0]
)


@pytest.fixture(scope="module")
def oracle_cache():
    """One cache for every example and policy of the oracle tests.

    Terms are keyed by policy, and later examples read terms that
    earlier ones computed.
    """
    return EvaluationCache()

ORACLE_GOALS = [
    PerformabilityGoals(max_waiting_time=0.5, max_unavailability=1e-3),
    PerformabilityGoals(
        max_waiting_times_per_type={"calm": 0.01, "near": 1e3},
        max_unavailability_per_type={"hot": 1e-2},
    ),
    PerformabilityGoals(max_unavailability=1e-2),
    PerformabilityGoals(max_unavailability=1e-2).requiring_all_metrics(),
]

#: At most 3 * 4 * 3 * 4 * 3 = 432 joint states.
oracle_configurations = st.builds(
    lambda *counts: SystemConfiguration(dict(zip(ORACLE_TYPES.names, counts))),
    st.integers(1, 2), st.integers(1, 3), st.integers(1, 2),
    st.integers(1, 3), st.integers(1, 2),
)

POLICIES = [
    (repair, degraded)
    for repair in RepairPolicy
    for degraded in DegradedStatePolicy
]


@pytest.mark.parametrize(
    "repair_policy, degraded_policy", POLICIES,
    ids=[f"{r.value}-{d.value}" for r, d in POLICIES],
)
class TestTermFoldOracle:
    """The fold over cached per-type terms equals the composition."""

    @staticmethod
    def _evaluator(repair_policy, degraded_policy, cache):
        penalty = (
            50.0 if degraded_policy is DegradedStatePolicy.PENALTY else None
        )
        return penalty, GoalEvaluator(
            ORACLE_MODEL,
            repair_policy=repair_policy,
            degraded_policy=degraded_policy,
            penalty_waiting_time=penalty,
            cache=cache,
        )

    @settings(max_examples=20, deadline=None)
    @given(
        configuration=oracle_configurations,
        goals=st.sampled_from(ORACLE_GOALS),
    )
    def test_fold_equals_composition(
        self, repair_policy, degraded_policy, oracle_cache, configuration,
        goals,
    ):
        penalty, evaluator = self._evaluator(
            repair_policy, degraded_policy, oracle_cache
        )
        assessment = evaluator.assess(configuration, goals)
        reference = reference_assessment(
            ORACLE_MODEL, configuration, goals, repair_policy,
            degraded_policy, penalty,
        )
        assert assessment == reference
        # repr round-trips every float, so equal reprs are equal bits.
        assert repr(assessment) == repr(reference)
        if assessment.performability is None:
            return

        model = PerformabilityModel(
            ORACLE_MODEL,
            AvailabilityModel(
                ORACLE_TYPES, configuration, policy=repair_policy
            ),
            policy=degraded_policy,
            penalty_waiting_time=penalty,
        )
        marginal = model.expected_waiting_times(method="marginal")
        assert repr(marginal) == repr(assessment.performability)
        joint = model.expected_waiting_times(method="joint")
        assert marginal.feasible_probability == pytest.approx(
            joint.feasible_probability, rel=1e-12, abs=0.0
        )
        if (degraded_policy is DegradedStatePolicy.CONDITIONAL
                and joint.feasible_probability == 0.0):
            # The joint expectation conditions on the whole system
            # being stable, which never happens here; the marginal one
            # conditions per type, so only the saturated types agree.
            assert all(
                math.isinf(value)
                for value in joint.expected_waiting_times.values()
            )
            return
        # PENALTY adds (1 - finite mass) * penalty, and 1 - finite mass
        # cancels to about one ulp of 1.0 when nothing is infinite.
        absolute = 1e-12 * (penalty or 0.0)
        for name, value in joint.expected_waiting_times.items():
            assert marginal.expected_waiting_times[name] == pytest.approx(
                value, rel=1e-12, abs=absolute
            )

    def test_zero_replica_type_still_raises(
        self, repair_policy, degraded_policy, oracle_cache
    ):
        _, evaluator = self._evaluator(
            repair_policy, degraded_policy, oracle_cache
        )
        goals = ORACLE_GOALS[0]
        for missing in ORACLE_TYPES.names:
            replicas = {name: 1 for name in ORACLE_TYPES.names}
            replicas[missing] = 0
            with pytest.raises(ValidationError):
                evaluator.assess(SystemConfiguration(replicas), goals)
        with pytest.raises(ValidationError):
            evaluator.assess(SystemConfiguration({"edge": 1}), goals)

    def test_utilization_edges_are_covered(
        self, repair_policy, degraded_policy, oracle_cache
    ):
        _, evaluator = self._evaluator(
            repair_policy, degraded_policy, oracle_cache
        )
        assessment = evaluator.assess(
            SystemConfiguration(dict.fromkeys(ORACLE_TYPES.names, 1)),
            ORACLE_GOALS[0],
        )
        utilizations = assessment.utilizations
        assert utilizations["edge"] == 1.0
        assert utilizations["hot"] > 1.0
        assert 0.999 < utilizations["near"] < 1.0
        assert assessment.saturated_types == ("edge", "hot")
