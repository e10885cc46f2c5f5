"""Tests for the Section 6 performability model."""

import math

import pytest

from repro.core.availability import AvailabilityModel
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
from repro.core.performability import (
    DegradedStatePolicy,
    PerformabilityModel,
)
from repro.core.workflow_model import WorkflowDefinition, WorkflowState
from repro.exceptions import ValidationError
from repro.queueing import mg1_mean_waiting_time


def build_models(
    arrival_rate=0.5,
    requests=4.0,
    replicas=2,
    failure_rate=0.01,
    repair_rate=1.0,
    service_time=0.2,
):
    """One server type, one single-state workflow: hand-checkable."""
    types = ServerTypeIndex(
        [
            ServerTypeSpec(
                "srv",
                mean_service_time=service_time,
                failure_rate=failure_rate,
                repair_rate=repair_rate,
            )
        ]
    )
    activity = ActivitySpec("act", 10.0, loads={"srv": requests})
    workflow = WorkflowDefinition(
        name="wf",
        states=(WorkflowState("only", activity=activity),),
        transitions={},
        initial_state="only",
    )
    performance = PerformanceModel(
        types, Workload([WorkloadItem(workflow, arrival_rate)])
    )
    availability = AvailabilityModel(
        types, SystemConfiguration({"srv": replicas})
    )
    return types, performance, availability


class TestStateRewards:
    def test_state_waiting_uses_available_replicas(self):
        _, performance, availability = build_models(replicas=2)
        model = PerformabilityModel(performance, availability)
        w2 = model.state_waiting_times((2,))
        w1 = model.state_waiting_times((1,))
        assert w1[0] > w2[0]

    def test_down_state_is_infinite(self):
        _, performance, availability = build_models()
        model = PerformabilityModel(performance, availability)
        assert math.isinf(model.state_waiting_times((0,))[0])
        assert not model.is_state_feasible((0,))

    def test_state_cache_is_used(self):
        _, performance, availability = build_models()
        model = PerformabilityModel(performance, availability)
        first = model.state_waiting_times((1,))
        second = model.state_waiting_times((1,))
        assert first is second

    def test_wrong_state_length_rejected(self):
        _, performance, availability = build_models()
        model = PerformabilityModel(performance, availability)
        with pytest.raises(ValidationError):
            model.state_waiting_times((1, 1))


class TestConditionalPolicy:
    def test_hand_computed_two_replica_expectation(self):
        types, performance, availability = build_models(
            replicas=2, failure_rate=0.05, repair_rate=0.5
        )
        model = PerformabilityModel(performance, availability)
        report = model.expected_waiting_times()

        spec = types.spec("srv")
        total_rate = 0.5 * 4.0  # arrivals * requests per instance
        probabilities = availability.state_probabilities()
        w2 = mg1_mean_waiting_time(
            total_rate / 2, spec.mean_service_time,
            spec.second_moment_service_time,
        )
        w1 = mg1_mean_waiting_time(
            total_rate, spec.mean_service_time,
            spec.second_moment_service_time,
        )
        mass = probabilities[(2,)] + probabilities[(1,)]
        expected = (probabilities[(2,)] * w2 + probabilities[(1,)] * w1) / mass
        assert report.expected_waiting_times["srv"] == pytest.approx(expected)
        assert report.feasible_probability == pytest.approx(mass)

    def test_degradation_factor_at_least_one(self):
        _, performance, availability = build_models(
            replicas=3, failure_rate=0.02
        )
        report = PerformabilityModel(
            performance, availability
        ).expected_waiting_times()
        assert report.degradation_factor("srv") >= 1.0

    def test_failure_free_type_has_no_degradation(self):
        _, performance, availability = build_models(failure_rate=0.0)
        report = PerformabilityModel(
            performance, availability
        ).expected_waiting_times()
        assert report.degradation_factor("srv") == pytest.approx(1.0)
        assert report.feasible_probability == pytest.approx(1.0)

    def test_more_replicas_reduce_expected_waiting(self):
        reports = []
        for replicas in (1, 2, 3):
            _, performance, availability = build_models(
                replicas=replicas, failure_rate=0.05, repair_rate=0.5
            )
            reports.append(
                PerformabilityModel(
                    performance, availability
                ).expected_waiting_times()
            )
        waits = [r.expected_waiting_times["srv"] for r in reports]
        assert waits[0] > waits[1] > waits[2]


class TestPenaltyPolicy:
    def test_penalty_replaces_infinite_states(self):
        _, performance, availability = build_models(
            replicas=1, failure_rate=0.1, repair_rate=0.5
        )
        model = PerformabilityModel(
            performance,
            availability,
            policy=DegradedStatePolicy.PENALTY,
            penalty_waiting_time=100.0,
        )
        report = model.expected_waiting_times()
        probabilities = availability.state_probabilities()
        assert report.expected_waiting_times["srv"] >= (
            probabilities[(0,)] * 100.0
        )
        assert math.isfinite(report.expected_waiting_times["srv"])

    def test_penalty_requires_value(self):
        _, performance, availability = build_models()
        with pytest.raises(ValidationError):
            PerformabilityModel(
                performance, availability,
                policy=DegradedStatePolicy.PENALTY,
            )


class TestInfinitePolicy:
    def test_any_infeasible_mass_makes_result_infinite(self):
        _, performance, availability = build_models(
            replicas=1, failure_rate=0.01
        )
        model = PerformabilityModel(
            performance, availability, policy=DegradedStatePolicy.INFINITE
        )
        report = model.expected_waiting_times()
        assert math.isinf(report.expected_waiting_times["srv"])

    def test_failure_free_system_stays_finite(self):
        _, performance, availability = build_models(failure_rate=0.0)
        model = PerformabilityModel(
            performance, availability, policy=DegradedStatePolicy.INFINITE
        )
        report = model.expected_waiting_times()
        assert math.isfinite(report.expected_waiting_times["srv"])


class TestMarginalFastPath:
    """The per-type marginal evaluation must equal the joint CTMC one."""

    @pytest.mark.parametrize("replicas", [1, 2, 3])
    @pytest.mark.parametrize(
        "policy, penalty",
        [
            (DegradedStatePolicy.CONDITIONAL, None),
            (DegradedStatePolicy.PENALTY, 50.0),
            (DegradedStatePolicy.INFINITE, None),
        ],
    )
    def test_marginal_equals_joint(self, replicas, policy, penalty):
        _, performance, availability = build_models(
            replicas=replicas, failure_rate=0.05, repair_rate=0.5
        )
        model = PerformabilityModel(
            performance, availability, policy=policy,
            penalty_waiting_time=penalty,
        )
        joint = model.expected_waiting_times(method="joint")
        marginal = model.expected_waiting_times(method="marginal")
        for name in joint.expected_waiting_times:
            j = joint.expected_waiting_times[name]
            m = marginal.expected_waiting_times[name]
            if math.isinf(j):
                assert math.isinf(m)
            else:
                assert m == pytest.approx(j, rel=1e-12)
        assert marginal.feasible_probability == pytest.approx(
            joint.feasible_probability, rel=1e-12
        )

    def test_multi_type_marginal_equals_joint(self):
        types = ServerTypeIndex(
            [
                ServerTypeSpec("a", 0.05, failure_rate=0.01,
                               repair_rate=0.3),
                ServerTypeSpec("b", 0.2, failure_rate=0.05,
                               repair_rate=0.5),
                ServerTypeSpec("c", 0.1, failure_rate=0.02,
                               repair_rate=0.4),
            ]
        )
        activity = ActivitySpec(
            "act", 5.0, loads={"a": 3.0, "b": 2.0, "c": 1.0}
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
        availability = AvailabilityModel(
            types, SystemConfiguration({"a": 2, "b": 3, "c": 2})
        )
        model = PerformabilityModel(performance, availability)
        joint = model.expected_waiting_times(method="joint")
        marginal = model.expected_waiting_times(method="marginal")
        for name in types.names:
            assert marginal.expected_waiting_times[name] == pytest.approx(
                joint.expected_waiting_times[name], rel=1e-12
            )

    def test_unknown_method_rejected(self):
        _, performance, availability = build_models()
        model = PerformabilityModel(performance, availability)
        with pytest.raises(ValidationError):
            model.expected_waiting_times(method="magic")


class TestReporting:
    def test_report_contains_unavailability(self):
        _, performance, availability = build_models(failure_rate=0.05)
        report = PerformabilityModel(
            performance, availability
        ).expected_waiting_times()
        assert report.unavailability == pytest.approx(
            availability.unavailability()
        )
        assert "Performability assessment" in report.format_text()

    def test_mismatched_server_types_rejected(self):
        _, performance, _ = build_models()
        other_types = ServerTypeIndex(
            [ServerTypeSpec("other", 0.1, failure_rate=0.1, repair_rate=1.0)]
        )
        other_availability = AvailabilityModel(
            other_types, SystemConfiguration({"other": 1})
        )
        with pytest.raises(ValidationError):
            PerformabilityModel(performance, other_availability)
