"""Tests for parameter calibration from audit trails (Section 7.1).

Hand-computed estimates of small trails, queried from a replayed
:class:`~repro.monitor.stream.StreamingCalibrator`.
"""

import math
import sys

import pytest

from repro.core.model_types import ActivitySpec, ServerTypeIndex, ServerTypeSpec
from repro.core.workflow_model import build_workflow_ctmc
from repro.exceptions import ValidationError
from repro.monitor.audit import (
    TERMINATION,
    AuditTrail,
    InstanceRecord,
    ServiceRequestRecord,
    StateVisitRecord,
)
from repro.monitor.stream import ServiceTimeEstimate
from repro.service.pipeline import calibrate_server_type
from tests.monitor.test_stream import replayed


def build_trail():
    """Hand-crafted trail: a -> b (2/3), a -> end (1/3); b -> end."""
    trail = AuditTrail()
    visits = [
        (1, "a", 0.0, 2.0, "b"),
        (1, "b", 2.0, 5.0, "end"),
        (1, "end", 5.0, 5.1, TERMINATION),
        (2, "a", 1.0, 3.0, "b"),
        (2, "b", 3.0, 6.0, "end"),
        (2, "end", 6.0, 6.1, TERMINATION),
        (3, "a", 2.0, 4.0, "end"),
        (3, "end", 4.0, 4.1, TERMINATION),
    ]
    for instance, state, enter, leave, next_state in visits:
        trail.record_state_visit(
            StateVisitRecord(
                instance_id=instance, workflow_type="wf", state=state,
                entered_at=enter, left_at=leave, next_state=next_state,
            )
        )
    trail.record_instance(InstanceRecord(1, "wf", 0.0, 5.1))
    trail.record_instance(InstanceRecord(2, "wf", 1.0, 6.1))
    trail.record_instance(InstanceRecord(3, "wf", 2.0, 4.1))
    return trail


@pytest.fixture
def stream():
    """The hand-crafted trail, replayed into a streaming calibrator."""
    return replayed(build_trail())


class TestTransitionProbabilities:
    def test_maximum_likelihood_frequencies(self, stream):
        probabilities = stream.transition_probabilities("wf")
        assert probabilities[("a", "b")] == pytest.approx(2.0 / 3.0)
        assert probabilities[("a", "end")] == pytest.approx(1.0 / 3.0)
        assert probabilities[("b", "end")] == pytest.approx(1.0)

    def test_termination_transitions_omitted(self, stream):
        probabilities = stream.transition_probabilities("wf")
        assert all(target != TERMINATION for _, target in probabilities)

    def test_unknown_workflow_rejected(self, stream):
        with pytest.raises(ValidationError):
            stream.transition_probabilities("nope")


class TestResidenceAndTurnaround:
    def test_residence_means(self, stream):
        residence = stream.residence_times("wf")
        assert residence["a"] == pytest.approx(2.0)
        assert residence["b"] == pytest.approx(3.0)

    def test_turnaround_mean(self, stream):
        assert stream.turnaround_time("wf") == pytest.approx(
            (5.1 + 5.1 + 2.1) / 3.0
        )

    def test_arrival_rate(self, stream):
        assert stream.arrival_rate(
            "wf", observation_period=10.0
        ) == pytest.approx(0.3)

    def test_arrival_rate_needs_positive_period(self, stream):
        with pytest.raises(ValidationError):
            stream.arrival_rate("wf", 0.0)

    def test_empty_trail_rejected(self):
        with pytest.raises(ValidationError):
            replayed(AuditTrail()).turnaround_time("wf")


class TestServiceTimes:
    def test_moments_estimated(self):
        trail = AuditTrail()
        for start, duration in [(0.0, 1.0), (2.0, 3.0)]:
            trail.record_service_request(
                ServiceRequestRecord(
                    "srv", "srv#0", start, start + 0.5,
                    start + 0.5 + duration,
                )
            )
        estimates = replayed(trail).service_times()
        estimate = estimates["srv"]
        assert estimate.mean == pytest.approx(2.0)
        assert estimate.second_moment == pytest.approx((1.0 + 9.0) / 2.0)
        assert estimate.mean_waiting_time == pytest.approx(0.5)
        assert estimate.sample_count == 2

    def test_calibrate_server_type_applies_moments(self):
        spec = ServerTypeSpec("srv", 1.0, failure_rate=0.1, repair_rate=1.0)
        trail = AuditTrail()
        trail.record_service_request(
            ServiceRequestRecord("srv", "srv#0", 0.0, 0.0, 2.0)
        )
        updated = calibrate_server_type(
            spec, replayed(trail).service_times()["srv"]
        )
        assert updated.mean_service_time == pytest.approx(2.0)
        # Failure behaviour preserved.
        assert updated.failure_rate == spec.failure_rate

    def test_degenerate_sample_floored(self):
        spec = ServerTypeSpec("srv", 1.0)
        trail = AuditTrail()
        trail.record_service_request(
            ServiceRequestRecord("srv", "srv#0", 0.0, 0.0, 2.0)
        )
        updated = calibrate_server_type(
            spec, replayed(trail).service_times()["srv"]
        )
        assert updated.second_moment_service_time >= (
            updated.mean_service_time**2
        )

    def test_mean_whose_square_overflows_is_rejected(self):
        # The floor squares the mean; past sqrt(max float) that used to
        # raise OverflowError instead of a ValidationError.
        spec = ServerTypeSpec("srv", 1.0)
        largest = math.sqrt(sys.float_info.max)
        accepted = ServiceTimeEstimate("srv", 1, largest, 0.0, 0.0)
        assert calibrate_server_type(spec, accepted).mean_service_time == (
            largest
        )
        for mean in (math.nextafter(largest, math.inf), 1e160):
            estimate = ServiceTimeEstimate("srv", 1, mean, mean, 0.0)
            with pytest.raises(ValidationError, match="square must be finite"):
                calibrate_server_type(spec, estimate)


class TestRequestsPerInstance:
    def _trail_with_requests(self):
        trail = build_trail()
        # Instances 1-3 exist; attribute 2 engine requests to each and
        # one app request to instance 1 only.
        for instance in (1, 2, 3):
            for _ in range(2):
                trail.record_service_request(
                    ServiceRequestRecord(
                        "engine", "engine#0", 0.0, 0.0, 0.1,
                        instance_id=instance,
                    )
                )
        trail.record_service_request(
            ServiceRequestRecord(
                "app", "app#0", 0.0, 0.0, 0.5, instance_id=1
            )
        )
        # An unattributed request must be ignored.
        trail.record_service_request(
            ServiceRequestRecord("engine", "engine#0", 0.0, 0.0, 0.1)
        )
        return trail

    def test_per_instance_means(self):
        estimates = replayed(
            self._trail_with_requests()
        ).requests_per_instance("wf")
        assert estimates["engine"] == pytest.approx(2.0)
        assert estimates["app"] == pytest.approx(1.0 / 3.0)

    def test_unknown_workflow_rejected(self, stream):
        with pytest.raises(ValidationError):
            stream.requests_per_instance("nope")

    def test_simulated_trail_recovers_load_vector(self):
        from repro.core.performance import SystemConfiguration
        from repro.core.workflow_model import build_workflow_ctmc
        from repro.wfms import SimulatedWFMS, SimulatedWorkflowType
        from repro.workflows import (
            ecommerce_activities,
            ecommerce_chart,
            ecommerce_workflow,
            standard_server_types,
        )

        types = standard_server_types()
        wfms = SimulatedWFMS(
            types,
            SystemConfiguration(
                {"comm-server": 1, "wf-engine": 2, "app-server": 2}
            ),
            [SimulatedWorkflowType(
                ecommerce_chart(), ecommerce_activities(), 0.2
            )],
            seed=13,
            inject_failures=False,
        )
        report = wfms.run(duration=6000.0, warmup=300.0)
        estimates = replayed(report.trail).requests_per_instance("EP")
        model = build_workflow_ctmc(ecommerce_workflow(), types)
        predicted = dict(
            zip(types.names, model.requests_per_instance())
        )
        for name in types.names:
            assert estimates[name] == pytest.approx(
                predicted[name], rel=0.1
            )


class TestFlatWorkflowReconstruction:
    def test_reconstruction_preserves_turnaround(self, stream):
        definition = stream.flat_workflow("wf", "a")
        types = ServerTypeIndex([ServerTypeSpec("srv", 1.0)])
        model = build_workflow_ctmc(definition, types)
        measured = stream.turnaround_time("wf")
        assert model.turnaround_time() == pytest.approx(measured, rel=0.01)

    def test_reference_activities_preserved(self, stream):
        activity = ActivitySpec("a", 2.0, loads={"srv": 5.0})
        from repro.core.workflow_model import WorkflowDefinition, WorkflowState

        reference = WorkflowDefinition(
            name="wf",
            states=(
                WorkflowState("a", activity=activity),
                WorkflowState("b", mean_duration=3.0),
                WorkflowState("end", mean_duration=0.1),
            ),
            transitions={("a", "b"): 0.7, ("a", "end"): 0.3,
                         ("b", "end"): 1.0},
            initial_state="a",
        )
        definition = stream.flat_workflow("wf", "a", reference=reference)
        assert definition.state("a").activity is activity
        assert definition.state("b").activity is None

    def test_unobserved_initial_state_rejected(self, stream):
        with pytest.raises(ValidationError):
            stream.flat_workflow("wf", "zz")
