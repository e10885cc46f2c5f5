"""Calibration of model parameters from audit trails (Section 7.1).

"If the entire workflow application is already operational and our goal is
to reconfigure the WFMS, then the transition probabilities can be derived
from audit trails of previous workflow executions" — this module
implements that derivation: maximum-likelihood estimates of transition
probabilities, sample means of residence times and turnaround times, and
the first two moments of server service times.  The estimates can be
assembled directly into a :class:`~repro.core.workflow_model.WorkflowDefinition`
(for the top level of a workflow type) or into updated
:class:`~repro.core.model_types.ServerTypeSpec` values.

The §7 loop itself calibrates through the streaming twin,
:class:`~repro.monitor.stream.StreamingCalibrator`; these batch
estimators stay because they are its test oracle, the reference that
``tests/monitor/test_stream.py`` compares the stream against bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.model_types import ServerTypeSpec
from repro.core.workflow_model import WorkflowDefinition, WorkflowState
from repro.exceptions import ValidationError
from repro.monitor.audit import TERMINATION, AuditTrail
from repro.sim.statistics import RunningStats


@dataclass(frozen=True)
class ServiceTimeEstimate:
    """Estimated service-time moments of one server type."""

    server_type: str
    sample_count: int
    mean: float
    second_moment: float
    mean_waiting_time: float


def estimate_transition_probabilities(
    trail: AuditTrail, workflow_type: str
) -> dict[tuple[str, str], float]:
    """Maximum-likelihood transition probabilities from observed visits.

    For every observed state, the probability of a successor is its
    observed frequency among departures from that state.  Transitions into
    the termination marker are omitted (the model layer adds the absorbing
    transition itself).
    """
    departures: dict[str, dict[str, int]] = {}
    for record in trail.visits_of(workflow_type):
        successors = departures.setdefault(record.state, {})
        successors[record.next_state] = successors.get(record.next_state, 0) + 1
    if not departures:
        raise ValidationError(
            f"no state visits of workflow type {workflow_type!r} in trail"
        )
    probabilities: dict[tuple[str, str], float] = {}
    for state, successors in departures.items():
        total = sum(successors.values())
        for next_state, count in successors.items():
            if next_state == TERMINATION:
                continue
            probabilities[(state, next_state)] = count / total
    return probabilities


def estimate_residence_times(
    trail: AuditTrail, workflow_type: str
) -> dict[str, float]:
    """Sample-mean residence time per execution state."""
    stats: dict[str, RunningStats] = {}
    for record in trail.visits_of(workflow_type):
        stats.setdefault(record.state, RunningStats()).add(
            record.residence_time
        )
    if not stats:
        raise ValidationError(
            f"no state visits of workflow type {workflow_type!r} in trail"
        )
    return {state: collector.mean for state, collector in stats.items()}


def estimate_turnaround_time(
    trail: AuditTrail, workflow_type: str
) -> float:
    """Sample-mean turnaround time of completed instances."""
    stats = RunningStats()
    for record in trail.instances_of(workflow_type):
        stats.add(record.turnaround_time)
    if not stats.count:
        raise ValidationError(
            f"no completed instances of workflow type {workflow_type!r}"
        )
    return stats.mean


def estimate_arrival_rate(
    trail: AuditTrail, workflow_type: str, observation_period: float
) -> float:
    """Observed arrivals per time unit over the observation window."""
    if observation_period <= 0.0:
        raise ValidationError("observation period must be positive")
    count = sum(1 for _ in trail.instances_of(workflow_type))
    return count / observation_period


def estimate_service_times(trail: AuditTrail) -> dict[str, ServiceTimeEstimate]:
    """First two service-time moments per server type, plus mean waits."""
    service: dict[str, RunningStats] = {}
    waiting: dict[str, RunningStats] = {}
    for record in trail.service_requests:
        service.setdefault(record.server_type, RunningStats()).add(
            record.service_time
        )
        waiting.setdefault(record.server_type, RunningStats()).add(
            record.waiting_time
        )
    return {
        server_type: ServiceTimeEstimate(
            server_type=server_type,
            sample_count=collector.count,
            mean=collector.mean,
            second_moment=collector.second_moment,
            mean_waiting_time=waiting[server_type].mean,
        )
        for server_type, collector in service.items()
    }


def estimate_requests_per_instance(
    trail: AuditTrail, workflow_type: str
) -> dict[str, float]:
    """Estimate the load vector ``r_{x,t}`` from monitoring data (§4.2).

    "In practice, the entries of the load matrix have to be determined by
    collecting appropriate runtime statistics" — this joins the service
    request records with the instance records of one workflow type and
    reports the mean number of requests per *completed* instance, per
    server type.  Requests without instance attribution are ignored.
    """
    instance_ids = {
        record.instance_id
        for record in trail.instances_of(workflow_type)
    }
    if not instance_ids:
        raise ValidationError(
            f"no completed instances of workflow type {workflow_type!r}"
        )
    counts: dict[str, int] = {}
    for record in trail.service_requests:
        if record.instance_id in instance_ids:
            counts[record.server_type] = (
                counts.get(record.server_type, 0) + 1
            )
    return {
        server_type: count / len(instance_ids)
        for server_type, count in counts.items()
    }


def calibrate_server_type(
    spec: ServerTypeSpec, estimate: ServiceTimeEstimate
) -> ServerTypeSpec:
    """A copy of ``spec`` with measured service-time moments.

    Guards against degenerate samples: the second moment is floored at
    the squared mean (zero-variance sample).
    """
    if estimate.sample_count < 1:
        raise ValidationError(
            f"no service samples for server type {spec.name}"
        )
    return ServerTypeSpec(
        name=spec.name,
        mean_service_time=estimate.mean,
        second_moment_service_time=max(
            estimate.second_moment, estimate.mean**2
        ),
        failure_rate=spec.failure_rate,
        repair_rate=spec.repair_rate,
        cost=spec.cost,
        role=spec.role,
    )


def calibrate_flat_workflow(
    trail: AuditTrail,
    workflow_type: str,
    initial_state: str,
    reference: WorkflowDefinition | None = None,
) -> WorkflowDefinition:
    """Reconstruct a flat workflow definition from an audit trail.

    States observed in the trail become routing states carrying the
    estimated residence times (which *include* any subworkflow runtimes,
    so the reconstruction is behaviourally flat); transition probabilities
    are the observed frequencies.  When a ``reference`` definition is
    given, its activity attachments are preserved for states whose
    activities are known, so that load matrices survive recalibration.
    """
    probabilities = estimate_transition_probabilities(trail, workflow_type)
    residence = estimate_residence_times(trail, workflow_type)
    return build_flat_workflow(
        probabilities, residence, workflow_type, initial_state, reference
    )


def build_flat_workflow(
    probabilities: dict[tuple[str, str], float],
    residence: dict[str, float],
    workflow_type: str,
    initial_state: str,
    reference: WorkflowDefinition | None = None,
) -> WorkflowDefinition:
    """Assemble a flat workflow definition from estimated parameters.

    Shared by the batch path (:func:`calibrate_flat_workflow`) and the
    streaming path
    (:meth:`repro.monitor.stream.StreamingCalibrator.flat_workflow`):
    both produce the same estimate dictionaries, so the reconstructed
    definitions are identical.
    """
    state_names = sorted(
        set(residence)
        | {target for (_, target) in probabilities}
    )
    if initial_state not in state_names:
        raise ValidationError(
            f"initial state {initial_state!r} never observed in trail"
        )
    states = []
    for name in state_names:
        activity = None
        if reference is not None:
            try:
                activity = reference.state(name).activity
            except ValidationError:
                activity = None
        duration = residence.get(name)
        if duration is None or duration <= 0.0:
            duration = 1e-6  # observed only as a target; near-instant
        states.append(
            WorkflowState(
                name=name, activity=activity, mean_duration=duration
            )
        )
    return WorkflowDefinition(
        name=workflow_type,
        states=tuple(states),
        transitions=probabilities,
        initial_state=initial_state,
    )
