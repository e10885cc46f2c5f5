"""Audit trails of workflow executions.

The paper's calibration component (Section 7.1) derives transition
probabilities, residence times, and service-time moments "from audit
trails of previous workflow executions" and online monitoring statistics.
This module defines the trail records; :mod:`repro.monitor.calibration`
turns trails back into model parameters.  The simulated WFMS emits these
records natively, closing the map -> run -> calibrate -> remap loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, TypeVar

from repro.exceptions import ValidationError

#: Pseudo state name recorded as the successor of a final state.
TERMINATION = "__TERMINATED__"

_Record = TypeVar("_Record")


@dataclass(frozen=True)
class StateVisitRecord:
    """One visit of a workflow instance to an execution state."""

    instance_id: int
    workflow_type: str
    state: str
    entered_at: float
    left_at: float
    next_state: str

    def __post_init__(self) -> None:
        if self.left_at < self.entered_at:
            raise ValidationError(
                f"instance {self.instance_id}: left_at {self.left_at} "
                f"precedes entered_at {self.entered_at}"
            )

    @property
    def residence_time(self) -> float:
        """Time spent in the state (exit minus entry)."""
        return self.left_at - self.entered_at


@dataclass(frozen=True)
class ServiceRequestRecord:
    """One service request processed by a server.

    ``instance_id`` attributes the request to the workflow instance that
    issued it (-1 when unknown), enabling load-matrix calibration: the
    expected requests per instance ``r_{x,t}`` are estimated by joining
    request records with instance records.
    """

    server_type: str
    server_name: str
    submitted_at: float
    started_at: float
    completed_at: float
    instance_id: int = -1

    def __post_init__(self) -> None:
        if not (self.submitted_at <= self.started_at <= self.completed_at):
            raise ValidationError(
                "request timestamps must be ordered "
                "submitted <= started <= completed"
            )

    @property
    def waiting_time(self) -> float:
        """Queueing delay before service began."""
        return self.started_at - self.submitted_at

    @property
    def service_time(self) -> float:
        """Busy time at the server (completion minus service start)."""
        return self.completed_at - self.started_at


@dataclass(frozen=True)
class InstanceRecord:
    """Lifecycle of one workflow instance."""

    instance_id: int
    workflow_type: str
    started_at: float
    completed_at: float

    def __post_init__(self) -> None:
        if self.completed_at < self.started_at:
            raise ValidationError(
                f"instance {self.instance_id}: completed before started"
            )

    @property
    def turnaround_time(self) -> float:
        """Wall-clock time from instance start to completion."""
        return self.completed_at - self.started_at


class AuditTrail:
    """Container for monitoring records of one observation run.

    Records of each kind are kept in append order.  A producer that
    emits many records — the simulator appends one per service request,
    state visit and finished instance — appends *rows* instead: plain
    tuples in record-field order, to :attr:`state_visit_rows`,
    :attr:`service_request_rows` or :attr:`instance_rows`.  The frozen,
    validated records are built from the pending rows only when
    :attr:`state_visits`, :attr:`service_requests` or :attr:`instances`
    is read, so a trail nobody reads costs one tuple per record.  A
    malformed row raises its record's
    :class:`~repro.exceptions.ValidationError` on that read and stays
    pending.  The ``record_*`` methods first turn pending rows into
    records, so rows and records keep one append order.  Producers may
    bind the row lists' ``append``: :meth:`clear` and the reads empty
    them in place.
    """

    def __init__(
        self,
        state_visits: Iterable[StateVisitRecord] = (),
        service_requests: Iterable[ServiceRequestRecord] = (),
        instances: Iterable[InstanceRecord] = (),
    ) -> None:
        #: Pending state-visit rows, in :class:`StateVisitRecord` order.
        self.state_visit_rows: list[tuple] = []
        #: Pending service-request rows, in
        #: :class:`ServiceRequestRecord` order.
        self.service_request_rows: list[tuple] = []
        #: Pending instance rows, in :class:`InstanceRecord` order.
        self.instance_rows: list[tuple] = []
        self._state_visits = list(state_visits)
        self._service_requests = list(service_requests)
        self._instances = list(instances)

    @property
    def state_visits(self) -> list[StateVisitRecord]:
        """Every state-visit record, in append order."""
        return _records(
            self.state_visit_rows, self._state_visits, StateVisitRecord
        )

    @property
    def service_requests(self) -> list[ServiceRequestRecord]:
        """Every service-request record, in append order."""
        return _records(
            self.service_request_rows,
            self._service_requests,
            ServiceRequestRecord,
        )

    @property
    def instances(self) -> list[InstanceRecord]:
        """Every completed-instance record, in append order."""
        return _records(self.instance_rows, self._instances, InstanceRecord)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.state_visits == other.state_visits
            and self.service_requests == other.service_requests
            and self.instances == other.instances
        )

    def __repr__(self) -> str:
        return (
            f"AuditTrail(state_visits={self.state_visits!r}, "
            f"service_requests={self.service_requests!r}, "
            f"instances={self.instances!r})"
        )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_state_visit(self, record: StateVisitRecord) -> None:
        """Append one state-visit record."""
        self.state_visits.append(record)

    def record_service_request(self, record: ServiceRequestRecord) -> None:
        """Append one service-request record."""
        self.service_requests.append(record)

    def record_instance(self, record: InstanceRecord) -> None:
        """Append one completed-instance record."""
        self.instances.append(record)

    def clear(self) -> None:
        """Drop every record and pending row, emptying the lists in place."""
        for kept in (
            self.state_visit_rows,
            self.service_request_rows,
            self.instance_rows,
            self._state_visits,
            self._service_requests,
            self._instances,
        ):
            kept.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def workflow_types(self) -> frozenset[str]:
        """All workflow type names appearing in the trail."""
        return frozenset(record.workflow_type for record in self.instances) | \
            frozenset(record.workflow_type for record in self.state_visits)

    def visits_of(self, workflow_type: str) -> Iterator[StateVisitRecord]:
        """State visits of one workflow type."""
        return (
            record
            for record in self.state_visits
            if record.workflow_type == workflow_type
        )

    def requests_of(self, server_type: str) -> Iterator[ServiceRequestRecord]:
        """Service requests handled by one server type."""
        return (
            record
            for record in self.service_requests
            if record.server_type == server_type
        )

    def instances_of(self, workflow_type: str) -> Iterator[InstanceRecord]:
        """Instance lifecycles of one workflow type."""
        return (
            record
            for record in self.instances
            if record.workflow_type == workflow_type
        )

    def merge(self, others: Iterable["AuditTrail"]) -> "AuditTrail":
        """A new trail combining this one with the given trails."""
        merged = AuditTrail(
            self.state_visits, self.service_requests, self.instances
        )
        for other in others:
            merged.state_visits.extend(other.state_visits)
            merged.service_requests.extend(other.service_requests)
            merged.instances.extend(other.instances)
        return merged


def _records(
    rows: list[tuple], records: list[_Record], record_type: type[_Record]
) -> list[_Record]:
    """``records`` after appending the records built from ``rows``.

    Every row is built before either list changes, so a malformed row
    leaves both as they were.
    """
    if rows:
        records.extend([record_type(*row) for row in rows])
        rows.clear()
    return records
