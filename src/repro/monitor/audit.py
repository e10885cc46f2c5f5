"""Audit trails of workflow executions.

The paper's calibration component (Section 7.1) derives transition
probabilities, residence times, and service-time moments "from audit
trails of previous workflow executions" and online monitoring statistics.
This module defines the trail records; :mod:`repro.monitor.stream`
turns them back into model parameters.  The simulated WFMS emits these
records natively, closing the map -> run -> calibrate -> remap loop.

Each record has a *row* form: the plain tuple of its fields in record
order, tagged by its ``kind`` (:data:`STATE_VISIT`,
:data:`SERVICE_REQUEST`, :data:`INSTANCE`).  Producers and the trail
decoder hand rows around instead of records, and each record type's
``check_row`` is the one validation of both forms: names are strings,
ids integers (not ``bool``), timestamps finite numbers (``int`` or
``float``, not ``bool``), in order, and no further apart than the
largest float, so every duration a record yields is finite too.
"""

from __future__ import annotations

import dataclasses
import reprlib
import sys
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Iterable, TypeVar

from repro.exceptions import ValidationError

#: Pseudo state name recorded as the successor of a final state.
TERMINATION = "__TERMINATED__"

#: The ``kind`` of a state-visit row (and of its trail line).
STATE_VISIT = "state_visit"
#: The ``kind`` of a service-request row.
SERVICE_REQUEST = "service_request"
#: The ``kind`` of an instance row.
INSTANCE = "instance"

_Record = TypeVar("_Record")

#: Largest finite float: a timestamp lies in ``[-_MAX, _MAX]``, a test
#: that NaN, the infinities and ints too large for a float all fail.
_MAX = sys.float_info.max


def _is_name(value: Any) -> bool:
    return isinstance(value, str)


def _is_id(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_timestamp(value: Any) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and -_MAX <= value <= _MAX
    )


#: The rule a field meets, by its annotated type (a string, since this
#: module defers annotations): names are strings, ids integers,
#: timestamps finite numbers.
_RULES: dict[str, tuple[Callable[[Any], bool], str]] = {
    "str": (_is_name, "a string"),
    "int": (_is_id, "an integer"),
    "float": (_is_timestamp, "a finite number"),
}


def _check_fields(
    record_type: type, row: tuple, line_number: int | None
) -> None:
    """Raise for the first field of ``row`` that breaks its rule.

    The slow path of every ``check_row``: it runs only when a row fails
    the exact-type test (numpy ``float64`` timestamps pass here, since
    they subclass ``float``), and names the offending field.
    """
    for field, value in zip(dataclasses.fields(record_type), row):
        accepts, expected = _RULES[field.type]
        if not accepts(value):
            where = "" if line_number is None else f"line {line_number}: "
            raise ValidationError(
                f"{where}malformed {record_type.kind} record: "
                f"{field.name} must be {expected}, "
                f"got {reprlib.repr(value)}"
            )


def _check_span(
    record_type: type, row: tuple, first: int, last: int,
    line_number: int | None,
) -> None:
    """Raise unless ``row[last] - row[first]`` is at most ``_MAX``.

    The slow path's last test: two finite timestamps can lie more than
    the largest float apart, and then their difference (the widest
    duration the row yields) overflows to ``inf``.  Names both fields.
    """
    span = row[last] - row[first]
    if not span <= _MAX:
        fields = dataclasses.fields(record_type)
        where = "" if line_number is None else f"line {line_number}: "
        raise ValidationError(
            f"{where}malformed {record_type.kind} record: "
            f"{fields[last].name} - {fields[first].name} must be a finite "
            f"number, got {reprlib.repr(span)}"
        )


@dataclass(frozen=True)
class StateVisitRecord:
    """One visit of a workflow instance to an execution state."""

    kind: ClassVar[str] = STATE_VISIT

    instance_id: int
    workflow_type: str
    state: str
    entered_at: float
    left_at: float
    next_state: str

    def __post_init__(self) -> None:
        self.check_row(self.row)

    @property
    def row(self) -> tuple:
        """The fields as a tuple, in field order."""
        return (
            self.instance_id, self.workflow_type, self.state,
            self.entered_at, self.left_at, self.next_state,
        )

    @staticmethod
    def check_row(row: tuple, line_number: int | None = None) -> None:
        """Raise :class:`~repro.exceptions.ValidationError` unless
        ``row`` holds a valid state visit (typing, then ``entered_at <=
        left_at``, then a finite ``left_at - entered_at``); typing and
        span errors name ``line_number`` when given."""
        instance_id, workflow_type, state, entered_at, left_at, next_state = (
            row
        )
        if not (
            type(instance_id) is int
            and type(workflow_type) is str
            and type(state) is str
            and type(next_state) is str
            and (type(entered_at) is float or type(entered_at) is int)
            and (type(left_at) is float or type(left_at) is int)
            and -_MAX <= entered_at <= left_at <= _MAX
            and left_at - entered_at <= _MAX
        ):
            _check_fields(StateVisitRecord, row, line_number)
            if left_at < entered_at:
                raise ValidationError(
                    f"instance {instance_id}: left_at {left_at} "
                    f"precedes entered_at {entered_at}"
                )
            _check_span(StateVisitRecord, row, 3, 4, line_number)

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

    kind: ClassVar[str] = SERVICE_REQUEST

    server_type: str
    server_name: str
    submitted_at: float
    started_at: float
    completed_at: float
    instance_id: int = -1

    def __post_init__(self) -> None:
        self.check_row(self.row)

    @property
    def row(self) -> tuple:
        """The fields as a tuple, in field order."""
        return (
            self.server_type, self.server_name, self.submitted_at,
            self.started_at, self.completed_at, self.instance_id,
        )

    @staticmethod
    def check_row(row: tuple, line_number: int | None = None) -> None:
        """Raise :class:`~repro.exceptions.ValidationError` unless
        ``row`` holds a valid service request (typing, then
        ``submitted_at <= started_at <= completed_at``, then a finite
        ``completed_at - submitted_at``, then a service time
        ``completed_at - started_at`` whose square is finite, as the
        calibrated second moment needs); typing, span and square errors
        name ``line_number`` when given."""
        server_type, server_name, submitted, started, completed, instance = (
            row
        )
        if not (
            type(server_type) is str
            and type(server_name) is str
            and type(instance) is int
            and (type(submitted) is float or type(submitted) is int)
            and (type(started) is float or type(started) is int)
            and (type(completed) is float or type(completed) is int)
            and -_MAX <= submitted <= started <= completed <= _MAX
            and completed - submitted <= _MAX
            and (completed - started) * (completed - started) <= _MAX
        ):
            _check_fields(ServiceRequestRecord, row, line_number)
            if not (submitted <= started <= completed):
                raise ValidationError(
                    "request timestamps must be ordered "
                    "submitted <= started <= completed"
                )
            _check_span(ServiceRequestRecord, row, 2, 4, line_number)
            # In floats, so a numpy overflow gives inf without a warning.
            service_time = float(completed - started)
            square = service_time * service_time
            if not square <= _MAX:
                where = (
                    "" if line_number is None else f"line {line_number}: "
                )
                raise ValidationError(
                    f"{where}malformed {SERVICE_REQUEST} record: "
                    "(completed_at - started_at)**2 must be a finite "
                    f"number, got {reprlib.repr(square)}"
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

    kind: ClassVar[str] = INSTANCE

    instance_id: int
    workflow_type: str
    started_at: float
    completed_at: float

    def __post_init__(self) -> None:
        self.check_row(self.row)

    @property
    def row(self) -> tuple:
        """The fields as a tuple, in field order."""
        return (
            self.instance_id, self.workflow_type, self.started_at,
            self.completed_at,
        )

    @staticmethod
    def check_row(row: tuple, line_number: int | None = None) -> None:
        """Raise :class:`~repro.exceptions.ValidationError` unless
        ``row`` holds a valid instance (typing, then ``started_at <=
        completed_at``, then a finite ``completed_at - started_at``);
        typing and span errors name ``line_number`` when given."""
        instance_id, workflow_type, started_at, completed_at = row
        if not (
            type(instance_id) is int
            and type(workflow_type) is str
            and (type(started_at) is float or type(started_at) is int)
            and (type(completed_at) is float or type(completed_at) is int)
            and -_MAX <= started_at <= completed_at <= _MAX
            and completed_at - started_at <= _MAX
        ):
            _check_fields(InstanceRecord, row, line_number)
            if completed_at < started_at:
                raise ValidationError(
                    f"instance {instance_id}: completed before started"
                )
            _check_span(InstanceRecord, row, 2, 3, line_number)

    @property
    def turnaround_time(self) -> float:
        """Wall-clock time from instance start to completion."""
        return self.completed_at - self.started_at


AuditRecord = StateVisitRecord | ServiceRequestRecord | InstanceRecord

#: Record type of each kind.
RECORD_TYPES: dict[str, type[AuditRecord]] = {
    record_type.kind: record_type
    for record_type in (StateVisitRecord, ServiceRequestRecord, InstanceRecord)
}


def record_row(record: AuditRecord) -> tuple[str, tuple]:
    """The ``(kind, row)`` of an audit record."""
    if not isinstance(
        record, (StateVisitRecord, ServiceRequestRecord, InstanceRecord)
    ):
        raise ValidationError(
            f"unknown audit record type {type(record).__name__}"
        )
    return record.kind, record.row


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
