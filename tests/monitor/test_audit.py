"""Tests for audit trail records and queries."""

import math
import sys

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.monitor.audit import (
    TERMINATION,
    AuditTrail,
    InstanceRecord,
    ServiceRequestRecord,
    StateVisitRecord,
    record_row,
)


def visit(instance=1, workflow="wf", state="a", enter=0.0, leave=1.0,
          next_state="b"):
    return StateVisitRecord(
        instance_id=instance, workflow_type=workflow, state=state,
        entered_at=enter, left_at=leave, next_state=next_state,
    )


class TestRecords:
    def test_residence_time(self):
        assert visit(enter=2.0, leave=5.5).residence_time == pytest.approx(3.5)

    def test_visit_timestamps_validated(self):
        with pytest.raises(ValidationError):
            visit(enter=5.0, leave=4.0)

    def test_request_derived_times(self):
        record = ServiceRequestRecord(
            server_type="srv", server_name="srv#0",
            submitted_at=1.0, started_at=3.0, completed_at=4.5,
        )
        assert record.waiting_time == pytest.approx(2.0)
        assert record.service_time == pytest.approx(1.5)

    def test_request_timestamps_validated(self):
        with pytest.raises(ValidationError):
            ServiceRequestRecord(
                server_type="s", server_name="s#0",
                submitted_at=2.0, started_at=1.0, completed_at=3.0,
            )

    def test_instance_turnaround(self):
        record = InstanceRecord(1, "wf", started_at=10.0, completed_at=25.0)
        assert record.turnaround_time == pytest.approx(15.0)

    def test_instance_timestamps_validated(self):
        with pytest.raises(ValidationError):
            InstanceRecord(1, "wf", started_at=10.0, completed_at=5.0)


#: A valid row of each record type and the index of each field kind.
VALID_ROWS = {
    StateVisitRecord: (1, "wf", "a", 0.0, 1.0, "b"),
    ServiceRequestRecord: ("srv", "srv#0", 0.0, 0.5, 1.5, 7),
    InstanceRecord: (7, "wf", 0.0, 3.0),
}
NAMES = {StateVisitRecord: (1, 2, 5), ServiceRequestRecord: (0, 1),
         InstanceRecord: (1,)}
IDS = {StateVisitRecord: (0,), ServiceRequestRecord: (5,),
       InstanceRecord: (0,)}
TIMES = {StateVisitRecord: (3, 4), ServiceRequestRecord: (2, 3, 4),
         InstanceRecord: (2, 3)}


def replaced(row, index, value):
    return row[:index] + (value,) + row[index + 1:]


def field_cases(indices, values):
    return [
        pytest.param(record_type, index, value,
                     id=f"{record_type.__name__}-{index}-{value!r}")
        for record_type, positions in indices.items()
        for index in positions
        for value in values
    ]


class TestTypedChecks:
    """Every record type rejects ill-typed fields with ValidationError.

    These used to be accepted (an ``Infinity`` timestamp, NaN, booleans,
    string timestamps that compare in order) or to fail later with a
    TypeError inside the calibrator.
    """

    @pytest.mark.parametrize(
        ("record_type", "index", "value"),
        field_cases(
            TIMES,
            [math.inf, -math.inf, math.nan, np.float64(math.nan), "1.0",
             True, None, 10**400],
        ),
    )
    def test_bad_timestamp_is_rejected(self, record_type, index, value):
        row = replaced(VALID_ROWS[record_type], index, value)
        with pytest.raises(ValidationError, match="must be a finite number"):
            record_type(*row)
        with pytest.raises(ValidationError, match="must be a finite number"):
            record_type.check_row(row)

    @pytest.mark.parametrize(
        ("record_type", "index", "value"),
        field_cases(IDS, [True, 1.0, "1", None]),
    )
    def test_bad_id_is_rejected(self, record_type, index, value):
        row = replaced(VALID_ROWS[record_type], index, value)
        with pytest.raises(ValidationError, match="must be an integer"):
            record_type(*row)

    @pytest.mark.parametrize(
        ("record_type", "index", "value"),
        field_cases(NAMES, [1, None, False, ["a"]]),
    )
    def test_bad_name_is_rejected(self, record_type, index, value):
        row = replaced(VALID_ROWS[record_type], index, value)
        with pytest.raises(ValidationError, match="must be a string"):
            record_type(*row)

    def test_string_timestamps_in_order_are_rejected(self):
        with pytest.raises(ValidationError, match="submitted_at"):
            ServiceRequestRecord("s", "s#0", "a", "b", "c")

    def test_message_names_kind_field_and_line(self):
        row = replaced(VALID_ROWS[InstanceRecord], 3, math.inf)
        with pytest.raises(ValidationError) as caught:
            InstanceRecord.check_row(row, 12)
        assert str(caught.value) == (
            "line 12: malformed instance record: completed_at must be a "
            "finite number, got inf"
        )

    def test_long_values_are_abbreviated_in_messages(self):
        row = replaced(VALID_ROWS[InstanceRecord], 1, 12345)
        row = replaced(row, 2, "x" * 10_000)
        with pytest.raises(ValidationError) as caught:
            InstanceRecord(*row)
        assert len(str(caught.value)) < 200

    def test_numpy_and_integer_timestamps_stay_accepted(self):
        record = ServiceRequestRecord(
            "s", "s#0", np.float64(0.5), 1, np.float64(2.0), 3
        )
        assert record.service_time == 1.0
        assert InstanceRecord(1, "wf", 0, 10**300).turnaround_time == 10**300

    def test_order_messages_are_unchanged(self):
        with pytest.raises(ValidationError) as caught:
            StateVisitRecord(3, "wf", "a", 5.0, 4.0, "b")
        assert str(caught.value) == (
            "instance 3: left_at 4.0 precedes entered_at 5.0"
        )
        with pytest.raises(ValidationError) as caught:
            InstanceRecord(3, "wf", 5.0, 4.0)
        assert str(caught.value) == "instance 3: completed before started"

    @pytest.mark.parametrize(
        ("record_type", "first", "last", "low", "high"),
        [
            (StateVisitRecord, "entered_at", "left_at", -1e308, 1e308),
            (ServiceRequestRecord, "submitted_at", "completed_at",
             -1.7e308, 1.7e308),
            (InstanceRecord, "started_at", "completed_at",
             -10**308, 10**308),
        ],
        ids=["visit", "request", "instance-ints"],
    )
    def test_timestamps_too_far_apart_are_rejected(
        self, record_type, first, last, low, high
    ):
        # Each timestamp is finite, but the widest difference is not: a
        # service time of inf used to poison the calibrated model.
        row = VALID_ROWS[record_type]
        position = TIMES[record_type]
        row = replaced(row, position[0], low)
        for index in position[1:-1]:
            row = replaced(row, index, 0.0)
        row = replaced(row, position[-1], high)
        message = f"{last} - {first} must be a finite number"
        with pytest.raises(ValidationError, match=message):
            record_type(*row)
        with pytest.raises(ValidationError) as caught:
            record_type.check_row(row, 9)
        assert str(caught.value).startswith(
            f"line 9: malformed {record_type.kind} record: {message}, got "
        )

    @pytest.mark.parametrize("record_type", list(VALID_ROWS))
    def test_widest_span_of_the_largest_float_is_accepted(self, record_type):
        # A request's started_at sits at its end: its waiting time spans
        # the largest float, and its service time, which is squared, is 0.
        half = sys.float_info.max / 2.0
        row = VALID_ROWS[record_type]
        position = TIMES[record_type]
        row = replaced(row, position[0], -half)
        for index in position[1:]:
            row = replaced(row, index, half)
        record_type.check_row(row)
        assert record_type(*row).row == row

    def test_largest_service_time_with_a_finite_square_is_accepted(self):
        largest = math.sqrt(sys.float_info.max)
        assert largest * largest <= sys.float_info.max
        row = ("srv", "srv#0", 0.0, 0.0, largest, 7)
        ServiceRequestRecord.check_row(row)
        assert ServiceRequestRecord(*row).service_time == largest

    @pytest.mark.parametrize(
        "service_time",
        [math.nextafter(math.sqrt(sys.float_info.max), math.inf), 1e160,
         np.float64(1e160), 10**200],
        ids=["next-float", "1e160", "numpy", "int"],
    )
    def test_service_time_whose_square_overflows_is_rejected(
        self, service_time
    ):
        # Finite and within the span bound, but the calibrated second
        # moment squares it: it used to raise OverflowError in every
        # later calibration of the tenant.
        row = ("srv", "srv#0", 0, 0, service_time, 7)
        with pytest.raises(ValidationError) as caught:
            ServiceRequestRecord.check_row(row, 9)
        assert str(caught.value).startswith(
            "line 9: malformed service_request record: "
            "(completed_at - started_at)**2 must be a finite number, got "
        )
        with pytest.raises(ValidationError, match="must be a finite number"):
            ServiceRequestRecord(*row)

    @pytest.mark.parametrize("record_type", list(VALID_ROWS))
    def test_row_is_the_fields_in_order(self, record_type):
        row = VALID_ROWS[record_type]
        record = record_type(*row)
        assert record.row == row
        assert record_row(record) == (record_type.kind, row)

    def test_record_row_rejects_other_objects(self):
        with pytest.raises(ValidationError, match="unknown audit record"):
            record_row(object())


class TestTrailQueries:
    def _trail(self):
        trail = AuditTrail()
        trail.record_state_visit(visit(workflow="alpha", state="a"))
        trail.record_state_visit(visit(workflow="beta", state="x"))
        trail.record_instance(InstanceRecord(1, "alpha", 0.0, 3.0))
        trail.record_service_request(
            ServiceRequestRecord("srv", "srv#0", 0.0, 0.0, 1.0)
        )
        return trail

    def test_merge_combines_without_mutating(self):
        first, second = self._trail(), self._trail()
        merged = first.merge([second])
        assert len(merged.state_visits) == 4
        assert len(first.state_visits) == 2

    def test_termination_marker_distinct_from_states(self):
        record = visit(next_state=TERMINATION)
        assert record.next_state == TERMINATION


class TestRows:
    """Producers append field tuples; records are built when read."""

    def test_rows_and_records_keep_append_order(self):
        trail = AuditTrail()
        trail.state_visit_rows.append((1, "wf", "a", 0.0, 1.0, "b"))
        trail.record_state_visit(visit(state="b", enter=1.0, leave=2.0))
        trail.state_visit_rows.append((1, "wf", "c", 2.0, 3.0, "d"))
        assert [r.state for r in trail.state_visits] == ["a", "b", "c"]
        assert trail.state_visits[0] == visit()

    def test_each_kind_builds_its_record(self):
        trail = AuditTrail()
        trail.service_request_rows.append(
            ("srv", "srv#0", 0.0, 0.5, 1.5, 7)
        )
        trail.instance_rows.append((7, "wf", 0.0, 3.0))
        assert trail.service_requests == [
            ServiceRequestRecord("srv", "srv#0", 0.0, 0.5, 1.5, 7)
        ]
        assert trail.instances == [InstanceRecord(7, "wf", 0.0, 3.0)]
        assert not trail.service_request_rows and not trail.instance_rows

    @pytest.mark.parametrize(
        ("rows", "read"),
        [
            ("state_visit_rows", "state_visits"),
            ("service_request_rows", "service_requests"),
            ("instance_rows", "instances"),
        ],
    )
    def test_malformed_row_raises_when_read(self, rows, read):
        trail = AuditTrail()
        bad = {
            "state_visit_rows": (1, "wf", "a", 5.0, 4.0, "b"),
            "service_request_rows": ("s", "s#0", 2.0, 1.0, 3.0, 1),
            "instance_rows": (1, "wf", 10.0, 5.0),
        }[rows]
        getattr(trail, rows).append(bad)  # appending never validates
        with pytest.raises(ValidationError):
            getattr(trail, read)
        # The row stays pending: every read raises, nothing half-built.
        with pytest.raises(ValidationError):
            getattr(trail, read)

    def test_clear_empties_rows_and_records_in_place(self):
        trail = AuditTrail()
        append = trail.instance_rows.append
        append((1, "wf", 0.0, 1.0))
        trail.record_instance(InstanceRecord(2, "wf", 0.0, 2.0))
        append((3, "wf", 0.0, 3.0))
        trail.clear()
        assert trail == AuditTrail()
        append((4, "wf", 0.0, 4.0))  # a bound append survives clear()
        assert [r.instance_id for r in trail.instances] == [4]

    def test_merge_includes_pending_rows(self):
        first, second = AuditTrail(), AuditTrail()
        first.state_visit_rows.append((1, "wf", "a", 0.0, 1.0, "b"))
        second.state_visit_rows.append((2, "wf", "x", 0.0, 1.0, "y"))
        merged = first.merge([second])
        assert [r.instance_id for r in merged.state_visits] == [1, 2]
        assert len(first.state_visits) == 1

    def test_equality_is_by_records(self):
        from_rows = AuditTrail()
        from_rows.state_visit_rows.append((1, "wf", "a", 0.0, 1.0, "b"))
        assert from_rows == AuditTrail(state_visits=[visit()])
        assert from_rows != AuditTrail()
        assert from_rows != AuditTrail(state_visits=[visit(), visit()])

    def test_save_load_round_trip(self, tmp_path):
        from repro.monitor.persistence import load_trail, save_trail

        trail = AuditTrail()
        trail.state_visit_rows.append((1, "wf", "a", 0.0, 1.0, "b"))
        trail.service_request_rows.append(
            ("srv", "srv#0", 0.25, 0.5, 0.75, 1)
        )
        trail.instance_rows.append((1, "wf", 0.0, 1.0))
        path = tmp_path / "trail.jsonl"
        assert save_trail(trail, path) == 3
        assert load_trail(path) == trail
