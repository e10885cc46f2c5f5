"""Tests for audit trail records and queries."""

import pytest

from repro.exceptions import ValidationError
from repro.monitor.audit import (
    TERMINATION,
    AuditTrail,
    InstanceRecord,
    ServiceRequestRecord,
    StateVisitRecord,
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

    def test_workflow_types(self):
        assert self._trail().workflow_types() == {"alpha", "beta"}

    def test_filtered_iterators(self):
        trail = self._trail()
        assert [r.state for r in trail.visits_of("alpha")] == ["a"]
        assert len(list(trail.instances_of("alpha"))) == 1
        assert len(list(trail.instances_of("beta"))) == 0
        assert len(list(trail.requests_of("srv"))) == 1
        assert len(list(trail.requests_of("other"))) == 0

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
