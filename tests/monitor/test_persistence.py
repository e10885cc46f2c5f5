"""Tests for JSON Lines persistence of audit trails."""

import dataclasses
import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.monitor.audit import (
    RECORD_TYPES,
    AuditTrail,
    InstanceRecord,
    ServiceRequestRecord,
    StateVisitRecord,
)
from repro.monitor.drift import DriftMonitor
from repro.monitor.persistence import (
    iter_trail_records,
    iter_trail_rows,
    load_trail,
    parse_record_line,
    parse_record_row,
    save_trail,
)
from repro.monitor.stream import StreamingCalibrator
from tests.monitor.test_stream import simulated_trail


def sample_trail() -> AuditTrail:
    trail = AuditTrail()
    trail.record_state_visit(
        StateVisitRecord(
            instance_id=1, workflow_type="wf", state="a",
            entered_at=0.0, left_at=2.0, next_state="b",
        )
    )
    trail.record_service_request(
        ServiceRequestRecord(
            server_type="srv", server_name="srv#0",
            submitted_at=0.5, started_at=0.7, completed_at=1.1,
        )
    )
    trail.record_instance(
        InstanceRecord(
            instance_id=1, workflow_type="wf",
            started_at=0.0, completed_at=3.0,
        )
    )
    return trail


class TestRoundTrip:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "trail.jsonl"
        count = save_trail(sample_trail(), path)
        assert count == 3
        restored = load_trail(path)
        assert restored.state_visits == sample_trail().state_visits
        assert restored.service_requests == sample_trail().service_requests
        assert restored.instances == sample_trail().instances

    def test_file_is_json_lines(self, tmp_path):
        path = tmp_path / "trail.jsonl"
        save_trail(sample_trail(), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        kinds = {json.loads(line)["kind"] for line in lines}
        assert kinds == {"state_visit", "service_request", "instance"}

    def test_empty_trail(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert save_trail(AuditTrail(), path) == 0
        restored = load_trail(path)
        assert not restored.state_visits

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "trail.jsonl"
        save_trail(sample_trail(), path)
        path.write_text(path.read_text() + "\n\n")
        restored = load_trail(path)
        assert len(restored.instances) == 1


class TestSimulationTrailRoundTrip:
    def test_calibration_survives_persistence(self, tmp_path):
        trail = simulated_trail()
        path = tmp_path / "production.jsonl"
        save_trail(trail, path)
        original = StreamingCalibrator()
        original.replay(trail)
        recovered = StreamingCalibrator()
        recovered.observe_rows(iter_trail_rows(path))
        assert recovered.export_state() == original.export_state()
        assert recovered.service_times() == original.service_times()


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_trail(tmp_path / "nope.jsonl")

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{broken\n")
        with pytest.raises(ValidationError, match="invalid JSON"):
            load_trail(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "mystery"}) + "\n")
        with pytest.raises(ValidationError, match="unknown record kind"):
            load_trail(path)

    def test_malformed_record_fields(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"kind": "instance", "instance_id": 1}) + "\n"
        )
        with pytest.raises(ValidationError, match="malformed"):
            load_trail(path)

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValidationError, match="JSON object"):
            load_trail(path)


VISIT = {
    "kind": "state_visit", "instance_id": 1, "workflow_type": "wf",
    "state": "a", "entered_at": 0.0, "left_at": 2.0, "next_state": "b",
}
REQUEST = {
    "kind": "service_request", "server_type": "srv",
    "server_name": "srv#0", "submitted_at": 0.5, "started_at": 0.7,
    "completed_at": 1.1, "instance_id": 1,
}
INSTANCE = {
    "kind": "instance", "instance_id": 1, "workflow_type": "wf",
    "started_at": 0.0, "completed_at": 3.0,
}


def line_of(base, **changes):
    return json.dumps({**base, **changes})


class TestParseRecordRow:
    def test_rows_are_fields_in_record_order(self):
        assert parse_record_row(line_of(VISIT)) == (
            "state_visit", (1, "wf", "a", 0.0, 2.0, "b")
        )
        assert parse_record_row(line_of(REQUEST)) == (
            "service_request", ("srv", "srv#0", 0.5, 0.7, 1.1, 1)
        )
        assert parse_record_row(line_of(INSTANCE)) == (
            "instance", (1, "wf", 0.0, 3.0)
        )

    def test_request_without_instance_id_is_unattributed(self):
        data = dict(REQUEST)
        del data["instance_id"]
        kind, row = parse_record_row(json.dumps(data))
        assert row[-1] == -1
        assert parse_record_line(json.dumps(data)).instance_id == -1

    @pytest.mark.parametrize(
        ("line", "field"),
        [
            (line_of(REQUEST, completed_at=math.inf), "completed_at"),
            (line_of(REQUEST, submitted_at="a", started_at="b",
                     completed_at="c"), "submitted_at"),
            (line_of(VISIT, left_at=math.nan), "left_at"),
            (line_of(INSTANCE, started_at=-math.inf), "started_at"),
            (line_of(VISIT, instance_id=True), "instance_id"),
            (line_of(INSTANCE, completed_at=False), "completed_at"),
            (line_of(REQUEST, server_type=None), "server_type"),
            (line_of(INSTANCE, completed_at=10**400), "completed_at"),
            (line_of(VISIT, state=["a"]), "state"),
            (line_of(REQUEST, submitted_at=-1.7e308, started_at=-1.7e308,
                     completed_at=1.7e308), "completed_at - submitted_at"),
            (line_of(VISIT, entered_at=-1e308, left_at=1e308),
             "left_at - entered_at"),
            (line_of(INSTANCE, started_at=-(10**308), completed_at=10**308),
             "completed_at - started_at"),
        ],
        ids=[
            "infinity", "string-timestamps", "nan", "minus-infinity",
            "bool-id", "bool-timestamp", "null-name", "huge-int",
            "list-name", "far-apart-request", "far-apart-visit",
            "far-apart-int-instance",
        ],
    )
    def test_ill_typed_line_is_rejected_with_its_line_number(
        self, line, field
    ):
        with pytest.raises(ValidationError) as caught:
            parse_record_row(line, 17)
        message = str(caught.value)
        assert message.startswith("line 17: malformed ")
        assert field in message

    def test_ill_typed_line_in_a_file_names_its_line(self, tmp_path):
        path = tmp_path / "trail.jsonl"
        path.write_text(
            line_of(VISIT) + "\n\n" + line_of(INSTANCE, completed_at=math.nan)
            + "\n"
        )
        with pytest.raises(ValidationError, match="^line 3: malformed"):
            list(iter_trail_records(path))

    def test_order_messages_are_unchanged(self):
        with pytest.raises(ValidationError) as caught:
            parse_record_row(line_of(REQUEST, started_at=2.0), 4)
        assert str(caught.value) == (
            "request timestamps must be ordered "
            "submitted <= started <= completed"
        )

    def test_field_set_messages_are_the_constructors(self):
        data = dict(INSTANCE, extra=1)
        del data["kind"]
        with pytest.raises(TypeError) as constructor:
            InstanceRecord(**data)
        with pytest.raises(ValidationError) as caught:
            parse_record_row(line_of(INSTANCE, extra=1), 2)
        assert str(caught.value) == (
            f"line 2: malformed instance record: {constructor.value}"
        )
        missing = dict(VISIT)
        del missing["state"]
        with pytest.raises(ValidationError, match="^line 5: malformed .*"
                           "missing 1 required positional argument"):
            parse_record_row(json.dumps(missing), 5)

    @pytest.mark.parametrize(
        "kind", [None, 3, ["state_visit"], {"a": 1}, "visit"]
    )
    def test_unknown_kind(self, kind):
        with pytest.raises(ValidationError, match="unknown record kind"):
            parse_record_row(line_of(VISIT, kind=kind))

    @pytest.mark.parametrize(
        ("before", "after"),
        [("", "\n"), ("", " \r\n\t"), (" \t", " \n")],
        ids=["newline", "trailing", "both-sides"],
    )
    def test_json_whitespace_is_accepted_as_by_json_loads(
        self, before, after
    ):
        assert parse_record_row(before + line_of(INSTANCE) + after) == (
            parse_record_row(line_of(INSTANCE))
        )

    @pytest.mark.parametrize(
        "line",
        [
            "\ufeff" + line_of(INSTANCE),
            line_of(INSTANCE) + " {}",
            '{"kind": "instance",}',
            '{"kind": ' + "[" * 100_000 + "]" * 100_000 + "}",
            '{"instance_id": ' + "9" * 5_000 + "}",
            line_of(INSTANCE) + "\x0b",
            "",
        ],
        ids=["bom", "extra-data", "trailing-comma", "deep-nesting",
             "too-many-digits", "non-json-whitespace", "empty"],
    )
    def test_invalid_json_is_a_validation_error(self, line):
        with pytest.raises(ValidationError, match="^line 8: invalid JSON"):
            parse_record_row(line, 8)

    def test_iter_trail_rows_matches_iter_trail_records(self, tmp_path):
        path = tmp_path / "trail.jsonl"
        save_trail(sample_trail(), path)
        assert [
            RECORD_TYPES[kind](*row) for kind, row in iter_trail_rows(path)
        ] == list(iter_trail_records(path))


#: Values that break every field: wrong JSON types, non-finite floats,
#: booleans, and an integer no float can hold.
HOSTILE = ["text", True, False, None, math.nan, math.inf, -math.inf,
           [1.0], {"a": 1}, 10**400]

FIELD_VALUES = {
    "str": st.text(max_size=6),
    "int": st.integers(-3, 40),
}

#: Magnitudes of finite timestamps whose pairs lie more than the largest
#: float apart.
FAR = st.floats(0.9e308, sys.float_info.max)


@st.composite
def record_lines(draw):
    """A JSONL line of any kind: valid, or with its timestamps too far
    apart, or with one hostile field, or both."""
    kind = draw(st.sampled_from(sorted(RECORD_TYPES)))
    fields = dataclasses.fields(RECORD_TYPES[kind])
    # Each kind's timestamps are declared in the order they must hold.
    times = iter(sorted(draw(st.lists(
        st.floats(-1e6, 1e6) | st.integers(-10**6, 10**6),
        min_size=3,
        max_size=3,
    ))))
    data = {"kind": kind}
    for field in fields:
        data[field.name] = (
            next(times) if field.type == "float"
            else draw(FIELD_VALUES[field.type])
        )
    if draw(st.integers(0, 3)) == 0:
        # Finite, in order, but too far apart for their difference.
        stamps = [field.name for field in fields if field.type == "float"]
        data[stamps[0]] = -draw(FAR)
        data[stamps[-1]] = draw(FAR)
    if draw(st.booleans()):
        data[draw(st.sampled_from([f.name for f in fields]))] = draw(
            st.sampled_from(HOSTILE)
        )
    return json.dumps(data)


class TestRowProperty:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(record_lines(), max_size=40))
    def test_rows_agree_with_records(self, lines):
        rows = []
        for number, line in enumerate(lines, start=1):
            try:
                kind, row = parse_record_row(line, number)
            except ValidationError:
                with pytest.raises(ValidationError):
                    parse_record_line(line, number)
                continue
            assert parse_record_line(line, number) == (
                RECORD_TYPES[kind](*row)
            )
            stamps = [
                value
                for value, field in zip(
                    row, dataclasses.fields(RECORD_TYPES[kind])
                )
                if field.type == "float"
            ]
            assert stamps[-1] - stamps[0] <= sys.float_info.max
            rows.append((kind, row))
        records = [RECORD_TYPES[kind](*row) for kind, row in rows]

        by_rows, by_records = StreamingCalibrator(), StreamingCalibrator()
        assert by_rows.observe_rows(rows) == len(rows)
        assert by_records.replay_records(records) == len(rows)
        assert by_rows.export_state() == by_records.export_state()

        rows_monitor, records_monitor = DriftMonitor(), DriftMonitor()
        rows_monitor.observe_rows(rows)
        records_monitor.observe_all(records)
        assert rows_monitor.export_state() == records_monitor.export_state()

    @settings(max_examples=200, deadline=None)
    @given(
        st.text(max_size=40)
        | st.recursive(
            st.none() | st.booleans() | st.floats() | st.text(max_size=5)
            | st.integers(),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(
                st.sampled_from(
                    ["kind", "instance_id", "state", "left_at", "x"]
                ) | st.text(max_size=3),
                inner,
                max_size=8,
            ),
            max_leaves=12,
        ).map(json.dumps)
    )
    def test_any_line_is_a_row_or_a_validation_error(self, line):
        try:
            kind, row = parse_record_row(line, 1)
        except ValidationError:
            return
        assert RECORD_TYPES[kind](*row).row == row
