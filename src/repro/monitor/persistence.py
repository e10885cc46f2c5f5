"""Persistence of audit trails as JSON Lines.

A real monitoring pipeline collects audit records continuously and the
calibration component consumes them offline (Section 7.1); this module
provides the interchange format: one JSON object per line, with a
``kind`` discriminator (``state_visit`` / ``service_request`` /
``instance``).  Files written by one process can be loaded by another.
Every line goes through one decoder, :func:`parse_record_row`, which
validates it with its record type's ``check_row`` and returns the row;
the record readers build records from those rows.
"""

from __future__ import annotations

import dataclasses
import json
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterator

from repro.exceptions import ValidationError
from repro.monitor.audit import (
    INSTANCE,
    RECORD_TYPES,
    SERVICE_REQUEST,
    STATE_VISIT,
    AuditRecord,
    AuditTrail,
)

#: The scanner ``json.loads`` runs, without its Python wrapper.
_scan_once = json.JSONDecoder().scan_once


def _layout(record_type: type) -> tuple:
    names = [field.name for field in dataclasses.fields(record_type)]
    return len(names) + 1, itemgetter(*names), record_type.check_row


#: kind -> (the number of keys of its line, row getter, row check).
_LAYOUTS = {
    kind: _layout(record_type) for kind, record_type in RECORD_TYPES.items()
}
#: The keys of a service-request line without ``instance_id``.
_UNATTRIBUTED_REQUEST = frozenset(
    field.name
    for field in dataclasses.fields(RECORD_TYPES[SERVICE_REQUEST])
    if field.name != "instance_id"
)


def _record_lines(trail: AuditTrail) -> Iterator[dict[str, Any]]:
    for visit in trail.state_visits:
        yield {
            "kind": STATE_VISIT,
            "instance_id": visit.instance_id,
            "workflow_type": visit.workflow_type,
            "state": visit.state,
            "entered_at": visit.entered_at,
            "left_at": visit.left_at,
            "next_state": visit.next_state,
        }
    for request in trail.service_requests:
        yield {
            "kind": SERVICE_REQUEST,
            "server_type": request.server_type,
            "server_name": request.server_name,
            "submitted_at": request.submitted_at,
            "started_at": request.started_at,
            "completed_at": request.completed_at,
            "instance_id": request.instance_id,
        }
    for instance in trail.instances:
        yield {
            "kind": INSTANCE,
            "instance_id": instance.instance_id,
            "workflow_type": instance.workflow_type,
            "started_at": instance.started_at,
            "completed_at": instance.completed_at,
        }


def save_trail(trail: AuditTrail, path: str | Path) -> int:
    """Write a trail as JSON Lines; returns the number of records."""
    count = 0
    with Path(path).open("w") as stream:
        for record in _record_lines(trail):
            stream.write(json.dumps(record, sort_keys=True))
            stream.write("\n")
            count += 1
    return count


def _decode(line: str, line_number: int) -> Any:
    """The JSON value of ``line``, exactly as ``json.loads`` reads it.

    The scanner decodes a line that starts with a JSON value and has at
    most JSON whitespace after it; anything else (leading whitespace, a
    byte-order mark, extra data, malformed JSON) goes to ``json.loads``,
    which accepts the same values and words the error.
    """
    try:
        value, end = _scan_once(line, 0)
    except (StopIteration, ValueError, RecursionError):
        pass
    else:
        if end == len(line) or not line[end:].strip(" \t\n\r"):
            return value
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(
            f"line {line_number}: invalid JSON: {exc}"
        ) from exc


def parse_record_row(line: str, line_number: int = 0) -> tuple[str, tuple]:
    """Decode and validate one JSONL audit-record line into a row.

    Returns ``(kind, row)``: the record kind and the tuple of its
    fields in record order, the form :class:`~repro.monitor.audit.AuditTrail`
    keeps pending rows in and
    :meth:`~repro.monitor.stream.StreamingCalibrator.observe_row`
    consumes.  The line must be a JSON object (as ``json.loads`` reads
    it) whose keys are ``kind`` plus exactly its record type's fields
    (a service request may omit ``instance_id``, which is then -1), and
    whose row passes the record type's ``check_row``: names strings, ids
    integers, timestamps finite numbers, in order.  Anything else raises
    :class:`~repro.exceptions.ValidationError`; JSON, field-set and
    typing errors name ``line_number``.
    """
    data = _decode(line, line_number)
    if type(data) is not dict:
        raise ValidationError(f"line {line_number}: expected a JSON object")
    kind = data.get("kind")
    layout = _LAYOUTS.get(kind) if type(kind) is str else None
    if layout is None:
        raise ValidationError(f"unknown record kind {kind!r}")
    size, row_of, check_row = layout
    # The right number of keys, all of them found: exactly the fields.
    try:
        row = row_of(data) if len(data) == size else None
    except KeyError:
        row = None
    if row is None:
        row = _irregular_row(kind, data, line_number)
    check_row(row, line_number)
    return kind, row


def _irregular_row(kind: str, data: dict, line_number: int) -> tuple:
    """The row of a line whose keys are not its kind's fields plus kind.

    Only a service request without ``instance_id`` has one, with the
    record's default -1; any other line raises the record constructor's
    complaint about its missing or unexpected fields.
    """
    del data["kind"]
    if kind == SERVICE_REQUEST and data.keys() == _UNATTRIBUTED_REQUEST:
        data["instance_id"] = -1
        return _LAYOUTS[kind][1](data)
    try:
        return RECORD_TYPES[kind](**data).row
    except TypeError as exc:
        raise ValidationError(
            f"line {line_number}: malformed {kind} record: {exc}"
        ) from exc


def parse_record_line(line: str, line_number: int = 0) -> AuditRecord:
    """Parse one JSONL audit-record line into a validated record.

    The record built from :func:`parse_record_row`'s row; raises what
    it raises.  The wire format of a ``POST /events`` body is exactly
    the on-disk trail format, so a trail file can be replayed against a
    running service verbatim.
    """
    kind, row = parse_record_row(line, line_number)
    return RECORD_TYPES[kind](*row)


def load_trail(path: str | Path) -> AuditTrail:
    """Read a JSON Lines trail file; validates every record."""
    trail = AuditTrail()
    pending = {
        STATE_VISIT: trail.state_visit_rows,
        SERVICE_REQUEST: trail.service_request_rows,
        INSTANCE: trail.instance_rows,
    }
    for kind, row in iter_trail_rows(path):
        pending[kind].append(row)
    return trail


def iter_trail_rows(path: str | Path) -> Iterator[tuple[str, tuple]]:
    """Stream a JSON Lines trail file one validated ``(kind, row)`` at a
    time.

    This is the continuous-monitoring entry point: a live pipeline (or
    the ``monitor`` CLI subcommand) feeds each row straight into a
    :class:`~repro.monitor.stream.StreamingCalibrator` or
    :class:`~repro.monitor.drift.DriftMonitor` without materializing the
    trail.  Rows come in file order, from :func:`parse_record_row`;
    blank lines are skipped and a malformed line raises
    :class:`~repro.exceptions.ValidationError`.
    """
    try:
        stream = Path(path).open("r", encoding="utf-8")
    except FileNotFoundError:
        raise ValidationError(f"trail file not found: {path}") from None
    with stream:
        for line_number, line in enumerate(stream, start=1):
            line = line.strip()
            if line:
                yield parse_record_row(line, line_number)


def iter_trail_records(path: str | Path) -> Iterator[AuditRecord]:
    """Stream a JSON Lines trail file one validated record at a time.

    The records built from :func:`iter_trail_rows`, in file order.
    """
    for kind, row in iter_trail_rows(path):
        yield RECORD_TYPES[kind](*row)
