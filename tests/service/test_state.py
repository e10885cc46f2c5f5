"""Tests for tenant shards and the service snapshot format."""

import json
import os

import pytest

from repro.exceptions import ValidationError
from repro.service import (
    DEFAULT_TENANT,
    SNAPSHOT_SCHEMA,
    ServiceState,
    TenantState,
    recommend_from_calibration,
    render_document,
)


class TestTenantState:
    def test_empty_name_raises(self):
        with pytest.raises(ValidationError):
            TenantState("")

    def test_get_or_create(self):
        state = ServiceState()
        shard = state.tenant("alpha")
        assert state.tenant("alpha") is shard
        assert state.tenant().name == DEFAULT_TENANT
        assert set(state.tenants) == {"alpha", DEFAULT_TENANT}

    def test_drift_callback_carries_tenant_name(self, trail_records):
        seen = []
        state = ServiceState(
            on_drift=lambda name, event: seen.append((name, event.kind))
        )
        shard = state.tenant("alpha")
        assert shard.monitor._on_drift is not None

    def test_staleness_before_any_publish(self):
        shard = TenantState("alpha")
        meta = shard.staleness()
        assert meta["published"] is False
        assert meta["revision"] == 0
        assert meta["stale"] is True

    def test_staleness_after_publish_and_more_records(
        self, trail_records
    ):
        shard = TenantState("alpha")
        for record in trail_records[:200]:
            shard.monitor.observe(record)
        shard.publish({"schema": "x"}, shard.records_seen)
        assert shard.staleness()["stale"] is False
        assert shard.staleness()["age_records"] == 0
        for record in trail_records[200:220]:
            shard.monitor.observe(record)
        meta = shard.staleness()
        assert meta["age_records"] == 20
        assert meta["stale"] is True

    def test_drift_since_publish_marks_stale(self):
        shard = TenantState("alpha")
        shard.publish({"schema": "x"}, 0)
        assert shard.staleness()["stale"] is False
        shard.drift_confirmations += 1
        meta = shard.staleness()
        assert meta["drift_since_publish"] == 1
        assert meta["stale"] is True


class TestSnapshotRoundTrip:
    def test_mid_stream_restore_is_bitwise_transparent(
        self, baseline, goals, trail_records
    ):
        """Snapshot + restore mid-stream must not perturb a single bit.

        Two shards see the same record sequence; one is serialized to
        JSON and rebuilt halfway through.  Their final recommendation
        documents must be byte-identical — the warm-restart guarantee.
        """
        straight = ServiceState()
        restarted = ServiceState()
        half = len(trail_records) // 2
        for record in trail_records[:half]:
            straight.tenant().monitor.observe(record)
            restarted.tenant().monitor.observe(record)

        wire = json.dumps(restarted.export_snapshot(), sort_keys=True)
        restarted = ServiceState.restore_snapshot(json.loads(wire))

        for record in trail_records[half:]:
            straight.tenant().monitor.observe(record)
            restarted.tenant().monitor.observe(record)

        documents = [
            render_document(
                recommend_from_calibration(
                    state.tenant().calibrator, baseline, goals
                )
            )
            for state in (straight, restarted)
        ]
        assert documents[0] == documents[1]

    def test_snapshot_preserves_published_document(self, tmp_path):
        state = ServiceState()
        shard = state.tenant("alpha")
        shard.publish({"schema": "doc", "feasible": True}, 0)
        path = tmp_path / "snapshot.json"
        assert state.save_snapshot(path) == 1
        restored = ServiceState.load_snapshot(path)
        again = restored.tenant("alpha")
        assert again.document == {"schema": "doc", "feasible": True}
        assert again.revision == 1

    @pytest.mark.parametrize("step", ["fsync", "replace"])
    def test_failed_write_keeps_previous_snapshot(
        self, tmp_path, monkeypatch, step
    ):
        path = tmp_path / "snapshot.json"
        state = ServiceState()
        state.tenant("alpha").publish({"schema": "doc"}, 0)
        state.save_snapshot(path)
        previous = path.read_bytes()
        state.tenant("beta")

        def disk_full(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, step, disk_full)
        with pytest.raises(OSError, match="No space"):
            state.save_snapshot(path)
        monkeypatch.undo()
        assert path.read_bytes() == previous
        assert [entry.name for entry in tmp_path.iterdir()] == [path.name]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            ServiceState.load_snapshot(tmp_path / "nope.json")

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/v1"}))
        with pytest.raises(ValidationError, match="not a service"):
            ServiceState.load_snapshot(path)

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(ValidationError, match="invalid JSON"):
            ServiceState.load_snapshot(path)

    def test_schema_tag_is_stable(self):
        assert (
            ServiceState().export_snapshot()["schema"] == SNAPSHOT_SCHEMA
        )
