"""Lifecycle tests for the always-on recommendation service."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.monitor.audit import AuditTrail
from repro.monitor.persistence import save_trail
from repro.service import (
    RecommendationService,
    batch_recommendation,
    render_document,
)

from tests.monitor.test_drift import residence_shift_visits
from tests.service.conftest import TRAIL_PATH


def _get(url: str) -> tuple[int, dict, bytes]:
    try:
        with urllib.request.urlopen(url, timeout=30.0) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def _post(url: str, body: bytes) -> tuple[int, dict]:
    request = urllib.request.Request(url, data=body, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read() or b"{}")


@pytest.fixture()
def service(baseline, goals, tmp_path):
    service = RecommendationService(
        baseline,
        goals,
        snapshot_path=str(tmp_path / "snapshot.json"),
    )
    service.start()
    yield service
    service.stop(snapshot=False)


def _wait_until_published(service, tenant="default", timeout=30.0):
    """Wait for the background search pipeline to drain and publish."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        service.executor.join(timeout=1.0)
        status, _, body = _get(
            f"{service.url}/status?tenant={tenant}"
        )
        meta = json.loads(body)
        if (
            meta["published"]
            and not meta["stale"]
            and service.executor.active_count() == 0
        ):
            return meta
        time.sleep(0.05)
    raise AssertionError("no recommendation published in time")


class TestEndpoints:
    def test_recommendation_404_until_published(self, service):
        status, _, body = _get(f"{service.url}/recommendation")
        assert status == 404
        assert "no recommendation" in json.loads(body)["error"]

    def test_unknown_path_lists_endpoints(self, service):
        status, _, body = _get(f"{service.url}/nope")
        assert status == 404
        assert "/recommendation" in json.loads(body)["endpoints"]

    def test_wrong_method_is_405(self, service):
        status, body = _post(f"{service.url}/recommendation", b"")
        assert status == 405
        assert "GET" in body["error"]
        status, _ = _post(f"{service.url}/status", b"")
        assert status == 405

    def test_health_and_metrics(self, service):
        status, _, body = _get(f"{service.url}/health")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        status, _, body = _get(f"{service.url}/metrics")
        assert status == 200
        assert b"repro_" in body

    def test_malformed_lines_are_rejected_not_fatal(self, service):
        body = b'not json\n{"kind": "unknown"}\n'
        status, summary = _post(f"{service.url}/events", body)
        assert status == 400
        assert summary["ingested"] == 0
        assert summary["rejected"] == 2
        assert len(summary["rejections"]) == 2


class TestDriftPost:
    @pytest.fixture()
    def shift_body(self, tmp_path):
        """JSONL of state visits whose residence times jump fourfold."""
        trail = AuditTrail()
        for record in residence_shift_visits():
            trail.record_state_visit(record)
        path = tmp_path / "shift.jsonl"
        save_trail(trail, path)
        return path.read_bytes()

    def test_confirmed_drift_answers_200_and_ingests_every_line(
        self, service, shift_body
    ):
        status, summary = _post(f"{service.url}/events", shift_body)
        assert status == 200, summary
        assert summary["ingested"] == 400
        assert summary["records_seen"] == 400
        assert summary["drift_confirmed"] >= 1
        tenant = service.state.tenant()
        assert tenant.drift_confirmations == summary["drift_confirmed"]

    def test_confirmed_drift_emits_a_service_drift_event(
        self, service, shift_body
    ):
        obs.reset()
        obs.enable()
        try:
            status, summary = _post(f"{service.url}/events", shift_body)
            events = [
                event for event in obs.tracer().events
                if event.get("event") == "service.drift"
            ]
        finally:
            obs.disable()
            obs.reset()
        assert status == 200, summary
        assert len(events) == summary["drift_confirmed"] >= 1
        assert events[0]["tenant"] == "default"
        assert events[0]["family"] == "residence_time"
        assert events[0]["subject"] == "wf/a"


class TestServeLoop:
    def test_ingest_publish_and_byte_identity(
        self, service, baseline, goals, trail_lines
    ):
        status, summary = _post(f"{service.url}/events", trail_lines)
        assert status == 200
        assert summary["ingested"] == 745
        assert summary["search_scheduled"] is True

        meta = _wait_until_published(service)
        assert meta["revision"] >= 1

        status, headers, served = _get(f"{service.url}/recommendation")
        assert status == 200
        assert headers["X-Recommendation-Stale"] == "false"
        assert headers["X-Recommendation-Age-Records"] == "0"

        batch = render_document(
            batch_recommendation(str(TRAIL_PATH), baseline, goals)
        )
        assert served == batch

    def test_refresh_recomputes_synchronously(
        self, service, baseline, goals, trail_lines
    ):
        _post(f"{service.url}/events", trail_lines)
        status, headers, served = _get(
            f"{service.url}/recommendation?refresh=1"
        )
        assert status == 200
        batch = render_document(
            batch_recommendation(str(TRAIL_PATH), baseline, goals)
        )
        assert served == batch

    def test_concurrent_tenants_do_not_interfere(
        self, service, baseline, goals, trail_lines
    ):
        """Two tenants fed concurrently each reproduce the batch bytes."""
        lines = trail_lines.splitlines(keepends=True)
        chunks = [
            b"".join(lines[start:start + 150])
            for start in range(0, len(lines), 150)
        ]

        def feed(tenant: str) -> None:
            for chunk in chunks:
                status, summary = _post(
                    f"{service.url}/events?tenant={tenant}", chunk
                )
                assert status == 200

        threads = [
            threading.Thread(target=feed, args=(name,))
            for name in ("alpha", "beta")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        batch = render_document(
            batch_recommendation(str(TRAIL_PATH), baseline, goals)
        )
        for tenant in ("alpha", "beta"):
            status, _, served = _get(
                f"{service.url}/recommendation?tenant={tenant}&refresh=1"
            )
            assert status == 200
            assert served == batch

    def test_status_lists_all_tenants(self, service, trail_lines):
        _post(f"{service.url}/events?tenant=alpha", trail_lines)
        status, _, body = _get(f"{service.url}/status")
        document = json.loads(body)
        assert "alpha" in document["tenants"]
        assert "searches_active" in document


class TestSnapshotLifecycle:
    def test_graceful_shutdown_writes_snapshot_and_warm_restart(
        self, baseline, goals, trail_lines, tmp_path
    ):
        snapshot = tmp_path / "snapshot.json"
        first = RecommendationService(
            baseline, goals, snapshot_path=str(snapshot)
        )
        first.start()
        try:
            _post(f"{first.url}/events", trail_lines)
            _get(f"{first.url}/recommendation?refresh=1")
            status, _, served_before = _get(f"{first.url}/recommendation")
            assert status == 200
        finally:
            first.stop()  # snapshot=True default
        assert snapshot.exists()

        second = RecommendationService(
            baseline, goals, snapshot_path=str(snapshot)
        )
        second.start()
        try:
            # The published document survives the restart verbatim,
            # without any re-ingestion or refresh.
            status, headers, served_after = _get(
                f"{second.url}/recommendation"
            )
            assert status == 200
            assert served_after == served_before
            status, _, body = _get(f"{second.url}/status?tenant=default")
            meta = json.loads(body)
            assert meta["records_seen"] == 745
            assert meta["stale"] is False
        finally:
            second.stop(snapshot=False)

    def test_stop_without_snapshot_leaves_no_file(
        self, baseline, goals, tmp_path
    ):
        snapshot = tmp_path / "none.json"
        service = RecommendationService(
            baseline, goals, snapshot_path=str(snapshot)
        )
        service.start()
        service.stop(snapshot=False)
        assert not snapshot.exists()

    def test_stop_is_idempotent(self, baseline, goals):
        service = RecommendationService(baseline, goals)
        service.start()
        service.stop()
        service.stop()

    def test_context_manager(self, baseline, goals):
        with RecommendationService(baseline, goals) as service:
            status, _, _ = _get(f"{service.url}/health")
            assert status == 200
        assert not service.running
