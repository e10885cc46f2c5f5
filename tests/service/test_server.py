"""Lifecycle tests for the always-on recommendation service."""

import json
import logging
import math
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.exceptions import SearchCancelledError, ValidationError
from repro.monitor.audit import AuditTrail
from repro.monitor.persistence import save_trail
from repro.service import (
    RecommendationService,
    ServiceState,
    batch_recommendation,
    render_document,
)
from repro.service import server as server_module
from repro.service.server import MAX_BODY_BYTES

from tests.monitor.test_drift import residence_shift_visits
from tests.service.conftest import TRAIL_PATH


def _get(url: str) -> tuple[int, dict, bytes]:
    try:
        with urllib.request.urlopen(url, timeout=30.0) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def _post(url: str, body: bytes, timeout: float = 30.0) -> tuple[int, dict]:
    request = urllib.request.Request(url, data=body, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
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
    """Wait until ``/status`` shows the tenant's revision covering every
    record and no search pending or running."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, _, body = _get(f"{service.url}/status")
        document = json.loads(body)
        meta = document["tenants"].get(tenant)
        if (
            meta is not None
            and meta["published"]
            and not meta["stale"]
            and document["searches_active"] == 0
        ):
            return meta
        time.sleep(0.01)
    raise AssertionError("no recommendation published in time")


def _wait_for_searches_active(service, count, timeout=10.0):
    deadline = time.monotonic() + timeout
    while True:
        status, _, body = _get(f"{service.url}/status")
        active = json.loads(body)["searches_active"]
        if active == count:
            return
        assert time.monotonic() < deadline, f"searches_active {active}"
        time.sleep(0.01)


def _search_threads() -> int:
    return sum(
        thread.name.startswith("repro-search")
        for thread in threading.enumerate()
    )


def _bodies(trail_lines: bytes, size: int) -> list[bytes]:
    lines = trail_lines.splitlines(keepends=True)
    return [
        b"".join(lines[start:start + size])
        for start in range(0, len(lines), size)
    ]


@pytest.fixture()
def ordered_trail(trail_lines, tmp_path):
    """The sample trail in completion order, so that every prefix holds
    completed instances and each POST's search can publish."""

    def end(line: bytes) -> float:
        record = json.loads(line)
        return record.get("left_at", record.get("completed_at"))

    path = tmp_path / "ordered.jsonl"
    path.write_bytes(b"".join(
        sorted(trail_lines.splitlines(keepends=True), key=end)
    ))
    return path


@pytest.fixture()
def counters():
    """Read ``service.searches.*`` counters, recorded for this test."""
    obs.reset()
    obs.enable()
    yield lambda name: obs.registry().counter(
        f"service.searches.{name}"
    ).value
    obs.disable()
    obs.reset()


class _Hold:
    """Every search of the service waits at its start until released.

    The search then polls its ``stop_check`` and raises
    :class:`SearchCancelledError` if a newer submission or ``stop()``
    cancelled it while it waited.  ``started`` lists the calibration
    position of each search that began.
    """

    def __init__(self) -> None:
        self.release = threading.Event()
        self.entered = threading.Event()
        self.started: list[int] = []


@pytest.fixture()
def held_searches(monkeypatch):
    hold = _Hold()
    search = server_module.recommend_from_calibration

    def held(calibrator, *args, stop_check, **kwargs):
        hold.started.append(calibrator.records_seen)
        hold.entered.set()
        assert hold.release.wait(timeout=30.0)
        if stop_check():
            raise SearchCancelledError("cancelled while held")
        return search(calibrator, *args, stop_check=stop_check, **kwargs)

    monkeypatch.setattr(server_module, "recommend_from_calibration", held)
    yield hold
    hold.release.set()


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


class TestIllTypedLines:
    """Ill-typed lines are rejected one by one and never reach a tenant.

    An ``Infinity`` timestamp, finite timestamps too far apart for
    their difference, or a service time whose square overflows used to
    be ingested and fail every later search of the tenant; string
    timestamps failed the whole POST with a 500.
    """

    @staticmethod
    def _hostile(lines: list[bytes]) -> list[bytes]:
        def first(kind: bytes) -> dict:
            return json.loads(next(line for line in lines if kind in line))

        request = first(b'"service_request"')
        visit = first(b'"state_visit"')
        instance = first(b'"instance"')
        return [
            json.dumps({**request, "completed_at": math.inf}),
            json.dumps({**request, "submitted_at": "a", "started_at": "b",
                        "completed_at": "c"}),
            json.dumps({**request, "submitted_at": 0.0, "started_at": 0.0,
                        "completed_at": 1e160}),
            json.dumps({**visit, "left_at": math.nan}),
            json.dumps({**request, "submitted_at": -1.7e308,
                        "started_at": -1.7e308, "completed_at": 1.7e308}),
            json.dumps({**instance, "instance_id": True}),
        ]

    def test_rejected_alone_and_the_rest_served_as_batch(
        self, service, baseline, goals, trail_lines
    ):
        lines = trail_lines.splitlines()
        hostile = self._hostile(lines)
        body = [*lines]
        # Lines 1, 101, 201, 401 and 601, and the last line (745 + 6).
        for position, line in zip((0, 100, 200, 400, 600, 750), hostile):
            body.insert(position, line.encode())
        status, summary = _post(
            f"{service.url}/events", b"\n".join(body) + b"\n"
        )
        assert status == 200, summary
        assert summary["ingested"] == 745
        assert summary["rejected"] == 6
        assert [r["line"] for r in summary["rejections"]] == [
            1, 101, 201, 401, 601, 751,
        ]
        assert all("malformed" in r["error"] for r in summary["rejections"])

        _wait_until_published(service)
        status, _, served = _get(f"{service.url}/recommendation")
        assert status == 200
        assert served == render_document(
            batch_recommendation(str(TRAIL_PATH), baseline, goals)
        )

    def test_every_rejection_is_counted_and_ten_are_echoed(
        self, service, trail_lines
    ):
        hostile = self._hostile(trail_lines.splitlines())[0]
        body = "\n".join([hostile] * 12).encode()
        status, summary = _post(f"{service.url}/events", body)
        assert status == 400
        assert summary["rejected"] == 12
        assert len(summary["rejections"]) == 10


class TestUnknownTenants:
    """Reads never create a tenant; only POST /events does."""

    def test_reads_of_unknown_tenants_are_404(self, service):
        for query in (
            "/status?tenant=ghost",
            "/recommendation?tenant=ghost",
            "/recommendation?tenant=ghost&refresh=1",
        ):
            status, _, body = _get(f"{service.url}{query}")
            assert status == 404, query
            assert "ghost" in json.loads(body)["error"]
        status, _, body = _get(f"{service.url}/status")
        assert json.loads(body)["tenants"] == {}
        assert service.state.tenants == {}

    def test_snapshot_names_only_posted_tenants(
        self, baseline, goals, trail_lines, tmp_path
    ):
        snapshot = tmp_path / "snapshot.json"
        service = RecommendationService(
            baseline, goals, snapshot_path=str(snapshot)
        )
        service.start()
        try:
            _post(f"{service.url}/events?tenant=alpha", trail_lines)
            _get(f"{service.url}/status?tenant=ghost")
            _get(f"{service.url}/recommendation?tenant=ghost2")
        finally:
            service.stop()
        tenants = json.loads(snapshot.read_text())["tenants"]
        assert sorted(tenants) == ["alpha"]


class TestBodyLimit:
    """POST /events never waits for a body it will not read."""

    @staticmethod
    def _raw_post(service, content_length: int) -> bytes:
        """Send only the head of a POST; return the whole response."""
        head = (
            "POST /events HTTP/1.1\r\n"
            f"Host: {service.host}\r\n"
            f"Content-Length: {content_length}\r\n\r\n"
        ).encode("ascii")
        with socket.create_connection(
            (service.host, service.port), timeout=5.0
        ) as connection:
            connection.sendall(head)
            chunks = []
            while chunk := connection.recv(65536):
                chunks.append(chunk)
        return b"".join(chunks)

    def test_oversized_body_is_413_before_reading(self, service):
        response = self._raw_post(service, MAX_BODY_BYTES + 1)
        status_line, _, rest = response.partition(b"\r\n")
        assert status_line == b"HTTP/1.1 413 Content Too Large"
        body = json.loads(rest.partition(b"\r\n\r\n")[2])
        assert str(MAX_BODY_BYTES) in body["error"]

    def test_negative_length_is_400(self, service):
        response = self._raw_post(service, -5)
        assert response.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"negative Content-Length" in response


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


def _gate_submissions(service) -> threading.Event:
    """Block the loop thread in every search submission until the
    returned event is set."""
    release = threading.Event()
    submit = service.worker.submit

    def gated_submit(*args, **kwargs):
        release.wait(timeout=30.0)
        return submit(*args, **kwargs)

    service.worker.submit = gated_submit
    return release


class TestReplyBeforeSearch:
    """POST /events is answered before its re-search is submitted."""

    def test_post_is_answered_while_its_submission_waits(
        self, service, baseline, goals, trail_lines
    ):
        release = _gate_submissions(service)
        try:
            status, summary = _post(
                f"{service.url}/events", trail_lines, timeout=3.0
            )
            answered_first = not release.is_set()
        finally:
            release.set()
        assert status == 200
        assert answered_first
        assert summary["search_scheduled"] is True

        _wait_until_published(service)
        status, _, served = _get(f"{service.url}/recommendation")
        assert status == 200
        batch = render_document(
            batch_recommendation(str(TRAIL_PATH), baseline, goals)
        )
        assert served == batch

    def test_stop_drops_a_queued_submission_quietly(
        self, baseline, goals, trail_lines, tmp_path, caplog
    ):
        snapshot = tmp_path / "snapshot.json"
        service = RecommendationService(
            baseline, goals, snapshot_path=str(snapshot)
        )
        service.start()
        release = _gate_submissions(service)
        stop = service.worker.stop

        def stop_then_release(*args, **kwargs):
            done = stop(*args, **kwargs)
            release.set()
            return done

        service.worker.stop = stop_then_release
        obs.reset()
        obs.enable()
        try:
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                status, summary = _post(
                    f"{service.url}/events", trail_lines, timeout=3.0
                )
                service.stop()
            started = obs.registry().counter(
                "service.searches.started"
            ).value
        finally:
            release.set()
            service.stop(snapshot=False)  # no-op once stopped
            obs.disable()
            obs.reset()
        assert status == 200
        assert summary["search_scheduled"] is True
        assert not service.running
        assert caplog.records == []
        assert started == 0
        tenant = ServiceState.load_snapshot(snapshot).tenants["default"]
        assert tenant.document is None
        assert tenant.records_seen == 745


class TestOneSearchThread:
    """At most one search thread runs, and a tenant's newest submission
    wins: it overwrites the tenant's pending slot and cancels its
    running search."""

    def test_200_posts_over_50_tenants_run_one_search_thread(
        self, service, held_searches, baseline, goals, ordered_trail
    ):
        bodies = _bodies(ordered_trail.read_bytes(), 187)
        assert len(bodies) == 4
        tenants = [f"t{index}" for index in range(50)]
        statuses, peaks = [], []

        def client(mine: list[str]) -> None:
            for body in bodies:
                for tenant in mine:
                    status, _ = _post(
                        f"{service.url}/events?tenant={tenant}", body
                    )
                    statuses.append(status)
                    peaks.append(_search_threads())

        clients = [
            threading.Thread(target=client, args=(tenants[first::8],))
            for first in range(8)
        ]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in clients)
        assert statuses == [200] * 200
        assert max(peaks) == 1
        # One held search plus a slot per tenant, each holding the
        # tenant's last POST.
        _wait_for_searches_active(service, 51)
        assert _search_threads() == 1
        held_searches.release.set()
        for tenant in tenants:
            _wait_until_published(service, tenant)

        assert _search_threads() <= 1
        assert len(held_searches.started) == 51
        batch = render_document(
            batch_recommendation(str(ordered_trail), baseline, goals)
        )
        for tenant in tenants:
            status, _, served = _get(
                f"{service.url}/recommendation?tenant={tenant}"
            )
            assert status == 200
            assert served == batch

    def test_newest_submission_wins_while_a_search_is_held(
        self, service, held_searches, counters, baseline, goals,
        ordered_trail,
    ):
        lines = ordered_trail.read_bytes().splitlines(keepends=True)
        bodies = [b"".join(lines[:300]), b"".join(lines[300:600]),
                  b"".join(lines[600:])]
        status, _ = _post(f"{service.url}/events", bodies[0])
        assert status == 200
        assert held_searches.entered.wait(timeout=10.0)
        for body in bodies[1:]:
            status, summary = _post(f"{service.url}/events", body)
            assert status == 200
            assert summary["search_scheduled"] is True
        # The held search plus one pending slot, which the last POST
        # overwrote.
        _wait_for_searches_active(service, 2)
        held_searches.release.set()
        meta = _wait_until_published(service)

        assert held_searches.started == [300, 745]
        assert meta["revision"] == 1
        assert meta["records_at_publish"] == 745
        assert counters("started") == 3
        assert counters("superseded") == 2
        assert counters("completed") == 1
        status, _, served = _get(f"{service.url}/recommendation")
        assert served == render_document(
            batch_recommendation(str(ordered_trail), baseline, goals)
        )

    def test_a_superseded_result_is_not_published(
        self, service, counters, monkeypatch, baseline, goals, trail_lines
    ):
        """Publishing is gated by generation on the loop thread: a
        search that ignores its cancellation still finishes, but its
        document never becomes visible."""
        release, entered = threading.Event(), threading.Event()
        search = server_module.recommend_from_calibration

        def stubborn(calibrator, *args, stop_check, **kwargs):
            entered.set()
            assert release.wait(timeout=30.0)
            return search(calibrator, *args, **kwargs)

        monkeypatch.setattr(
            server_module, "recommend_from_calibration", stubborn
        )
        # The first 700 lines hold completed instances, so the first
        # search finds a document to publish.
        lines = trail_lines.splitlines(keepends=True)
        _post(f"{service.url}/events", b"".join(lines[:700]))
        assert entered.wait(timeout=10.0)
        _post(f"{service.url}/events", b"".join(lines[700:]))
        _wait_for_searches_active(service, 2)
        release.set()
        meta = _wait_until_published(service)

        assert meta["revision"] == 1
        assert meta["records_at_publish"] == 745
        assert counters("superseded") == 1
        assert counters("completed") == 1
        status, _, served = _get(f"{service.url}/recommendation")
        assert served == render_document(
            batch_recommendation(str(TRAIL_PATH), baseline, goals)
        )

    def test_stop_drops_pending_slots_and_joins_the_thread(
        self, service, held_searches, counters, trail_lines
    ):
        for tenant in ("a", "b", "c"):
            _post(f"{service.url}/events?tenant={tenant}", trail_lines)
            assert held_searches.entered.wait(timeout=10.0)
        _wait_for_searches_active(service, 3)
        joined = []
        stopper = threading.Thread(
            target=lambda: joined.append(service.worker.stop(timeout=10.0))
        )
        stopper.start()
        deadline = time.monotonic() + 10.0
        while service.worker.active() != 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        held_searches.release.set()
        stopper.join(timeout=15.0)

        assert not stopper.is_alive()
        assert joined == [True]
        assert _search_threads() == 0
        assert service.worker.active() == 0
        assert held_searches.started == [745]
        assert counters("started") == 3
        assert counters("superseded") == 3
        assert counters("completed") == 0
        assert service.worker.submit("a", lambda stop_check: None) is False
        service.stop(snapshot=False)
        assert not service.running


class TestSearchCounters:
    """Once the service is drained, every submission is accounted for:
    started == completed + superseded + errors."""

    def test_sequential_replay_supersedes_nothing(
        self, service, counters, ordered_trail
    ):
        bodies = _bodies(ordered_trail.read_bytes(), 150)
        for body in bodies:
            status, summary = _post(f"{service.url}/events", body)
            assert status == 200 and summary["search_scheduled"]
            _wait_until_published(service)
        assert counters("started") == len(bodies) == 5
        assert counters("completed") == 5
        assert counters("superseded") == 0
        assert counters("errors") == 0
        # Searches are counted by the service.searches family alone; the
        # only other search.* counters are the frontier sweep's.
        assert [
            name for name in obs.registry().metrics()
            if name.startswith("search.")
            and not name.startswith("search.frontier.")
        ] == []

    def test_burst_across_tenants_accounts_for_every_search(
        self, service, counters, baseline, goals, ordered_trail
    ):
        bodies = _bodies(ordered_trail.read_bytes(), 150)
        tenants = [f"burst{index}" for index in range(8)]
        statuses = []

        def feed(tenant: str) -> None:
            for body in bodies:
                statuses.append(
                    _post(f"{service.url}/events?tenant={tenant}", body)[0]
                )

        threads = [
            threading.Thread(target=feed, args=(tenant,))
            for tenant in tenants
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        for tenant in tenants:
            _wait_until_published(service, tenant)

        assert statuses == [200] * 40
        started, completed, superseded, errors = (
            counters(name)
            for name in ("started", "completed", "superseded", "errors")
        )
        assert started == 40
        assert errors == 0
        assert completed >= len(tenants)
        assert started == completed + superseded + errors
        batch = render_document(
            batch_recommendation(str(ordered_trail), baseline, goals)
        )
        for tenant in tenants:
            assert _get(
                f"{service.url}/recommendation?tenant={tenant}"
            )[2] == batch


class TestFirstCompletedInstance:
    """A tenant with no completed instance queues no re-search: the
    search needs arrival rates and per-instance loads, so it could only
    raise."""

    def test_no_search_before_an_instance_completes(
        self, service, counters, baseline, goals, trail_lines
    ):
        lines = trail_lines.splitlines(keepends=True)
        instances = [line for line in lines if b'"instance"' in line]
        others = [line for line in lines if b'"instance"' not in line]
        status, summary = _post(f"{service.url}/events", b"".join(others))
        assert status == 200 and summary["ingested"] == 626
        assert summary["search_scheduled"] is False

        status, summary = _post(f"{service.url}/events", b"".join(instances))
        assert status == 200 and summary["search_scheduled"] is True
        _wait_until_published(service)
        assert counters("errors") == 0
        assert counters("started") == counters("completed") == 1
        assert _get(f"{service.url}/recommendation")[2] == render_document(
            batch_recommendation(str(TRAIL_PATH), baseline, goals)
        )


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

    def test_a_restarted_service_publishes(
        self, baseline, goals, trail_lines
    ):
        service = RecommendationService(baseline, goals)
        service.start()
        service.stop()
        service.start()
        try:
            _post(f"{service.url}/events", trail_lines)
            _wait_until_published(service)
            status, _, served = _get(f"{service.url}/recommendation")
        finally:
            service.stop()
        assert status == 200
        assert served == render_document(
            batch_recommendation(str(TRAIL_PATH), baseline, goals)
        )

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


class TestWindowValidation:
    @pytest.mark.parametrize("window", [math.nan, math.inf, 0.0, -1.0])
    def test_constructor_rejects_a_bad_window(self, baseline, goals, window):
        # Tenants are made at their first POST, so a bad window must be
        # caught here, not answered with 400 on every POST.
        with pytest.raises(
            ValidationError, match="window must be positive and finite"
        ):
            RecommendationService(baseline, goals, window=window)
