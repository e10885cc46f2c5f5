"""Tests for the live metrics HTTP endpoint."""

import json
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs.export import SCHEMA
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import ENDPOINTS, MetricsServer
from repro.obs.trace import Tracer


def _get(url: str) -> tuple[int, str, str]:
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


@pytest.fixture()
def populated_server():
    registry = MetricsRegistry()
    registry.inc("monitor.stream.records", 42.0)
    registry.set_gauge("campaign.workers", 4.0)
    tracer = Tracer()
    with tracer.span("campaign.run"):
        pass
    server = MetricsServer(port=0, registry=registry, tracer=tracer)
    server.start()
    yield server
    server.stop()


class TestEndpoints:
    def test_metrics_is_prometheus_text(self, populated_server):
        status, content_type, body = _get(
            f"{populated_server.url}/metrics"
        )
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        assert "repro_monitor_stream_records 42" in body
        assert "# TYPE repro_campaign_workers gauge" in body
        for line in body.splitlines():
            if line.startswith("#"):
                continue
            float(line.rsplit(" ", 1)[1])  # every sample line parses

    def test_health_reports_ok_and_endpoints(self, populated_server):
        status, content_type, body = _get(f"{populated_server.url}/health")
        assert status == 200
        assert content_type.startswith("application/json")
        document = json.loads(body)
        assert document["status"] == "ok"
        assert set(document["endpoints"]) == set(ENDPOINTS)

    def test_report_is_the_metrics_document(self, populated_server):
        _, _, body = _get(f"{populated_server.url}/report")
        document = json.loads(body)
        assert document["schema"] == SCHEMA
        assert document["metrics"]["monitor.stream.records"]["value"] == 42.0
        assert document["spans"]["campaign.run"]["count"] == 1

    def test_unknown_path_is_a_json_404(self, populated_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{populated_server.url}/nope")
        assert excinfo.value.code == 404
        document = json.loads(excinfo.value.read().decode("utf-8"))
        assert "/nope" in document["error"]

    def test_404_lists_the_endpoints_health_lists(self, populated_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{populated_server.url}/nope")
        listed = json.loads(excinfo.value.read())["endpoints"]
        _, _, body = _get(f"{populated_server.url}/health")
        assert listed == json.loads(body)["endpoints"] == sorted(ENDPOINTS)

    @pytest.mark.parametrize("method", ["POST", "PUT", "DELETE", "HEAD"])
    @pytest.mark.parametrize("path", ENDPOINTS)
    def test_other_methods_are_a_json_405(
        self, populated_server, path, method
    ):
        request = urllib.request.Request(
            f"{populated_server.url}{path}", method=method
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 405
        assert excinfo.value.headers["Allow"] == "GET"
        assert excinfo.value.headers["Content-Type"].startswith(
            "application/json"
        )
        if method != "HEAD":
            document = json.loads(excinfo.value.read())
            assert document == {"error": "method not allowed; use GET"}

    def test_counts_no_service_metric(self):
        obs.reset()
        obs.enable()
        try:
            with MetricsServer(port=0) as server:
                _get(f"{server.url}/health")
                with pytest.raises(urllib.error.HTTPError):
                    _get(f"{server.url}/nope")
            snapshot = obs.registry().snapshot()
        finally:
            obs.disable()
            obs.reset()
        assert {
            name: document.get("value")
            for name, document in snapshot.items()
            if name.startswith("service.") and document.get("value")
        } == {}


class TestLifecycle:
    def test_ephemeral_port_binding(self):
        with MetricsServer(port=0) as server:
            assert server.port > 0
            assert server.running
            assert str(server.port) in server.url

    def test_stop_is_idempotent(self):
        server = MetricsServer(port=0)
        server.start()
        server.stop()
        server.stop()
        assert not server.running

    def test_serves_the_default_registry_by_default(self):
        obs.reset()
        obs.enable()
        try:
            obs.count("monitor.drift.confirmed", 3.0)
            with MetricsServer(port=0) as server:
                _, _, body = _get(f"{server.url}/metrics")
            assert "repro_monitor_drift_confirmed 3" in body
        finally:
            obs.disable()
            obs.reset()

    def test_two_servers_bind_distinct_ports(self):
        with MetricsServer(port=0) as first, MetricsServer(port=0) as second:
            assert first.port != second.port

    def test_live_updates_are_visible(self, populated_server):
        registry = populated_server.registry
        registry.inc("monitor.stream.records", 8.0)
        _, _, body = _get(f"{populated_server.url}/metrics")
        assert "repro_monitor_stream_records 50" in body


class TestDeterministicPortRelease:
    """Regression tests for the rapid fixed-port restart bug.

    A client that connected and never sent a request line used to park
    a handler in ``readline``, so ``stop()`` hung and the next bind on
    the same fixed port failed.  ``stop()`` now aborts every open
    connection before it waits for the server to close, and the
    listening socket binds with ``SO_REUSEADDR``.
    """

    def test_rapid_restart_on_the_same_fixed_port(self):
        with MetricsServer(port=0) as probe:
            port = probe.port
        # The port is free again: rebind it immediately, repeatedly.
        for _ in range(3):
            server = MetricsServer(port=port)
            server.start()
            try:
                status, _, _ = _get(f"{server.url}/health")
                assert status == 200
                assert server.port == port
            finally:
                server.stop()

    def test_stop_returns_promptly_despite_stuck_client(self):
        import socket
        import time

        server = MetricsServer(port=0)
        server.start()
        port = server.port
        # A client that connects and never sends a request line.
        stuck = socket.create_connection(("127.0.0.1", port), timeout=10.0)
        try:
            start = time.monotonic()
            server.stop()
            elapsed = time.monotonic() - start
            assert elapsed < 3.0, f"stop() took {elapsed:.1f}s"
        finally:
            stuck.close()
        # And the port is immediately reusable.
        again = MetricsServer(port=port)
        again.start()
        try:
            status, _, _ = _get(f"{again.url}/health")
            assert status == 200
        finally:
            again.stop()
