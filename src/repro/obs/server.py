"""Live observability endpoint: ``/metrics``, ``/health``, ``/report``.

A long-running monitored deployment (the paper's Section 7 tool loop,
ROADMAP item 3) needs its metrics *scrapable while work is in flight*,
not just dumped after the fact.  :class:`MetricsServer` wraps a
stdlib :class:`~http.server.ThreadingHTTPServer` around the process-wide
metrics registry and tracer:

* ``GET /metrics`` — the Prometheus text-exposition snapshot
  (:func:`repro.obs.export.prometheus_text`);
* ``GET /health``  — a tiny JSON liveness document;
* ``GET /report``  — the full JSON metrics document
  (:func:`repro.obs.export.metrics_document`), the same payload the
  CLI's ``--metrics-out`` writes.

The server runs on a daemon thread, binds to an ephemeral port when
``port=0``, and is safe to scrape concurrently with a running
simulation or search: snapshots materialize the key list first and read
plain floats/ints, so a request never blocks or corrupts recording.
The CLI exposes it as ``--serve-metrics PORT`` on ``simulate``,
``campaign``, ``recommend``, and ``monitor``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.exceptions import ValidationError
from repro.obs import export as _export
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

#: Content type mandated by the Prometheus text-exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def render_json_body(document: dict[str, Any]) -> bytes:
    """Canonical JSON encoding shared by every observability endpoint."""
    return json.dumps(
        _export._sanitize(document), indent=2, sort_keys=True
    ).encode("utf-8")


def render_metrics(
    registry: MetricsRegistry, prefix: str = "repro"
) -> tuple[str, bytes]:
    """``(content type, body)`` of a ``/metrics`` Prometheus scrape.

    Shared by :class:`MetricsServer` and the asyncio recommendation
    service (:mod:`repro.service.server`), so both expose the identical
    text-exposition rendering of a registry.
    """
    body = _export.prometheus_text(registry, prefix=prefix).encode("utf-8")
    return PROMETHEUS_CONTENT_TYPE, body


def render_health(extra: dict[str, Any] | None = None) -> tuple[str, bytes]:
    """``(content type, body)`` of the ``/health`` liveness document."""
    document: dict[str, Any] = {
        "status": "ok", "endpoints": sorted(ENDPOINTS)
    }
    if extra:
        document.update(extra)
    return "application/json; charset=utf-8", render_json_body(document)


def render_report(
    registry: MetricsRegistry, tracer: Tracer
) -> tuple[str, bytes]:
    """``(content type, body)`` of the full ``/report`` JSON document."""
    document = _export.metrics_document(registry, tracer)
    return "application/json; charset=utf-8", render_json_body(document)


class _MetricsRequestHandler(BaseHTTPRequestHandler):
    """Routes the three read-only endpoints; logs nothing."""

    server: "_MetricsHTTPServer"

    #: Socket timeout for one request.  Without it, a client that
    #: connects and never sends a request line parks the handler thread
    #: in ``readline`` forever, which used to leave the listening port
    #: held across :meth:`MetricsServer.stop` (see ``block_on_close``
    #: below).  With the timeout the handler gives up and exits.
    timeout = 5.0

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler contract)
        """Serve ``/metrics``, ``/health``, or ``/report``."""
        owner = self.server.owner
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/metrics":
            content_type, body = render_metrics(
                owner.registry, prefix=owner.prefix
            )
            self._respond(200, content_type, body)
        elif path == "/health":
            content_type, body = render_health()
            self._respond(200, content_type, body)
        elif path == "/report":
            content_type, body = render_report(owner.registry, owner.tracer)
            self._respond(200, content_type, body)
        else:
            self._respond_json(
                404,
                {"error": f"unknown path {path!r}",
                 "endpoints": sorted(ENDPOINTS)},
            )

    def handle_one_request(self) -> None:
        """One request, tolerating clients that hang up or stall."""
        try:
            super().handle_one_request()
        except TimeoutError:
            self.close_connection = True

    def _respond_json(self, status: int, document: dict[str, Any]) -> None:
        self._respond(
            status, "application/json; charset=utf-8",
            render_json_body(document),
        )

    def _respond(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        """Suppress per-request stderr logging (scrapes are frequent)."""


#: The paths the server answers.
ENDPOINTS = ("/metrics", "/health", "/report")


class _MetricsHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying a back-reference to its owner.

    Shutdown is made deterministic for rapid stop/start cycles (the
    test suite and the service's warm restart both bind the same port
    again immediately):

    * ``allow_reuse_address`` (``SO_REUSEADDR``) lets a fresh server
      bind again while the previous socket lingers in ``TIME_WAIT``;
    * ``block_on_close = False`` keeps :meth:`server_close` from
      joining handler threads — a client that connected and went
      silent would otherwise park ``stop()`` until its (daemon)
      handler died, which could be never before handler timeouts.
    """

    daemon_threads = True
    allow_reuse_address = True
    block_on_close = False
    owner: "MetricsServer"


class MetricsServer:
    """Serve the registry/tracer over HTTP from a daemon thread.

    Reads the process-wide default registry and tracer unless explicit
    instances are given.  Use as a context manager or via
    :meth:`start`/:meth:`stop`::

        with MetricsServer(port=0) as server:
            print(server.url)          # http://127.0.0.1:<ephemeral>
            ...                        # run a campaign, scrape away

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port` after :meth:`start`).
    """

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        prefix: str = "repro",
    ) -> None:
        if not 0 <= port <= 65535:
            raise ValidationError(f"port {port} outside [0, 65535]")
        from repro import obs

        self.host = host
        self.prefix = prefix
        self.registry = registry if registry is not None else obs.registry()
        self.tracer = tracer if tracer is not None else obs.tracer()
        self._requested_port = port
        self._server: _MetricsHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The bound port (the ephemeral one when 0 was requested)."""
        if self._server is None:
            return self._requested_port
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        """Whether the serving thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> int:
        """Bind and start serving on a daemon thread; returns the port."""
        if self._server is not None:
            raise ValidationError("metrics server already started")
        server = _MetricsHTTPServer(
            (self.host, self._requested_port), _MetricsRequestHandler
        )
        server.owner = self
        thread = threading.Thread(
            target=server.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._server = server
        self._thread = thread
        thread.start()
        return self.port

    def stop(self) -> None:
        """Shut the server down, release the port, join; idempotent.

        ``server_close()`` closes the listening socket immediately and
        — with ``block_on_close = False`` — never waits on handler
        threads, so the port is free to bind again the moment this
        returns (``SO_REUSEADDR`` covers the ``TIME_WAIT`` tail).
        """
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
