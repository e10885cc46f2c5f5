"""The repository's one HTTP server: ``/metrics``, ``/health``, ``/report``.

:class:`MetricsServer` serves the process-wide metrics registry and
tracer while work is in flight, so a long-running deployment (the
paper's Section 7 tool loop) can be scraped as it runs:

* ``GET /metrics`` — the Prometheus text-exposition snapshot
  (:func:`repro.obs.export.prometheus_text`);
* ``GET /health``  — a JSON liveness document listing the endpoints;
* ``GET /report``  — the JSON metrics document
  (:func:`repro.obs.export.metrics_document`) that ``--metrics-out``
  writes.

The CLI starts it with ``--serve-metrics PORT`` on every subcommand but
``serve``: :class:`repro.service.server.RecommendationService`
subclasses it and adds its own routes, so one lifecycle, one request
parser and one set of JSON error replies serve both.  The asyncio loop
runs on a daemon thread behind the blocking
:meth:`~MetricsServer.start`/:meth:`~MetricsServer.stop` facade, and
``port=0`` binds an ephemeral port.  Scraping is safe while a
simulation or search runs: snapshots materialize the key list first and
read plain floats/ints.

Requests are HTTP/1.1, one per connection, with 10-s head-line and 60-s
body read timeouts.  ``Transfer-Encoding`` is answered 411 and a body
over :data:`MAX_BODY_BYTES` 413, both before any of the body is read;
``Expect: 100-continue`` gets its interim reply.
:meth:`~MetricsServer.stop` aborts the connections still open, so a
silent client cannot hold it up.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Callable
from urllib.parse import parse_qs, urlsplit

from repro import obs
from repro.exceptions import ReproError, ValidationError
from repro.obs import export as _export
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

#: Content type mandated by the Prometheus text-exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Content type of every JSON reply.
JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: The paths a bare :class:`MetricsServer` answers.
ENDPOINTS = ("/metrics", "/health", "/report")

#: Largest request body the server reads (16 MiB).  A larger
#: ``Content-Length`` is answered with 413 before any of the body is
#: read, so a client cannot hold a connection open for a body of any
#: claimed size.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: ``(status, content type, body, extra headers)`` of one reply.
Response = tuple[int, str, bytes, dict[str, str]]

#: A route's handler: ``(query, body) -> reply``.
Handler = Callable[[dict[str, str], bytes], Response]

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 411: "Length Required",
    413: "Content Too Large", 500: "Internal Server Error",
}


def render_json_body(document: dict[str, Any]) -> bytes:
    """Canonical JSON encoding shared by every observability endpoint."""
    return json.dumps(
        _export._sanitize(document), indent=2, sort_keys=True
    ).encode("utf-8")


def json_response(
    status: int, document: dict[str, Any], **headers: str
) -> Response:
    """A reply with ``document`` as its JSON body."""
    return status, JSON_CONTENT_TYPE, render_json_body(document), headers


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One line of a request head; a line cut short means a hang-up."""
    try:
        line = await asyncio.wait_for(reader.readline(), timeout=10.0)
    except ValueError:  # longer than the reader's 64 KiB limit
        raise ValidationError(
            "request line or header line longer than 64 KiB"
        ) from None
    if not line.endswith(b"\n"):
        raise ConnectionError("connection closed inside the request head")
    return line


class MetricsServer:
    """Serve the registry/tracer over HTTP from a daemon thread.

    Reads the process-wide default registry and tracer unless explicit
    instances are given.  Use as a context manager or via
    :meth:`start`/:meth:`stop`::

        with MetricsServer(port=0) as server:
            print(server.url)          # http://127.0.0.1:<ephemeral>
            ...                        # run a campaign, scrape away

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port` after :meth:`start`).  Subclasses add routes by
    extending :meth:`_route_table`.
    """

    #: Counters of the requests routed and of the replies with a 4xx or
    #: 5xx status; ``None`` counts nothing.
    requests_metric: str | None = None
    errors_metric: str | None = None

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if not 0 <= port <= 65535:
            raise ValidationError(f"port {port} outside [0, 65535]")
        self.host = host
        self.registry = registry if registry is not None else obs.registry()
        self.tracer = tracer if tracer is not None else obs.tracer()
        self._requested_port = port
        self._bound_port: int | None = None
        self._routes = self._route_table()
        #: Handler task -> writer of every open connection; loop thread
        #: only.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_future: asyncio.Future[None] | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    def _route_table(self) -> dict[str, tuple[str, Handler]]:
        """``path -> (method, handler)`` of every endpoint served."""
        return {
            "/metrics": ("GET", self._get_metrics),
            "/health": ("GET", self._get_health),
            "/report": ("GET", self._get_report),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (the ephemeral one when 0 was requested)."""
        if self._bound_port is not None:
            return self._bound_port
        return self._requested_port

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        """Whether the serving thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> int:
        """Bind and serve on a daemon thread; returns the bound port."""
        if self._thread is not None:
            raise ValidationError(f"{type(self).__name__} already started")
        self._started.clear()
        self._startup_error = None
        thread = threading.Thread(
            target=self._serve_thread,
            name=f"repro-{type(self).__name__}",
            daemon=True,
        )
        self._thread = thread
        thread.start()
        self._started.wait(timeout=30.0)
        if self._startup_error is not None:
            error = self._startup_error
            self._thread = None
            self._startup_error = None
            if isinstance(error, ReproError):
                raise error
            raise ValidationError(
                f"server failed to start: {error}"
            ) from error
        if not self._started.is_set():
            raise ValidationError("server did not start within 30s")
        return self.port

    def _serve_thread(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._serve(loop))
        finally:
            loop.close()
            self._loop = None

    async def _serve(self, loop: asyncio.AbstractEventLoop) -> None:
        try:
            server = await asyncio.start_server(
                self._handle_connection, self.host, self._requested_port,
                reuse_address=True,
            )
        except BaseException as error:
            self._startup_error = error
            self._started.set()
            return
        self._bound_port = server.sockets[0].getsockname()[1]
        self._stop_future = loop.create_future()
        self._started.set()
        try:
            await self._stop_future
        finally:
            server.close()
            # Since Python 3.12.1 wait_closed() also waits for every open
            # connection, so a silent client would hold the shutdown up.
            # Aborting a connection ends its pending read, and its
            # handler returns without a reply.
            for writer in self._connections.values():
                writer.transport.abort()
            if self._connections:
                await asyncio.wait(list(self._connections))
            await server.wait_closed()

    def stop(self) -> None:
        """Stop serving, release the port and join; idempotent."""
        if self._thread is None:
            return
        loop = self._loop
        if loop is not None:

            def _finish() -> None:
                future = self._stop_future
                if future is not None and not future.done():
                    future.set_result(None)

            try:
                loop.call_soon_threadsafe(_finish)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=10.0)
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # HTTP plumbing (minimal HTTP/1.1, one request per connection)
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            await self._answer(reader, writer)
        finally:
            del self._connections[task]

    async def _answer(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            status, content_type, body, headers = await self._handle_request(
                reader, writer
            )
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.TimeoutError,
        ):
            writer.close()
            return
        except ValidationError as error:
            status, content_type, body, headers = json_response(
                400, {"error": str(error)}
            )
        except Exception as error:  # never kill the accept loop
            status, content_type, body, headers = json_response(
                500, {"error": str(error)}
            )
        if status >= 400 and self.errors_metric is not None:
            obs.count(self.errors_metric)
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("utf-8")
        try:
            writer.write(head + body)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def _handle_request(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> Response:
        request_line = await _read_line(reader)
        if not request_line.strip():
            raise ConnectionError("empty request")
        try:
            method, target, _version = (
                request_line.decode("latin-1").strip().split(None, 2)
            )
        except ValueError:
            raise ValidationError("malformed request line") from None
        content_length = 0
        transfer_encoding = expect_continue = False
        while True:
            line = await _read_line(reader)
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise ValidationError(
                        "bad Content-Length header"
                    ) from None
            elif name == "transfer-encoding":
                transfer_encoding = True
            elif name == "expect":
                expect_continue = value.strip().lower() == "100-continue"
        if transfer_encoding:
            return json_response(411, {
                "error": "Transfer-Encoding is not supported; send the "
                         "body with a Content-Length header",
            })
        if content_length < 0:
            raise ValidationError("negative Content-Length header")
        if content_length > MAX_BODY_BYTES:
            return json_response(413, {
                "error": f"request body of {content_length} bytes exceeds "
                         f"the {MAX_BODY_BYTES}-byte limit",
            })
        body = b""
        if content_length > 0:
            if expect_continue:
                writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
                await writer.drain()
            body = await asyncio.wait_for(
                reader.readexactly(content_length), timeout=60.0
            )
        if self.requests_metric is not None:
            obs.count(self.requests_metric)
        parts = urlsplit(target)
        path = parts.path.rstrip("/") or "/"
        query = {
            name: values[-1]
            for name, values in parse_qs(parts.query).items()
        }
        return self._route(method.upper(), path, query, body)

    def _route(
        self,
        method: str,
        path: str,
        query: dict[str, str],
        body: bytes,
    ) -> Response:
        route = self._routes.get(path)
        if route is None:
            return json_response(404, {
                "error": f"unknown path {path!r}",
                "endpoints": sorted(self._routes),
            })
        allowed, handler = route
        if method != allowed:
            return json_response(
                405, {"error": f"method not allowed; use {allowed}"},
                Allow=allowed,
            )
        return handler(query, body)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _get_metrics(self, query: dict[str, str], body: bytes) -> Response:
        text = _export.prometheus_text(self.registry)
        return 200, PROMETHEUS_CONTENT_TYPE, text.encode("utf-8"), {}

    def _health(self) -> dict[str, Any]:
        """The ``/health`` document; subclasses add their own fields."""
        return {"status": "ok", "endpoints": sorted(self._routes)}

    def _get_health(self, query: dict[str, str], body: bytes) -> Response:
        return json_response(200, self._health())

    def _get_report(self, query: dict[str, str], body: bytes) -> Response:
        document = _export.metrics_document(self.registry, self.tracer)
        return json_response(200, document)
