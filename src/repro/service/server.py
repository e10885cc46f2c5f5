"""The always-on recommendation service (stdlib asyncio HTTP).

:class:`RecommendationService` closes the paper's §7 loop as a
long-running process: audit-trail events stream in over HTTP, the
per-tenant calibration state updates incrementally, confirmed drift
triggers a background re-search (superseding any still-running one),
and the freshest recommendation is always one ``GET`` away.

Endpoints
---------
``POST /events[?tenant=NAME]``
    Body is audit-trail JSONL — the exact on-disk format of
    :mod:`repro.monitor.persistence`, so ``curl --data-binary
    @trail.jsonl`` replays a recorded trail.  Responds with an
    ingestion summary (records ingested, drifts confirmed, whether a
    re-search was scheduled).
``GET /recommendation[?tenant=NAME][&refresh=1]``
    The canonical recommendation document
    (:data:`repro.service.pipeline.SCHEMA`), byte-identical to the
    batch ``monitor`` → ``recommend`` pipeline over the same records.
    ``refresh=1`` recomputes synchronously against the *current*
    calibration before answering; otherwise the last published document
    is served (404 until one exists).  Staleness metadata travels in
    ``X-Recommendation-*`` headers so the body stays canonical.
``GET /status[?tenant=NAME]``
    Staleness metadata as JSON (revision, age in records, drift since
    publish) — per tenant, or for all tenants without the parameter.
``GET /metrics`` / ``GET /health`` / ``GET /report``
    The observability endpoints, rendered by the exact same functions
    as :class:`repro.obs.server.MetricsServer`.

Threading model
---------------
The asyncio loop runs on a dedicated daemon thread behind a blocking
:meth:`start`/:meth:`stop` facade (mirroring ``MetricsServer``).  All
tenant state is touched only on the loop thread; background searches
run on :class:`~repro.core.search.BackgroundSearchExecutor` worker
threads against a *snapshot* of the calibrator (restored privately), so
ingestion never blocks on a search and a search never races ingestion.
A per-tenant lock serializes cache access between overlapping search
generations; results are published back onto the loop thread and only
if their generation is still current.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Callable
from urllib.parse import parse_qs, urlsplit

from repro import obs
from repro.core.goals import PerformabilityGoals
from repro.core.search.background import (
    BackgroundSearchExecutor,
    SearchOutcome,
)
from repro.exceptions import ReproError, ValidationError
from repro.io import Project
from repro.monitor.drift import DriftEvent
from repro.monitor.persistence import parse_record_line
from repro.monitor.stream import StreamingCalibrator
from repro.obs.server import (
    render_health,
    render_json_body,
    render_metrics,
    render_report,
)
from repro.service.pipeline import (
    SearchSettings,
    recommend_from_calibration,
    render_document,
)
from repro.service.state import DEFAULT_TENANT, ServiceState, TenantState

#: Every metric family the service exports, as ``(name, kind, help)``.
#: ``docs/OPERATIONS.md`` must reference each family by name —
#: ``tools/check_cli_docs.py`` gates that.  Families marked
#: ``per-tenant`` are exported once per tenant with a ``.<tenant>``
#: suffix.
SERVICE_METRICS: tuple[tuple[str, str, str], ...] = (
    ("service.http.requests", "counter",
     "HTTP requests accepted, any endpoint"),
    ("service.http.errors", "counter",
     "HTTP requests answered with a 4xx/5xx status"),
    ("service.events.ingested", "counter",
     "audit records ingested via POST /events"),
    ("service.events.rejected", "counter",
     "malformed POST /events lines rejected"),
    ("service.drift.confirmations", "counter",
     "drift events confirmed across all tenants"),
    ("service.searches.started", "counter",
     "background re-searches submitted"),
    ("service.searches.completed", "counter",
     "background re-searches that published a document"),
    ("service.searches.superseded", "counter",
     "re-searches cancelled or discarded because newer drift arrived"),
    ("service.searches.infeasible", "counter",
     "searches (background or refresh) with no goal-satisfying "
     "configuration"),
    ("service.searches.errors", "counter",
     "background re-searches that raised"),
    ("service.recommendations.published", "counter",
     "recommendation documents published (all tenants)"),
    ("service.recommendations.refreshed", "counter",
     "synchronous GET /recommendation?refresh=1 recomputations"),
    ("service.snapshot.saved", "counter",
     "service snapshots written (shutdown or explicit)"),
    ("service.snapshot.restored", "counter",
     "tenant shards restored from a snapshot at startup"),
    ("service.tenants", "gauge", "tenant shards currently live"),
    ("service.recommendation.revision", "per-tenant gauge",
     "published revision of the tenant's recommendation"),
    ("service.recommendation.age_records", "per-tenant gauge",
     "records ingested since the tenant's published revision"),
)

_JSON = "application/json; charset=utf-8"


class RecommendationService:
    """Long-running §7 recommendation loop over HTTP.

    Use as a context manager or via :meth:`start`/:meth:`stop`::

        service = RecommendationService(baseline, goals, port=0)
        with service:
            print(service.url)   # POST events, GET /recommendation
        # stop() wrote the snapshot when snapshot_path was given

    ``port=0`` binds an ephemeral port (read :attr:`port` back after
    :meth:`start`).  When ``snapshot_path`` names an existing file the
    service warm-restarts from it; on :meth:`stop` the current state is
    written back, so a restart cycle loses nothing.
    """

    def __init__(
        self,
        baseline: Project,
        goals: PerformabilityGoals,
        settings: SearchSettings | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        window: float = 1_000.0,
        snapshot_path: str | None = None,
        prefix: str = "repro",
    ) -> None:
        if not 0 <= port <= 65535:
            raise ValidationError(f"port {port} outside [0, 65535]")
        self.baseline = baseline
        self.goals = goals
        self.settings = settings if settings is not None else SearchSettings()
        self.host = host
        self.prefix = prefix
        self.window = window
        self.snapshot_path = snapshot_path
        self._requested_port = port
        self._bound_port: int | None = None
        self.state = self._initial_state()
        self.executor = BackgroundSearchExecutor()
        self._search_locks: dict[str, threading.Lock] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_future: asyncio.Future[None] | None = None
        self._server: asyncio.base_events.Server | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    def _initial_state(self) -> ServiceState:
        if self.snapshot_path is not None:
            try:
                state = ServiceState.load_snapshot(
                    self.snapshot_path, on_drift=self._on_drift
                )
            except ValidationError as error:
                if "not found" not in str(error):
                    raise
            else:
                obs.count(
                    "service.snapshot.restored", len(state.tenants)
                )
                state.window = self.window
                return state
        return ServiceState(window=self.window, on_drift=self._on_drift)

    def _on_drift(self, tenant_name: str, event: DriftEvent) -> None:
        obs.count("service.drift.confirmations")
        obs.event(
            "service.drift",
            tenant=tenant_name,
            family=event.kind,
            subject=event.subject,
        )

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
        """Base URL of the running service."""
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        """Whether the serving thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> int:
        """Bind and serve on a daemon thread; returns the bound port."""
        if self._thread is not None:
            raise ValidationError("recommendation service already started")
        self._started.clear()
        self._startup_error = None
        thread = threading.Thread(
            target=self._serve_thread,
            name="repro-recommendation-service",
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
                f"service failed to start: {error}"
            ) from error
        if not self._started.is_set():
            raise ValidationError("service did not start within 30s")
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
        self._server = server
        self._bound_port = server.sockets[0].getsockname()[1]
        self._stop_future = loop.create_future()
        self._started.set()
        try:
            await self._stop_future
        finally:
            server.close()
            await server.wait_closed()
            self._server = None

    def stop(self, snapshot: bool = True) -> None:
        """Drain searches, stop serving, optionally snapshot; idempotent.

        Background searches are cancelled (cooperatively) and joined
        before the snapshot is written, so the snapshot reflects the
        final published state.
        """
        if self._thread is None:
            return
        self.executor.shutdown(timeout=10.0)
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
        if snapshot and self.snapshot_path is not None:
            tenants = self.state.save_snapshot(self.snapshot_path)
            obs.count("service.snapshot.saved")
            obs.event(
                "service.snapshot", path=self.snapshot_path,
                tenants=tenants,
            )

    def __enter__(self) -> "RecommendationService":
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
        try:
            status, content_type, body, headers = await self._handle_request(
                reader
            )
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.LimitOverrunError,
            TimeoutError,
        ):
            writer.close()
            return
        except ValidationError as error:
            status, content_type, body, headers = (
                400, _JSON, render_json_body({"error": str(error)}), {},
            )
        except Exception as error:  # never kill the accept loop
            obs.count("service.http.errors")
            status, content_type, body, headers = (
                500, _JSON, render_json_body({"error": str(error)}), {},
            )
        if status >= 400:
            obs.count("service.http.errors")
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed",
                  500: "Internal Server Error"}.get(status, "OK")
        lines = [
            f"HTTP/1.1 {status} {reason}",
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
        self, reader: asyncio.StreamReader
    ) -> tuple[int, str, bytes, dict[str, str]]:
        request_line = await asyncio.wait_for(
            reader.readline(), timeout=10.0
        )
        if not request_line.strip():
            raise ConnectionError("empty request")
        try:
            method, target, _version = (
                request_line.decode("latin-1").strip().split(None, 2)
            )
        except ValueError:
            raise ValidationError("malformed request line") from None
        content_length = 0
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout=10.0)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise ValidationError(
                        "bad Content-Length header"
                    ) from None
        body = b""
        if content_length > 0:
            body = await asyncio.wait_for(
                reader.readexactly(content_length), timeout=60.0
            )
        obs.count("service.http.requests")
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
    ) -> tuple[int, str, bytes, dict[str, str]]:
        if path == "/events":
            if method != "POST":
                return self._method_not_allowed("POST")
            return self._post_events(query, body)
        if method != "GET":
            return self._method_not_allowed("GET")
        if path == "/recommendation":
            return self._get_recommendation(query)
        if path == "/status":
            return self._get_status(query)
        if path == "/metrics":
            content_type, rendered = render_metrics(
                obs.registry(), prefix=self.prefix
            )
            return 200, content_type, rendered, {}
        if path == "/health":
            content_type, rendered = render_health(
                {
                    "service": "repro.service",
                    "tenants": len(self.state.tenants),
                }
            )
            return 200, content_type, rendered, {}
        if path == "/report":
            content_type, rendered = render_report(
                obs.registry(), obs.tracer()
            )
            return 200, content_type, rendered, {}
        return (
            404, _JSON,
            render_json_body(
                {
                    "error": f"unknown path {path!r}",
                    "endpoints": [
                        "/events", "/recommendation", "/status",
                        "/metrics", "/health", "/report",
                    ],
                }
            ),
            {},
        )

    @staticmethod
    def _method_not_allowed(
        allowed: str,
    ) -> tuple[int, str, bytes, dict[str, str]]:
        return (
            405, _JSON,
            render_json_body({"error": f"method not allowed; use {allowed}"}),
            {"Allow": allowed},
        )

    # ------------------------------------------------------------------
    # Endpoint: POST /events
    # ------------------------------------------------------------------
    def _post_events(
        self, query: dict[str, str], body: bytes
    ) -> tuple[int, str, bytes, dict[str, str]]:
        tenant = self.state.tenant(query.get("tenant", DEFAULT_TENANT))
        obs.set_gauge("service.tenants", len(self.state.tenants))
        ingested = 0
        rejected: list[dict[str, Any]] = []
        confirmed: list[DriftEvent] = []
        for line_number, raw in enumerate(
            body.decode("utf-8", errors="replace").splitlines(), start=1
        ):
            line = raw.strip()
            if not line:
                continue
            try:
                record = parse_record_line(line, line_number)
                confirmed.extend(tenant.monitor.observe(record))
            except ValidationError as error:
                obs.count("service.events.rejected")
                if len(rejected) < 10:
                    rejected.append(
                        {"line": line_number, "error": str(error)}
                    )
                continue
            ingested += 1
        obs.count("service.events.ingested", ingested)
        tenant.drift_confirmations += len(confirmed)
        scheduled = self._maybe_schedule_search(
            tenant, drift_confirmed=bool(confirmed)
        )
        self._publish_gauges(tenant)
        document = {
            "tenant": tenant.name,
            "ingested": ingested,
            "rejected": len(rejected),
            "rejections": rejected,
            "records_seen": tenant.records_seen,
            "drift_confirmed": len(confirmed),
            "search_scheduled": scheduled,
        }
        status = 200 if ingested or not rejected else 400
        return status, _JSON, render_json_body(document), {}

    # ------------------------------------------------------------------
    # Background re-search
    # ------------------------------------------------------------------
    def _maybe_schedule_search(
        self, tenant: TenantState, drift_confirmed: bool
    ) -> bool:
        """Submit a background re-search when the published document
        is missing, stale, built on drifted calibration, or
        goal-violating.

        Staleness (records ingested past the published calibration
        position) counts: the loop must converge on the freshest
        calibration, and each superseding submission carries the
        *current* position, so a quiet tenant schedules nothing."""
        needs_search = (
            tenant.document is None
            or drift_confirmed
            or tenant.records_seen > tenant.records_at_publish
        )
        if not needs_search:
            result = tenant.document.get("result") or {}
            satisfied = result.get(
                "satisfied",
                (result.get("recommended") or {}).get("satisfied", False),
            )
            needs_search = (
                not tenant.document.get("feasible", False) or not satisfied
            )
        if not needs_search:
            return False
        try:
            state = tenant.calibrator.export_state()
        except ReproError:
            return False
        records_seen = tenant.records_seen
        if records_seen == 0:
            return False
        name = tenant.name
        lock = self._search_locks.setdefault(name, threading.Lock())
        cache = tenant.cache

        def task(stop_check: Callable[[], bool]) -> dict[str, Any]:
            private = StreamingCalibrator.restore_state(state)
            with lock:
                return recommend_from_calibration(
                    private,
                    self.baseline,
                    self.goals,
                    self.settings,
                    cache=cache,
                    stop_check=stop_check,
                )

        def on_outcome(outcome: SearchOutcome) -> None:
            self._search_finished(name, records_seen, outcome)

        self.executor.submit(name, task, on_outcome=on_outcome)
        obs.count("service.searches.started")
        return True

    def _search_finished(
        self, tenant_name: str, records_seen: int, outcome: SearchOutcome
    ) -> None:
        """Worker-thread callback: publish onto the loop thread."""
        if outcome.cancelled or not outcome.current:
            obs.count("service.searches.superseded")
            return
        if outcome.error is not None:
            obs.count("service.searches.errors")
            obs.event(
                "service.search.error",
                tenant=tenant_name,
                error=str(outcome.error),
            )
            return
        loop = self._loop
        if loop is None:
            return

        def publish() -> None:
            tenant = self.state.tenant(tenant_name)
            if self.executor.generation(tenant_name) != outcome.generation:
                obs.count("service.searches.superseded")
                return
            self._publish_document(tenant, outcome.result, records_seen)
            obs.count("service.searches.completed")

        try:
            loop.call_soon_threadsafe(publish)
        except RuntimeError:
            pass  # loop shut down while the search was finishing

    def _publish_document(
        self,
        tenant: TenantState,
        document: dict[str, Any],
        records_seen: int,
    ) -> None:
        tenant.publish(document, records_seen)
        obs.count("service.recommendations.published")
        if not document.get("feasible", True):
            obs.count("service.searches.infeasible")
        self._publish_gauges(tenant)

    def _publish_gauges(self, tenant: TenantState) -> None:
        meta = tenant.staleness()
        obs.set_gauge(
            f"service.recommendation.revision.{tenant.name}",
            meta["revision"],
        )
        obs.set_gauge(
            f"service.recommendation.age_records.{tenant.name}",
            meta["age_records"],
        )
        obs.set_gauge("service.tenants", len(self.state.tenants))

    # ------------------------------------------------------------------
    # Endpoint: GET /recommendation
    # ------------------------------------------------------------------
    def _get_recommendation(
        self, query: dict[str, str]
    ) -> tuple[int, str, bytes, dict[str, str]]:
        tenant = self.state.tenant(query.get("tenant", DEFAULT_TENANT))
        if query.get("refresh") in ("1", "true", "yes"):
            records_seen = tenant.records_seen
            lock = self._search_locks.setdefault(
                tenant.name, threading.Lock()
            )
            # The lock serializes cache access against any in-flight
            # background search for the same tenant (the search holds
            # it for its whole run and releases it independently of
            # this thread, so waiting here cannot deadlock).
            with lock:
                document = recommend_from_calibration(
                    tenant.calibrator,
                    self.baseline,
                    self.goals,
                    self.settings,
                    cache=tenant.cache,
                )
            obs.count("service.recommendations.refreshed")
            self._publish_document(tenant, document, records_seen)
        if tenant.document is None:
            return (
                404, _JSON,
                render_json_body(
                    {
                        "error": (
                            f"no recommendation published yet for tenant "
                            f"{tenant.name!r}; POST events and retry, or "
                            f"request ?refresh=1"
                        ),
                        "staleness": tenant.staleness(),
                    }
                ),
                {},
            )
        meta = tenant.staleness()
        headers = {
            "X-Recommendation-Revision": str(meta["revision"]),
            "X-Recommendation-Age-Records": str(meta["age_records"]),
            "X-Recommendation-Stale": (
                "true" if meta["stale"] else "false"
            ),
        }
        return 200, _JSON, render_document(tenant.document), headers

    # ------------------------------------------------------------------
    # Endpoint: GET /status
    # ------------------------------------------------------------------
    def _get_status(
        self, query: dict[str, str]
    ) -> tuple[int, str, bytes, dict[str, str]]:
        name = query.get("tenant")
        if name is not None:
            document: dict[str, Any] = self.state.tenant(name).staleness()
        else:
            document = {
                "tenants": {
                    tenant_name: shard.staleness()
                    for tenant_name, shard in sorted(
                        self.state.tenants.items()
                    )
                },
                "searches_active": self.executor.active_count(),
            }
        return 200, _JSON, render_json_body(document), {}
