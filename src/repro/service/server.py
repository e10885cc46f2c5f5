"""The always-on recommendation service (stdlib asyncio HTTP).

:class:`RecommendationService` closes the paper's §7 loop as a
long-running process: audit-trail events stream in over HTTP, the
per-tenant calibration state updates incrementally, confirmed drift
queues a re-search (the tenant's newest submission wins), and the
freshest recommendation is always one ``GET`` away.

Endpoints
---------
``POST /events[?tenant=NAME]``
    Body is audit-trail JSONL — the exact on-disk format of
    :mod:`repro.monitor.persistence`, so ``curl --data-binary
    @trail.jsonl`` replays a recorded trail.  Responds with an
    ingestion summary (records ingested, drifts confirmed, whether a
    re-search was queued); the reply goes out before that re-search
    starts.  Only this endpoint creates tenants.
``GET /recommendation[?tenant=NAME][&refresh=1]``
    The canonical recommendation document
    (:data:`repro.service.pipeline.SCHEMA`), byte-identical to the
    batch ``monitor`` → ``recommend`` pipeline over the same records.
    ``refresh=1`` recomputes synchronously against the *current*
    calibration before answering; otherwise the last published document
    is served (404 until one exists, and for a tenant nothing was
    posted to).  Staleness metadata travels in ``X-Recommendation-*``
    headers so the body stays canonical.
``GET /status[?tenant=NAME]``
    Staleness metadata as JSON (revision, age in records, drift since
    publish) — per tenant (404 for an unknown one), or for all tenants
    without the parameter.
``GET /metrics`` / ``GET /health`` / ``GET /report``
    The observability endpoints of :class:`repro.obs.server.MetricsServer`,
    which this service extends; ``/health`` adds the tenant count.

Threading model
---------------
The asyncio loop of :class:`~repro.obs.server.MetricsServer` runs on a
dedicated daemon thread behind a blocking :meth:`start`/:meth:`stop`
facade, and so do its request parsing, limits and error replies.  All
tenant state is touched only on the loop thread.  Re-searches run on
the one thread of a :class:`~repro.service.worker.SearchWorker`, one
pending slot per tenant: a newer submission overwrites its tenant's
slot and cancels that tenant's running search, and the searches of
different tenants run one after another.  Each search runs against a
*snapshot* of the calibrator taken by its POST (restored privately),
so a search never races ingestion.  ``POST /events`` hands the
submission over only after its reply is written: a search thread
keeps the GIL for its whole run, so submitting inside the handler
would hold the reply back until the search ends.  ``POST /events`` and
plain reads take no lock; the worker holds its one lock for each
search, and a ``refresh=1`` read takes the same lock, which serializes
cache access between them.  Results are published back onto the loop
thread and only if their generation is still the tenant's newest.
:meth:`stop` stops the worker before it stops the loop, so pending
slots and a submission still queued then are dropped.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable

from repro import obs
from repro.core.goals import PerformabilityGoals
from repro.exceptions import ReproError, ValidationError
from repro.io import Project
from repro.monitor.drift import DriftEvent
from repro.monitor.persistence import parse_record_row
from repro.monitor.stream import StreamingCalibrator, check_positive_finite
from repro.obs.server import (
    JSON_CONTENT_TYPE,
    Handler,
    MetricsServer,
    Response,
    json_response,
)
from repro.service.pipeline import (
    SearchSettings,
    recommend_from_calibration,
    render_document,
)
from repro.service.state import DEFAULT_TENANT, ServiceState, TenantState
from repro.service.worker import SearchWorker

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
     "re-searches submitted to the search worker"),
    ("service.searches.completed", "counter",
     "re-searches that published a document"),
    ("service.searches.superseded", "counter",
     "re-searches replaced, cancelled or discarded before publishing"),
    ("service.searches.infeasible", "counter",
     "searches (background or refresh) with no goal-satisfying "
     "configuration"),
    ("service.searches.errors", "counter",
     "re-searches that raised"),
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


class RecommendationService(MetricsServer):
    """Long-running §7 recommendation loop over HTTP.

    Use as a context manager or via :meth:`start`/:meth:`stop`::

        service = RecommendationService(baseline, goals, port=0)
        with service:
            print(service.url)   # POST events, GET /recommendation
        # stop() wrote the snapshot when snapshot_path was given

    ``port=0`` binds an ephemeral port (read :attr:`port` back after
    :meth:`start`).  When ``snapshot_path`` names an existing file the
    service warm-restarts from it; on :meth:`stop` the current state is
    written back, so a restart cycle loses nothing.  ``window``, every
    tenant's sliding arrival-rate window, must be positive and finite:
    the constructor checks it, before any port is bound or tenant made.
    """

    requests_metric = "service.http.requests"
    errors_metric = "service.http.errors"

    def __init__(
        self,
        baseline: Project,
        goals: PerformabilityGoals,
        settings: SearchSettings | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        window: float = 1_000.0,
        snapshot_path: str | None = None,
    ) -> None:
        super().__init__(port=port, host=host)
        check_positive_finite("window", window)
        self.baseline = baseline
        self.goals = goals
        self.settings = settings if settings is not None else SearchSettings()
        self.window = window
        self.snapshot_path = snapshot_path
        self.state = self._initial_state()
        self.worker = SearchWorker()
        #: Newest submission per tenant; read and written on the loop
        #: thread only.
        self._generations: dict[str, int] = {}

    def _route_table(self) -> dict[str, tuple[str, Handler]]:
        return {
            **super()._route_table(),
            "/events": ("POST", self._post_events),
            "/recommendation": ("GET", self._get_recommendation),
            "/status": ("GET", self._get_status),
        }

    def _health(self) -> dict[str, Any]:
        return {
            **super()._health(),
            "service": "repro.service",
            "tenants": len(self.state.tenants),
        }

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
    def start(self) -> int:
        """Bind and serve on a daemon thread; returns the bound port."""
        if self._thread is None:
            # stop() stops the worker for good, so each run gets its own.
            self.worker = SearchWorker()
        return super().start()

    def stop(self, snapshot: bool = True) -> None:
        """Drain searches, stop serving, optionally snapshot; idempotent.

        The worker drops its pending slots, cancels its running search
        (cooperatively) and is joined before the snapshot is written, so
        the snapshot reflects the final published state.
        """
        if self._thread is None:
            return
        self.worker.stop(timeout=10.0)
        super().stop()
        if snapshot and self.snapshot_path is not None:
            tenants = self.state.save_snapshot(self.snapshot_path)
            obs.count("service.snapshot.saved")
            obs.event(
                "service.snapshot", path=self.snapshot_path,
                tenants=tenants,
            )

    @staticmethod
    def _not_found(error: str, **details: Any) -> Response:
        return json_response(404, {"error": error, **details})

    # ------------------------------------------------------------------
    # Endpoint: POST /events
    # ------------------------------------------------------------------
    def _post_events(self, query: dict[str, str], body: bytes) -> Response:
        tenant = self.state.tenant(query.get("tenant", DEFAULT_TENANT))
        obs.set_gauge("service.tenants", len(self.state.tenants))
        rows: list[tuple[str, tuple]] = []
        echoed: list[dict[str, Any]] = []
        rejected = 0
        for line_number, raw in enumerate(
            body.decode("utf-8", errors="replace").splitlines(), start=1
        ):
            line = raw.strip()
            if not line:
                continue
            try:
                rows.append(parse_record_row(line, line_number))
            except ValidationError as error:
                rejected += 1
                if len(echoed) < 10:
                    echoed.append({"line": line_number, "error": str(error)})
        if rejected:
            obs.count("service.events.rejected", rejected)
        confirmed = tenant.monitor.observe_rows(rows)
        ingested = len(rows)
        obs.count("service.events.ingested", ingested)
        tenant.drift_confirmations += len(confirmed)
        scheduled = self._maybe_schedule_search(
            tenant, drift_confirmed=bool(confirmed)
        )
        self._publish_gauges(tenant)
        document = {
            "tenant": tenant.name,
            "ingested": ingested,
            "rejected": rejected,
            "rejections": echoed,
            "records_seen": tenant.records_seen,
            "drift_confirmed": len(confirmed),
            "search_scheduled": scheduled,
        }
        status = 200 if ingested or not rejected else 400
        return json_response(status, document)

    # ------------------------------------------------------------------
    # Re-search
    # ------------------------------------------------------------------
    def _maybe_schedule_search(
        self, tenant: TenantState, drift_confirmed: bool
    ) -> bool:
        """Queue a re-search when the published document is missing,
        stale, built on drifted calibration, or goal-violating.

        Nothing is queued before the tenant's first completed instance:
        the search needs arrival rates and per-instance loads, so until
        then it could only raise.  The calibrator snapshot and its
        position are taken here, so the search covers exactly the
        records ingested up to this request; only the submission waits
        until the reply is written.  A submission that finds the worker
        stopped is dropped.  Staleness (records ingested past the
        published calibration position) counts: the loop must converge
        on the freshest calibration, and each superseding submission
        carries the *current* position, so a quiet tenant schedules
        nothing."""
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
        if not needs_search or not tenant.calibrator.completed_instances:
            return False
        try:
            state = tenant.calibrator.export_state()
        except ReproError:
            return False
        records_seen = tenant.records_seen
        name = tenant.name
        cache = tenant.cache
        generation = self._generations[name] = (
            self._generations.get(name, 0) + 1
        )
        loop = asyncio.get_running_loop()

        def publish(document: dict[str, Any]) -> None:
            if self._generations[name] != generation:
                obs.count("service.searches.superseded")
                return
            self._publish_document(tenant, document, records_seen)
            obs.count("service.searches.completed")

        def job(stop_check: Callable[[], bool]) -> None:
            document = recommend_from_calibration(
                StreamingCalibrator.restore_state(state),
                self.baseline,
                self.goals,
                self.settings,
                cache=cache,
                stop_check=stop_check,
            )
            try:
                loop.call_soon_threadsafe(publish, document)
            except RuntimeError:
                pass  # the loop closed while the search ran

        # Submit once this request's reply is written: the search thread
        # keeps the GIL for its whole run, so submitting here would hold
        # the reply back until the search ends.
        loop.call_soon(self.worker.submit, name, job)
        return True

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
        self, query: dict[str, str], body: bytes
    ) -> Response:
        name = query.get("tenant", DEFAULT_TENANT)
        tenant = self.state.tenants.get(name)
        if tenant is None:
            return self._not_found(
                f"no recommendation published yet for tenant {name!r}: "
                f"no events were posted for it"
            )
        if query.get("refresh") in ("1", "true", "yes"):
            records_seen = tenant.records_seen
            # The worker's lock serializes cache access against its
            # running search (the worker holds it for each whole search
            # and never waits on the loop thread, so waiting here cannot
            # deadlock).
            with self.worker.lock:
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
            return self._not_found(
                f"no recommendation published yet for tenant "
                f"{tenant.name!r}; POST events and retry, or request "
                f"?refresh=1",
                staleness=tenant.staleness(),
            )
        meta = tenant.staleness()
        headers = {
            "X-Recommendation-Revision": str(meta["revision"]),
            "X-Recommendation-Age-Records": str(meta["age_records"]),
            "X-Recommendation-Stale": (
                "true" if meta["stale"] else "false"
            ),
        }
        body = render_document(tenant.document)
        return 200, JSON_CONTENT_TYPE, body, headers

    # ------------------------------------------------------------------
    # Endpoint: GET /status
    # ------------------------------------------------------------------
    def _get_status(self, query: dict[str, str], body: bytes) -> Response:
        name = query.get("tenant")
        if name is not None:
            tenant = self.state.tenants.get(name)
            if tenant is None:
                return self._not_found(f"unknown tenant {name!r}")
            document: dict[str, Any] = tenant.staleness()
        else:
            document = {
                "tenants": {
                    tenant_name: shard.staleness()
                    for tenant_name, shard in sorted(
                        self.state.tenants.items()
                    )
                },
                "searches_active": self.worker.active(),
            }
        return json_response(200, document)
