"""The always-on recommendation service (the paper's §7 loop, live).

Wires the existing pieces — streaming calibration
(:mod:`repro.monitor.stream`), drift detection
(:mod:`repro.monitor.drift`), the evaluation cache and configuration
search (:mod:`repro.core.search`) — into a long-running HTTP service:

* :mod:`repro.service.pipeline` — the shared calibrate → evaluate →
  recommend tail; the batch path and the service call the same
  function, which is what makes the served document byte-identical to
  the ``monitor`` → ``recommend`` batch pipeline;
* :mod:`repro.service.state` — per-tenant shards and the snapshot
  format for graceful shutdown / warm restart;
* :mod:`repro.service.server` — the HTTP service, a subclass of the
  asyncio :class:`repro.obs.server.MetricsServer` that adds
  ``POST /events``, ``GET /recommendation`` and ``GET /status`` to the
  ``/metrics``/``/health``/``/report`` observability endpoints;
* :mod:`repro.service.worker` — the one search thread behind it, fed
  by one pending slot per tenant (the newest submission wins).

The CLI front door is ``repro serve`` (see ``docs/OPERATIONS.md`` for
the runbook and ``docs/CLI.md`` for every flag).
"""

from repro.service.pipeline import (
    SCHEMA,
    SearchSettings,
    batch_recommendation,
    calibrated_model,
    calibrated_specs,
    goals_to_document,
    parse_goals,
    recommend_from_calibration,
    render_document,
)
from repro.service.server import SERVICE_METRICS, RecommendationService
from repro.service.state import (
    DEFAULT_TENANT,
    SNAPSHOT_SCHEMA,
    ServiceState,
    TenantState,
)

__all__ = [
    "DEFAULT_TENANT",
    "RecommendationService",
    "SCHEMA",
    "SERVICE_METRICS",
    "SNAPSHOT_SCHEMA",
    "SearchSettings",
    "ServiceState",
    "TenantState",
    "batch_recommendation",
    "calibrated_model",
    "calibrated_specs",
    "goals_to_document",
    "parse_goals",
    "recommend_from_calibration",
    "render_document",
]
