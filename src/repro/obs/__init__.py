"""Observability: solver metrics, span tracing, and run reports.

This package is the instrumentation subsystem of the reproduction.  It
owns one process-wide :class:`~repro.obs.metrics.MetricsRegistry` and
one :class:`~repro.obs.trace.Tracer`, both **disabled by default**: the
module-level recording helpers (:func:`count`, :func:`span`,
:func:`observe`, :func:`event`, ...) are cheap no-ops until
:func:`enable` is called, so the analytic solvers and the simulator pay
essentially nothing when nobody is watching (enforced by
``tests/obs/test_overhead.py``), and produce byte-identical numerical
results either way (``tests/obs/test_regression.py``).

Typical use::

    from repro import obs

    obs.enable()
    ...  # run solvers / searches / simulations
    print(obs.run_report())
    obs.write_metrics_json("metrics.json")
    obs.disable()

Instrumented layers record under dotted metric names:

* ``linalg.*``    — Gauss-Seidel sweeps, direct/sparse solves;
* ``ctmc.*``      — uniformization steps, ``z_max`` truncation depths;
* ``performance.*`` / ``availability.*`` / ``performability.*`` — model
  evaluations and state-space sizes (Sections 4-6 pipelines);
* ``configuration.*`` — search iterations, candidates, goal violations;
* ``sim.*`` / ``wfms.*`` — events executed, queue depths, failures,
  repairs, instance and request counts.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, TextIO

from repro.obs import export as _export
from repro.obs import report as _report
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import NO_OP_SPAN, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NO_OP_SPAN",
    "Span",
    "Tracer",
    "count",
    "disable",
    "enable",
    "event",
    "export_snapshot",
    "is_enabled",
    "merge_snapshot",
    "metrics_document",
    "observe",
    "prometheus_text",
    "registry",
    "reset",
    "run_report",
    "set_gauge",
    "set_max",
    "span",
    "tracer",
    "write_metrics_json",
    "write_trace_jsonl",
]

#: Well-known metrics pre-registered on :func:`reset` so that every
#: metrics dump exposes a stable key set (dashboards and the CLI's
#: ``--metrics-out`` consumers can rely on the solver iteration
#: counters and simulator event counts being present even at zero).
DECLARED_METRICS: tuple[tuple[str, str, str], ...] = (
    ("counter", "linalg.gauss_seidel.solves",
     "Gauss-Seidel systems solved"),
    ("counter", "linalg.gauss_seidel.sweeps",
     "Gauss-Seidel iteration sweeps across all solves"),
    ("counter", "linalg.direct.solves", "Dense LU solves"),
    ("counter", "linalg.sparse.solves", "Sparse LU steady-state solves"),
    ("counter", "ctmc.uniformization.steps",
     "Uniformized chain steps taken (z_max scans + taboo recursions)"),
    ("counter", "performance.assessments",
     "Full Section 4 configuration assessments"),
    ("counter", "performance.waiting_time_points",
     "Single-type M/G/1 waiting-time curve points computed"),
    ("counter", "evaluation_cache.assessments.hits",
     "Goal-assessment cache hits"),
    ("counter", "evaluation_cache.assessments.misses",
     "Goal-assessment cache misses"),
    ("counter", "evaluation_cache.rows.hits",
     "Per-type term rows found in the shared evaluation cache"),
    ("counter", "evaluation_cache.rows.misses",
     "Per-type term rows created in the shared evaluation cache"),
    ("counter", "evaluation_cache.type_terms.hits",
     "Per-(server type, replica count) term cache hits"),
    ("counter", "evaluation_cache.type_terms.misses",
     "Per-(server type, replica count) term cache misses"),
    ("counter", "evaluation_cache.evictions",
     "Entries evicted from the bounded evaluation caches"),
    ("counter", "availability.steady_state_solves",
     "Availability CTMC steady-state solves"),
    ("counter", "performability.evaluations",
     "Section 6 performability expectations computed"),
    ("counter", "configuration.search.iterations",
     "Configuration-search loop iterations across all algorithms"),
    ("counter", "configuration.candidates_evaluated",
     "Candidate configurations evaluated against the goals"),
    ("counter", "configuration.goal_violations",
     "Goal violations observed during search"),
    ("counter", "sim.events_executed",
     "Discrete-event simulator events dispatched"),
    ("counter", "sim.fastdraw.blocks_drawn",
     "Variate blocks pre-drawn by fast-RNG streams"),
    ("counter", "sim.fastdraw.variates_served",
     "Variates handed out by fast-RNG block streams"),
    ("counter", "wfms.requests_submitted",
     "Service requests submitted to server pools"),
    ("counter", "wfms.server_failures", "Replica failures injected"),
    ("counter", "wfms.server_repairs", "Replica repairs completed"),
    ("counter", "wfms.instances_started", "Workflow instances started"),
    ("counter", "wfms.instances_completed",
     "Workflow instances completed"),
    ("gauge", "sim.calendar.max_pending",
     "High-water mark of the event calendar"),
    ("gauge", "sim.events_per_second",
     "Event throughput (events per wall-clock second) of the most "
     "recent simulator dispatch loops"),
    ("counter", "campaign.replications_completed",
     "Simulation-campaign replications finished (serial or parallel)"),
    ("counter", "campaign.merges",
     "Replication statistics merged into campaign aggregates"),
    ("gauge", "campaign.workers",
     "Worker processes serving the most recent campaign"),
    ("counter", "obs.snapshots_merged",
     "Worker observability snapshots merged into this registry"),
    ("counter", "monitor.stream.records",
     "Audit-trail records ingested by the streaming calibrator"),
    ("counter", "monitor.drift.confirmed",
     "Confirmed parameter drifts across all drift detectors"),
)

_registry = MetricsRegistry(enabled=False)
_tracer = Tracer(enabled=False)
_enabled = False


def _declare() -> None:
    for kind, name, help_text in DECLARED_METRICS:
        if kind == "counter":
            _registry.counter(name, help_text)
        elif kind == "gauge":
            _registry.gauge(name, help_text)
        else:
            _registry.histogram(name, help_text)


_declare()


# ----------------------------------------------------------------------
# Process-wide switch
# ----------------------------------------------------------------------
def enable() -> None:
    """Turn on the default registry and tracer."""
    global _enabled
    _enabled = True
    _registry.enable()
    _tracer.enable()


def disable() -> None:
    """Turn observability off again (recorded data is kept)."""
    global _enabled
    _enabled = False
    _registry.disable()
    _tracer.disable()


def is_enabled() -> bool:
    """Whether the process-wide observability switch is on."""
    return _enabled


def reset() -> None:
    """Zero all metrics, drop all spans/events, re-declare well-knowns."""
    _registry.reset()
    _tracer.reset()
    _declare()


def registry() -> MetricsRegistry:
    """The process-wide default metrics registry."""
    return _registry


def tracer() -> Tracer:
    """The process-wide default tracer."""
    return _tracer


# ----------------------------------------------------------------------
# Recording helpers (no-ops while disabled)
# ----------------------------------------------------------------------
def span(name: str, **attributes: Any):
    """Open a span on the default tracer (no-op singleton if disabled)."""
    return _tracer.span(name, **attributes)


def count(name: str, amount: float = 1.0) -> None:
    """Increment counter ``name`` by ``amount`` (no-op while disabled)."""
    if _enabled:
        _registry.counter(name).inc(amount)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (no-op while disabled)."""
    if _enabled:
        _registry.gauge(name).set(value)


def set_max(name: str, value: float) -> None:
    """Raise gauge ``name`` to at least ``value`` (no-op while disabled)."""
    if _enabled:
        _registry.gauge(name).set_max(value)


def observe(name: str, value: float) -> None:
    """Record ``value`` in histogram ``name`` (no-op while disabled)."""
    if _enabled:
        _registry.histogram(name).observe(value)


def event(kind: str, **fields: Any) -> None:
    """Record a point event on the default tracer (no-op while disabled)."""
    if _enabled:
        _tracer.event(kind, **fields)


# ----------------------------------------------------------------------
# Cross-process propagation over the default instances
# ----------------------------------------------------------------------
def export_snapshot() -> dict[str, Any]:
    """Picklable snapshot of the default registry and tracer.

    Worker processes call this after finishing their share of a
    parallel run; the parent folds the result back with
    :func:`merge_snapshot`, so instrumented parallel runs report the
    same totals as serial ones.
    """
    return {
        "metrics": _registry.export_snapshot(),
        "trace": _tracer.export_snapshot(),
    }


def merge_snapshot(snapshot: dict[str, Any] | None) -> int:
    """Fold a worker's :func:`export_snapshot` into the default
    registry and tracer.

    ``None`` (a worker that ran unobserved) is a no-op.  Returns the
    number of merged metrics and counts the merge under
    ``obs.snapshots_merged``.
    """
    if snapshot is None:
        return 0
    merged = _registry.merge_snapshot(snapshot.get("metrics", {}))
    _tracer.merge_snapshot(snapshot.get("trace", {}))
    count("obs.snapshots_merged")
    return merged


# ----------------------------------------------------------------------
# Export / reporting over the default instances
# ----------------------------------------------------------------------
def metrics_document() -> dict[str, Any]:
    """JSON-ready document of all metrics plus a trace summary."""
    return _export.metrics_document(_registry, _tracer)


def write_metrics_json(path: str | Path | TextIO) -> None:
    """Write :func:`metrics_document` as JSON to ``path``."""
    _export.write_metrics_json(path, _registry, _tracer)


def write_trace_jsonl(path: str | Path | TextIO) -> int:
    """Write finished spans as JSON lines; returns the span count."""
    return _export.write_trace_jsonl(path, _tracer)


def prometheus_text(prefix: str = "repro") -> str:
    """Prometheus text-format rendering of the default registry."""
    return _export.prometheus_text(_registry, prefix)


def run_report() -> str:
    """Human-readable run summary over the default metrics and spans."""
    return _report.run_report(_registry, _tracer)
