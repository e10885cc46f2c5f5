"""The shared calibrate → evaluate → recommend pipeline (Section 7).

This module is the repository's one implementation of the paper's
configuration-tool loop.  One function —
:func:`recommend_from_calibration` — turns the current state of a
:class:`~repro.monitor.stream.StreamingCalibrator` into a canonical
recommendation document.  Both consumers call it:

* the **batch** path (:func:`batch_recommendation`, the programmatic
  twin of ``repro monitor`` followed by ``repro recommend``) replays a
  complete trail file into a fresh calibrator first;
* the **service** path (:mod:`repro.service.server`) calls it against a
  calibrator that was fed the same records over ``POST /events``.

Because the streaming calibrator is bitwise-equal to batch replay on
the same record sequence (the PR 6 contract) and this module is the
single implementation of everything downstream — model overlay, total
request rates, search, document rendering — the two paths produce
**byte-identical** documents.  ``benchmarks/bench_service.py`` gates
exactly that.

The calibrated model overlays measured quantities on a *baseline
project* (the prior landscape): per-type service-time moments replace
the baseline ones (:func:`~repro.monitor.calibration.calibrate_server_type`),
while failure/repair rates and costs — which the audit trail cannot
observe — are kept.  Per-type total request rates are assembled as
``sum_w lambda_w * r_{w,x}`` from the measured arrival rates and
requests-per-instance vectors, which is all the configuration search
needs (:meth:`~repro.core.performance.PerformanceModel.from_request_totals`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.configuration import SEARCHES
from repro.core.evaluation_cache import EvaluationCache, model_fingerprint
from repro.core.goals import GoalEvaluator, PerformabilityGoals
from repro.core.model_types import ServerTypeIndex, ServerTypeSpec
from repro.core.performance import PerformanceModel
from repro.core.search import ReplicationConstraints, frontier_search
from repro.exceptions import (
    InfeasibleConfigurationError,
    ValidationError,
)
from repro.io import Project
from repro.monitor.calibration import calibrate_server_type
from repro.monitor.stream import StreamingCalibrator

#: Schema tag of the canonical recommendation document.
SCHEMA = "repro.service.recommendation/v1"


@dataclass(frozen=True)
class SearchSettings:
    """The re-search strategy the service (or batch twin) runs.

    Mirrors the knobs of the ``recommend`` subcommand: a point search
    by ``algorithm``, or the multi-objective frontier sweep when
    ``frontier`` is set (``objectives``/``seed`` then apply).
    """

    algorithm: str = "greedy"
    frontier: bool = False
    objectives: tuple[str, ...] = ()
    seed: int = 0
    max_total_servers: int = 32
    fixed: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.frontier and self.algorithm not in SEARCHES:
            raise ValidationError(
                f"unknown search algorithm {self.algorithm!r}; "
                f"choose from {sorted(SEARCHES)}"
            )

    def to_document(self) -> dict[str, Any]:
        """Plain-JSON form embedded in every recommendation document."""
        return {
            "algorithm": "frontier" if self.frontier else self.algorithm,
            "frontier": self.frontier,
            "objectives": list(self.objectives),
            "seed": self.seed,
            "max_total_servers": self.max_total_servers,
            "fixed": dict(sorted(self.fixed.items())),
        }


def goals_to_document(goals: PerformabilityGoals) -> dict[str, Any]:
    """Plain-JSON form of the goal thresholds."""
    return {
        "max_waiting_time": goals.max_waiting_time,
        "max_waiting_times_per_type": dict(
            sorted(goals.max_waiting_times_per_type.items())
        ),
        "max_unavailability": goals.max_unavailability,
        "max_unavailability_per_type": dict(
            sorted(goals.max_unavailability_per_type.items())
        ),
    }


def parse_goals(text: str) -> PerformabilityGoals:
    """Parse the CLI's ``--goals`` syntax into goal thresholds.

    The syntax is ``key=value`` pairs separated by commas, with keys
    ``max-waiting`` and ``max-unavailability`` (matching the flags of
    the ``recommend`` subcommand)::

        max-waiting=0.5,max-unavailability=1e-4
    """
    values: dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, separator, raw = part.partition("=")
        if not separator:
            raise ValidationError(
                f"bad --goals entry {part!r}; expected key=value"
            )
        key = key.strip()
        if key not in ("max-waiting", "max-unavailability"):
            raise ValidationError(
                f"unknown goal {key!r}; expected max-waiting or "
                f"max-unavailability"
            )
        try:
            values[key] = float(raw)
        except ValueError:
            raise ValidationError(
                f"bad goal value in {part!r}"
            ) from None
    if not values:
        raise ValidationError(
            "--goals must set max-waiting and/or max-unavailability"
        )
    return PerformabilityGoals(
        max_waiting_time=values.get("max-waiting"),
        max_unavailability=values.get("max-unavailability"),
    )


def calibrated_specs(
    calibrator: StreamingCalibrator, baseline: Project
) -> ServerTypeIndex:
    """Baseline server types with measured service moments overlaid.

    Baseline types without any observed service request keep their
    baseline moments (the prior); measured types missing from the
    baseline raise — the baseline names the landscape the search may
    replicate, and a request against an unknown type means trail and
    baseline do not belong to the same system.
    """
    estimates = calibrator.service_times()
    known = set(baseline.server_types.names)
    unknown = sorted(set(estimates) - known)
    if unknown:
        raise ValidationError(
            f"audit trail names server types missing from the baseline "
            f"project: {unknown}"
        )
    specs: list[ServerTypeSpec] = []
    for spec in baseline.server_types.specs:
        estimate = estimates.get(spec.name)
        if estimate is not None and estimate.sample_count >= 1:
            specs.append(calibrate_server_type(spec, estimate))
        else:
            specs.append(spec)
    return ServerTypeIndex(specs)


def calibrated_model(
    calibrator: StreamingCalibrator,
    baseline: Project,
    observation_period: float | None = None,
) -> PerformanceModel:
    """The partial performance model of the current calibration.

    Total request rates are assembled workflow-by-workflow (sorted by
    name, so the float accumulation order never depends on observation
    order): the measured arrival rate times the measured mean requests
    per instance.  Workflows without a completed instance contribute
    nothing yet.  Raises when no workflow has completed at all — there
    is no workload to recommend against.
    """
    index = calibrated_specs(calibrator, baseline)
    if observation_period is None:
        observation_period = calibrator.observed_span
    if observation_period <= 0.0:
        raise ValidationError(
            "calibration has no observed time span yet; feed the "
            "service more audit records before requesting a "
            "recommendation"
        )
    positions = {name: i for i, name in enumerate(index.names)}
    totals = [0.0] * len(index)
    contributed = False
    for workflow in sorted(calibrator.workflow_types()):
        try:
            requests = calibrator.requests_per_instance(workflow)
        except ValidationError:
            continue
        rate = calibrator.arrival_rate(workflow, observation_period)
        for name in sorted(requests):
            totals[positions[name]] += rate * requests[name]
        contributed = True
    if not contributed:
        raise ValidationError(
            "no workflow instance has completed yet; cannot estimate "
            "arrival rates or per-type request loads"
        )
    return PerformanceModel.from_request_totals(index, totals)


def recommend_from_calibration(
    calibrator: StreamingCalibrator,
    baseline: Project,
    goals: PerformabilityGoals,
    settings: SearchSettings | None = None,
    cache: EvaluationCache | None = None,
    observation_period: float | None = None,
    stop_check: Callable[[], bool] | None = None,
) -> dict[str, Any]:
    """Run the full §7 loop tail on the current calibration.

    Builds the calibrated model, re-binds ``cache`` to its fingerprint
    (:meth:`~repro.core.evaluation_cache.EvaluationCache.rebind` keeps
    still-valid curves and pool marginals, drops the rest), clears the
    assessment cache so the ``evaluations`` accounting matches a cold
    run, executes the configured search, and returns the canonical
    document.  An infeasible search is a *result*, not an error: the
    document carries ``"feasible": false`` plus the violations of the
    best configuration found.

    ``stop_check`` is forwarded to the search engine so a background
    re-search can be abandoned when superseded
    (:class:`~repro.exceptions.SearchCancelledError` propagates to the
    caller).
    """
    settings = settings if settings is not None else SearchSettings()
    model = calibrated_model(calibrator, baseline, observation_period)
    fingerprint = model_fingerprint(model)
    if cache is None:
        cache = EvaluationCache()
    cache.rebind(fingerprint, reason="service recalibration")
    cache.clear_assessments()
    evaluator = GoalEvaluator(model, cache=cache)
    constraints = ReplicationConstraints(
        fixed=dict(settings.fixed),
        max_total_servers=settings.max_total_servers,
    )

    span = (
        calibrator.observed_span
        if observation_period is None
        else observation_period
    )
    document: dict[str, Any] = {
        "schema": SCHEMA,
        "goals": goals_to_document(goals),
        "search": settings.to_document(),
        "calibration": {
            "records_seen": calibrator.records_seen,
            "observation_period": span,
            "window": calibrator.window,
            "workflow_types": sorted(calibrator.workflow_types()),
            "server_types": sorted(calibrator.server_types()),
        },
    }
    try:
        if settings.frontier:
            from repro.core.search.frontier import OBJECTIVES

            objectives = settings.objectives or OBJECTIVES
            result = frontier_search(
                evaluator,
                goals,
                constraints,
                objectives=objectives,
                seed=settings.seed,
                stop_check=stop_check,
            )
            document["feasible"] = True
            document["result"] = result.to_document()
        else:
            recommendation = SEARCHES[settings.algorithm](
                evaluator, goals, constraints, stop_check=stop_check
            )
            document["feasible"] = True
            document["result"] = recommendation.to_document()
    except InfeasibleConfigurationError as error:
        best = error.best_found
        document["feasible"] = False
        document["error"] = str(error)
        document["result"] = (
            best.to_document() if best is not None else None
        )
    return document


def render_document(document: dict[str, Any]) -> bytes:
    """The canonical byte encoding of a recommendation document.

    ``sort_keys`` plus a fixed indent make the rendering a pure function
    of the document's values; Python's shortest-repr float serialization
    makes it a pure function of the *bits* — the unit of the
    service-equals-batch gate.
    """
    return (
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")


def batch_recommendation(
    trail_path: str,
    baseline: Project,
    goals: PerformabilityGoals,
    settings: SearchSettings | None = None,
    window: float = 1_000.0,
    observation_period: float | None = None,
) -> dict[str, Any]:
    """The batch ``monitor`` → ``recommend`` reference path.

    Replays a complete trail file into a fresh streaming calibrator and
    runs the shared pipeline — the document the always-on service must
    reproduce byte-for-byte after ingesting the same records over HTTP.
    """
    from repro.monitor.persistence import iter_trail_records

    calibrator = StreamingCalibrator(window=window)
    calibrator.replay_records(iter_trail_records(trail_path))
    return recommend_from_calibration(
        calibrator,
        baseline,
        goals,
        settings,
        observation_period=observation_period,
    )
