"""Replicated, parallel simulation campaigns with sound interval estimates.

One seeded :class:`~repro.wfms.runtime.SimulatedWFMS` run yields point
estimates; the paper's validation (Section 7) needs a *confidence
statement* before declaring an analytic prediction confirmed.  This
module turns the one-shot simulator into a campaign runner:

* :class:`CampaignPlan` describes ``N`` independent replications of one
  simulated scenario.  Every replication gets its own master seed derived
  from ``(base_seed, replication index)`` via
  :func:`repro.sim.seeding.derive_seed`, so replications are mutually
  uncorrelated and the whole campaign is reproducible from one integer.
* :func:`run_campaign` executes the replications serially or across a
  spawn-started process pool.  Replications build no audit trail, so
  workers return trail-free measurement reports; the parent folds
  them — **always in replication order** — so the aggregate is
  byte-identical for any worker count.
* :class:`CampaignResult` aggregates every metric two ways: across
  replication means (independent observations, Student-t confidence
  intervals — the statistically defensible estimate) and pooled at the
  event level via :meth:`~repro.sim.statistics.RunningStats.merge` /
  :meth:`~repro.sim.statistics.TimeWeightedStats.merge`.
* :func:`validate_against_models` compares analytic predictions
  (turnaround, per-type waiting time and utilization, availability,
  performability waiting) against the replication confidence intervals
  and issues a per-metric verdict — the :class:`ValidationDocument` the
  E7 experiment and the integration tests are built on.

The module is imported as ``repro.sim.campaign`` (not re-exported from
:mod:`repro.sim`, which stays a dependency-free simulation kernel).
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Sequence

from repro import obs
from repro.core.availability import AvailabilityModel
from repro.core.model_types import ServerTypeIndex
from repro.core.performability import PerformabilityModel
from repro.core.performance import PerformanceModel, SystemConfiguration
from repro.exceptions import ValidationError
from repro.sim.seeding import derive_seed
from repro.sim.statistics import RunningStats, TimeWeightedStats
from repro.spec.translator import DEFAULT_ROUTING_DURATION
from repro.wfms.measurement import WFMSMeasurementReport
from repro.wfms.routing import RoutingPolicy
from repro.wfms.runtime import (
    DurationSampling,
    SimulatedWFMS,
    SimulatedWorkflowType,
)

__all__ = [
    "CampaignPlan",
    "CampaignResult",
    "MetricEstimate",
    "MetricValidation",
    "ReplicationResult",
    "ServerTypeAggregate",
    "ValidationDocument",
    "WorkflowAggregate",
    "run_campaign",
    "run_replication",
    "validate_against_models",
]

#: Confidence level of every campaign interval estimate.
CONFIDENCE = 0.95


def _t_quantile(degrees_of_freedom: int) -> float:
    """Two-sided Student-t quantile at the campaign confidence level."""
    from scipy.stats import t

    return float(t.ppf(0.5 + CONFIDENCE / 2.0, degrees_of_freedom))


# ----------------------------------------------------------------------
# Plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignPlan:
    """``N`` independent replications of one simulated WFMS scenario.

    The plan is picklable (charts, registries, and specs are plain
    dataclasses), so worker processes rebuild each replication from the
    plan alone — nothing simulation-related crosses process boundaries
    except this description and the per-replication results.
    """

    server_types: ServerTypeIndex
    configuration: SystemConfiguration
    workflow_types: tuple[SimulatedWorkflowType, ...]
    duration: float
    replications: int = 10
    warmup: float = 0.0
    base_seed: int = 0
    routing_policy: RoutingPolicy = RoutingPolicy.HASH
    duration_sampling: DurationSampling = DurationSampling.EXPONENTIAL
    inject_failures: bool = True
    default_routing_duration: float = DEFAULT_ROUTING_DURATION
    #: ``"exact"`` keeps the bit-identical ``random.Random`` contract;
    #: ``"fast"`` switches every replication to numpy block pre-drawing
    #: (statistically equivalent, own golden documents — see
    #: :mod:`repro.sim.fastdraw`).
    rng_mode: str = "exact"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "workflow_types", tuple(self.workflow_types)
        )
        if self.rng_mode not in ("exact", "fast"):
            raise ValidationError(
                f"rng_mode must be 'exact' or 'fast', got {self.rng_mode!r}"
            )
        if not self.workflow_types:
            raise ValidationError("campaign needs at least one workflow type")
        if self.replications < 1:
            raise ValidationError("replications must be >= 1")
        if self.duration <= 0.0:
            raise ValidationError("duration must be positive")
        if self.warmup < 0.0:
            raise ValidationError("warmup must be >= 0")

    def seed_for(self, index: int) -> int:
        """The derived master seed of replication ``index``."""
        if not 0 <= index < self.replications:
            raise ValidationError(
                f"replication index {index} outside [0, {self.replications})"
            )
        return derive_seed(self.base_seed, "campaign-replication", index)

    def build_wfms(
        self, index: int, record_trail: bool = False
    ) -> SimulatedWFMS:
        """Construct the (not yet run) WFMS of replication ``index``.

        It builds no audit trail unless ``record_trail`` is set: a
        campaign keeps only the measurements, which are the same either
        way, as is every simulated event.
        """
        return SimulatedWFMS(
            server_types=self.server_types,
            configuration=self.configuration,
            workflow_types=list(self.workflow_types),
            seed=self.seed_for(index),
            routing_policy=self.routing_policy,
            duration_sampling=self.duration_sampling,
            inject_failures=self.inject_failures,
            default_routing_duration=self.default_routing_duration,
            rng_mode=self.rng_mode,
            record_trail=record_trail,
        )


def run_replication(plan: CampaignPlan, index: int) -> WFMSMeasurementReport:
    """Run one replication and return its full report, audit trail included.

    This is the single-run escape hatch: calibration round trips need
    the audit trail, which :func:`run_campaign`'s replications never
    build.
    """
    return plan.build_wfms(index, record_trail=True).run(
        duration=plan.duration, warmup=plan.warmup
    )


# ----------------------------------------------------------------------
# Replication execution (worker side)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicationResult:
    """One replication's measurements: a report with an empty trail."""

    index: int
    seed: int
    events_executed: int
    report: WFMSMeasurementReport
    #: Worker observability delta (:func:`repro.obs.export_snapshot`);
    #: ``None`` for serial or unobserved replications.  The campaign
    #: runner merges and strips it before aggregation.
    obs_snapshot: dict | None = None

    @property
    def system_unavailability(self) -> float:
        """Shortcut to the replication's measured unavailability."""
        return self.report.system_unavailability


def _run_replication_task(
    plan: CampaignPlan, index: int, observe: bool = False
) -> ReplicationResult:
    """Worker entry point: run replication ``index`` of ``plan``.

    Module-level so it pickles under the spawn start method.  The
    replication builds no audit trail — a campaign measures aggregates,
    not individual instances — so its report's trail is empty.

    ``observe=True`` is the parallel-worker path with instrumentation
    on: the worker's registry is reset before the run (workers are
    reused across replications, so the export must be this
    replication's delta) and the snapshot rides home on the result.
    Serial runs record straight into the parent registry and leave the
    flag off.
    """
    if observe:
        obs.reset()
        obs.enable()
    wfms = plan.build_wfms(index)
    report = wfms.run(duration=plan.duration, warmup=plan.warmup)
    return ReplicationResult(
        index=index,
        seed=plan.seed_for(index),
        events_executed=wfms.logical_events,
        report=report,
        obs_snapshot=obs.export_snapshot() if observe else None,
    )


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetricEstimate:
    """Mean and Student-t confidence interval over replication values."""

    mean: float
    std: float
    half_width: float
    n: int
    minimum: float
    maximum: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "MetricEstimate":
        """Estimate from one value per (independent) replication.

        With fewer than two replications the interval is vacuous
        (infinite half width): one run supports no confidence statement.
        """
        stats = RunningStats()
        for value in values:
            stats.add(value)
        if stats.count < 2:
            half_width = math.inf
        else:
            half_width = (
                _t_quantile(stats.count - 1)
                * stats.standard_deviation
                / math.sqrt(stats.count)
            )
        return cls(
            mean=stats.mean,
            std=stats.standard_deviation,
            half_width=half_width,
            n=stats.count,
            minimum=stats.minimum,
            maximum=stats.maximum,
        )

    @property
    def ci95(self) -> tuple[float, float]:
        """The two-sided interval ``mean +/- half_width``."""
        return (self.mean - self.half_width, self.mean + self.half_width)

    def contains(self, value: float) -> bool:
        """Whether ``value`` falls inside the confidence interval."""
        low, high = self.ci95
        return low <= value <= high

    def to_document(self) -> dict[str, Any]:
        """JSON-serializable form (deterministic field order)."""
        return {
            "mean": self.mean,
            "std": self.std,
            "ci95": list(self.ci95),
            "half_width": self.half_width,
            "n": self.n,
            "min": self.minimum,
            "max": self.maximum,
        }


@dataclass(frozen=True)
class WorkflowAggregate:
    """Campaign-level estimates for one workflow type."""

    name: str
    total_completed: int
    turnaround: MetricEstimate
    throughput: MetricEstimate
    #: Event-level turnarounds of *all* replications merged together.
    pooled_turnaround: RunningStats

    def to_document(self) -> dict[str, Any]:
        """JSON-serializable form."""
        return {
            "total_completed": self.total_completed,
            "turnaround": self.turnaround.to_document(),
            "throughput": self.throughput.to_document(),
            "pooled_turnaround_mean": self.pooled_turnaround.mean,
            "pooled_turnaround_ci95": list(
                self.pooled_turnaround.confidence_interval_95()
            ),
        }


@dataclass(frozen=True)
class ServerTypeAggregate:
    """Campaign-level estimates for one server type."""

    name: str
    total_requests: int
    utilization: MetricEstimate
    waiting_time: MetricEstimate
    unavailability: MetricEstimate

    def to_document(self) -> dict[str, Any]:
        """JSON-serializable form."""
        return {
            "total_requests": self.total_requests,
            "utilization": self.utilization.to_document(),
            "waiting_time": self.waiting_time.to_document(),
            "unavailability": self.unavailability.to_document(),
        }


@dataclass(frozen=True)
class CampaignResult:
    """Everything a campaign measured, aggregated across replications."""

    plan: CampaignPlan
    replications: tuple[ReplicationResult, ...]
    workflow_types: dict[str, WorkflowAggregate]
    server_types: dict[str, ServerTypeAggregate]
    system_unavailability: MetricEstimate
    #: Duration-weighted pool of the per-replication up-time windows.
    pooled_system_unavailability: float
    total_events: int

    def to_document(self) -> dict[str, Any]:
        """Deterministic JSON document of the aggregate.

        Contains no wall-clock times and no worker counts, so the same
        plan produces an *identical* document whether the campaign ran
        serially or on any number of worker processes.  The ``rng_mode``
        key appears only for non-exact modes: exact-mode documents are
        byte-identical to the ones recorded before the fast mode
        existed, so the exact goldens stay untouched.
        """
        document: dict[str, Any] = {
            "schema": "repro.sim.campaign/v1",
            "replications": self.plan.replications,
            "base_seed": self.plan.base_seed,
            "seeds": [r.seed for r in self.replications],
            "duration": self.plan.duration,
            "warmup": self.plan.warmup,
            "configuration": dict(
                sorted(self.plan.configuration.replicas.items())
            ),
            "inject_failures": self.plan.inject_failures,
            "routing_policy": self.plan.routing_policy.value,
            "duration_sampling": self.plan.duration_sampling.value,
            "total_events": self.total_events,
            "workflow_types": {
                name: aggregate.to_document()
                for name, aggregate in sorted(self.workflow_types.items())
            },
            "server_types": {
                name: aggregate.to_document()
                for name, aggregate in sorted(self.server_types.items())
            },
            "system_unavailability": self.system_unavailability.to_document(),
            "pooled_system_unavailability":
                self.pooled_system_unavailability,
        }
        if self.plan.rng_mode != "exact":
            document["rng_mode"] = self.plan.rng_mode
        return document

    def format_text(self) -> str:
        """Human-readable campaign summary."""
        plan = self.plan
        lines = [
            f"Campaign: {plan.replications} replications x "
            f"{plan.duration:g} time units "
            f"(warm-up {plan.warmup:g}, base seed {plan.base_seed})",
            f"  events executed: {self.total_events}",
            f"  system unavailability: "
            f"{_format_estimate(self.system_unavailability, '.3e')}",
            "  Workflow type          completed   "
            "turnaround (mean +/- 95% CI)   throughput",
        ]
        for name, aggregate in sorted(self.workflow_types.items()):
            lines.append(
                f"    {name:20s} {aggregate.total_completed:9d}   "
                f"{_format_estimate(aggregate.turnaround, '.3f'):28s} "
                f"{aggregate.throughput.mean:10.6f}"
            )
        lines.append(
            "  Server type          requests   "
            "waiting (mean +/- 95% CI)      utilization"
        )
        for name, aggregate in sorted(self.server_types.items()):
            lines.append(
                f"    {name:18s} {aggregate.total_requests:9d}   "
                f"{_format_estimate(aggregate.waiting_time, '.5f'):28s} "
                f"{aggregate.utilization.mean:10.4f}"
            )
        return "\n".join(lines)


def _format_estimate(estimate: MetricEstimate, spec: str) -> str:
    """``mean +/- half_width`` with a shared format spec."""
    if math.isinf(estimate.half_width):
        return f"{estimate.mean:{spec}} (no CI, n={estimate.n})"
    return f"{estimate.mean:{spec}} +/- {estimate.half_width:{spec}}"


def _aggregate(
    plan: CampaignPlan, results: Sequence[ReplicationResult]
) -> CampaignResult:
    """Fold per-replication results (in replication order) together."""
    ordered = sorted(results, key=lambda result: result.index)
    workflow_aggregates: dict[str, WorkflowAggregate] = {}
    for workflow_type in plan.workflow_types:
        name = workflow_type.chart.name
        measurements = [r.report.workflow_types[name] for r in ordered]
        pooled = RunningStats.merged(
            [
                m.turnaround_stats
                for m in measurements
                if m.turnaround_stats is not None
            ]
        )
        obs.count("campaign.merges")
        workflow_aggregates[name] = WorkflowAggregate(
            name=name,
            total_completed=sum(m.completed_instances for m in measurements),
            turnaround=MetricEstimate.from_values(
                [m.mean_turnaround_time for m in measurements]
            ),
            throughput=MetricEstimate.from_values(
                [m.throughput for m in measurements]
            ),
            pooled_turnaround=pooled,
        )
    server_aggregates: dict[str, ServerTypeAggregate] = {}
    for spec in plan.server_types.specs:
        measurements = [r.report.server_types[spec.name] for r in ordered]
        server_aggregates[spec.name] = ServerTypeAggregate(
            name=spec.name,
            total_requests=sum(m.completed_requests for m in measurements),
            utilization=MetricEstimate.from_values(
                [m.utilization for m in measurements]
            ),
            waiting_time=MetricEstimate.from_values(
                [m.mean_waiting_time for m in measurements]
            ),
            unavailability=MetricEstimate.from_values(
                [m.unavailability for m in measurements]
            ),
        )
    pooled_up = TimeWeightedStats()
    for result in ordered:
        window = result.report.availability_stats
        if window is not None:
            pooled_up.merge(window)
            obs.count("campaign.merges")
    return CampaignResult(
        plan=plan,
        replications=tuple(ordered),
        workflow_types=workflow_aggregates,
        server_types=server_aggregates,
        system_unavailability=MetricEstimate.from_values(
            [r.system_unavailability for r in ordered]
        ),
        pooled_system_unavailability=1.0 - pooled_up.time_average(),
        total_events=sum(r.events_executed for r in ordered),
    )


# ----------------------------------------------------------------------
# Campaign runner
# ----------------------------------------------------------------------
def run_campaign(plan: CampaignPlan, workers: int = 1) -> CampaignResult:
    """Run every replication of ``plan`` and aggregate the results.

    ``workers > 1`` fans the replications out over spawn-started worker
    processes; because each replication is fully determined by its
    derived seed and the parent aggregates in replication order, the
    result — including its :meth:`~CampaignResult.to_document` form —
    is identical for every worker count.

    When observability is enabled, parallel workers record their share
    (``sim.*``, ``wfms.*`` counters) under freshly reset registries and
    the parent merges the deltas in replication order — so instrumented
    campaigns report the same counter totals for every worker count
    (wall-clock gauges like ``sim.events_per_second`` excepted).
    """
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    effective_workers = min(workers, plan.replications)
    with obs.span(
        "campaign.run",
        replications=plan.replications,
        workers=effective_workers,
    ) as span:
        obs.set_gauge("campaign.workers", effective_workers)
        if effective_workers == 1:
            results = []
            for index in range(plan.replications):
                with obs.span("campaign.replication", index=index):
                    results.append(_run_replication_task(plan, index))
                obs.count("campaign.replications_completed")
        else:
            observe = obs.is_enabled()
            with ProcessPoolExecutor(
                max_workers=effective_workers,
                mp_context=multiprocessing.get_context("spawn"),
            ) as pool:
                futures = [
                    pool.submit(_run_replication_task, plan, index, observe)
                    for index in range(plan.replications)
                ]
                results = []
                for future in futures:
                    result = future.result()
                    # Merge worker metrics in replication order, then
                    # strip the snapshot so the aggregate is identical
                    # to a serial run's.
                    obs.merge_snapshot(result.obs_snapshot)
                    if result.obs_snapshot is not None:
                        result = dataclasses.replace(
                            result, obs_snapshot=None
                        )
                    results.append(result)
                    obs.count("campaign.replications_completed")
        with obs.span("campaign.aggregate"):
            result = _aggregate(plan, results)
        span.set("events", result.total_events)
    return result


# ----------------------------------------------------------------------
# Validation against the analytic models
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetricValidation:
    """One analytic-vs-simulated comparison with its verdict."""

    metric: str
    analytic: float
    simulated: MetricEstimate
    #: ``True`` when the analytic prediction lies inside the simulated
    #: confidence interval.
    within_ci: bool
    #: Signed relative deviation ``(simulated - analytic) / analytic``.
    relative_error: float
    note: str = ""

    @property
    def verdict(self) -> str:
        """``within CI`` or ``outside CI`` (vacuous intervals excluded)."""
        if math.isinf(self.simulated.half_width):
            return "no CI (n < 2)"
        return "within CI" if self.within_ci else "outside CI"

    def to_document(self) -> dict[str, Any]:
        """JSON-serializable form."""
        return {
            "metric": self.metric,
            "analytic": self.analytic,
            "simulated": self.simulated.to_document(),
            "within_ci": self.within_ci,
            "relative_error": self.relative_error,
            "verdict": self.verdict,
            "note": self.note,
        }


@dataclass(frozen=True)
class ValidationDocument:
    """Per-metric verdicts of one analytic-vs-campaign comparison."""

    replications: int
    confidence: float
    metrics: tuple[MetricValidation, ...]

    def __getitem__(self, metric: str) -> MetricValidation:
        for validation in self.metrics:
            if validation.metric == metric:
                return validation
        raise KeyError(metric)

    @property
    def all_within(self) -> bool:
        """Whether every analytic prediction fell inside its CI."""
        return all(validation.within_ci for validation in self.metrics)

    @property
    def failures(self) -> tuple[MetricValidation, ...]:
        """The comparisons whose prediction fell outside the CI."""
        return tuple(v for v in self.metrics if not v.within_ci)

    def to_document(self) -> dict[str, Any]:
        """JSON-serializable form (deterministic ordering)."""
        return {
            "schema": "repro.sim.campaign.validation/v1",
            "replications": self.replications,
            "confidence": self.confidence,
            "all_within_ci": self.all_within,
            "metrics": [v.to_document() for v in self.metrics],
        }

    def format_text(self) -> str:
        """Human-readable verdict table."""
        lines = [
            f"Validation against analytic models "
            f"({self.replications} replications, "
            f"{self.confidence:.0%} confidence intervals)",
            "  metric                        analytic     "
            "simulated (mean +/- CI)        rel.err   verdict",
        ]
        for validation in self.metrics:
            estimate = validation.simulated
            lines.append(
                f"    {validation.metric:26s} {validation.analytic:10.4f}   "
                f"{_format_estimate(estimate, '.4f'):28s} "
                f"{validation.relative_error:+8.2%}   {validation.verdict}"
            )
        status = "PASS" if self.all_within else (
            f"{len(self.failures)} metric(s) outside their CI"
        )
        lines.append(f"  overall: {status}")
        return "\n".join(lines)


def _compare(
    metric: str,
    analytic: float,
    simulated: MetricEstimate,
    note: str = "",
) -> MetricValidation:
    """Build one comparison row."""
    if analytic != 0.0:
        relative = (simulated.mean - analytic) / analytic
    else:
        relative = math.inf if simulated.mean != 0.0 else 0.0
    return MetricValidation(
        metric=metric,
        analytic=analytic,
        simulated=simulated,
        within_ci=simulated.contains(analytic),
        relative_error=relative,
        note=note,
    )


def validate_against_models(
    result: CampaignResult,
    performance: PerformanceModel,
    availability: AvailabilityModel | None = None,
    performability: PerformabilityModel | None = None,
    waiting_times: bool = True,
) -> ValidationDocument:
    """Compare analytic predictions with the campaign's intervals.

    Emits one row per prediction the models make about the simulated
    scenario: per-workflow turnaround, per-type utilization, per-type
    waiting time (failure-free from ``performance``, or the Section 6
    performability expectation ``W^Y`` when ``performability`` is
    given — the right comparison for failure-injected campaigns), and
    system unavailability when ``availability`` is given.  Set
    ``waiting_times=False`` to skip the waiting rows (e.g. when the
    simulated arrival process deliberately violates the M/G/1 Poisson
    assumption and a within-CI verdict is not meaningful).
    """
    configuration = result.plan.configuration
    metrics: list[MetricValidation] = []
    for name, aggregate in sorted(result.workflow_types.items()):
        metrics.append(
            _compare(
                f"turnaround[{name}]",
                performance.turnaround_time(name),
                aggregate.turnaround,
            )
        )
    names = result.plan.server_types.names
    utilizations = performance.utilizations(configuration)
    for i, name in enumerate(names):
        metrics.append(
            _compare(
                f"utilization[{name}]",
                float(utilizations[i]),
                result.server_types[name].utilization,
            )
        )
    if waiting_times:
        if performability is not None:
            report = performability.expected_waiting_times()
            predictions = report.expected_waiting_times
            note = "performability W^Y (failures included)"
        else:
            values = performance.waiting_times(configuration)
            predictions = {
                name: float(values[i]) for i, name in enumerate(names)
            }
            note = "failure-free M/G/1"
        for name in names:
            metrics.append(
                _compare(
                    f"waiting[{name}]",
                    predictions[name],
                    result.server_types[name].waiting_time,
                    note=note,
                )
            )
    if availability is not None:
        metrics.append(
            _compare(
                "unavailability",
                availability.unavailability(),
                result.system_unavailability,
            )
        )
    return ValidationDocument(
        replications=result.plan.replications,
        confidence=CONFIDENCE,
        metrics=tuple(metrics),
    )
