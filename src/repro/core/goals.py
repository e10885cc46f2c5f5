"""Performability goals and their evaluation (Section 7.1).

System administrators specify two kinds of goals: a tolerance threshold
for the mean waiting time of service requests (optionally refined per
server type) and a tolerance threshold for the unavailability of the
entire WFMS.  :class:`GoalEvaluator` checks a candidate configuration
against these goals using the availability model (Section 5) and the
performability model (Section 6); it is the inner loop of the
configuration search (Section 7.2).  Both models' product forms make a
candidate's numbers a fold over per-type terms, so an assessment builds
neither model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro import obs
from repro.core.availability import RepairPolicy
from repro.core.evaluation_cache import (
    MAX_ASSESSMENTS,
    BoundedCache,
    EvaluationCache,
)
from repro.core.model_types import ServerTypeIndex
from repro.core.performance import PerformanceModel, SystemConfiguration
from repro.core.performability import (
    DegradedStatePolicy,
    PerformabilityReport,
    check_penalty,
    fold_report,
    system_unavailability,
)
from repro.exceptions import ValidationError


@dataclass(frozen=True)
class PerformabilityGoals:
    """Goal thresholds for a WFMS configuration.

    Parameters
    ----------
    max_waiting_time:
        Tolerance threshold on the expected (performability) waiting time,
        applied to every server type unless overridden per type.
    max_waiting_times_per_type:
        Optional per-type refinements; keys are server type names.
    max_unavailability:
        Tolerance threshold on the system unavailability (1 minus the
        required minimum availability level).
    max_unavailability_per_type:
        Optional per-server-type availability refinements (Section 7.1:
        goals "can be refined into workflow-type-specific goals, by
        requiring, for example, different ... availability levels for
        specific server types"): the probability that *all* replicas of
        the named type are down must stay below the threshold.
    """

    max_waiting_time: float | None = None
    max_waiting_times_per_type: Mapping[str, float] = field(
        default_factory=dict
    )
    max_unavailability: float | None = None
    max_unavailability_per_type: Mapping[str, float] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        per_type = dict(self.max_waiting_times_per_type)
        object.__setattr__(self, "max_waiting_times_per_type", per_type)
        per_type_availability = dict(self.max_unavailability_per_type)
        object.__setattr__(
            self, "max_unavailability_per_type", per_type_availability
        )
        if (self.max_waiting_time is None and not per_type
                and self.max_unavailability is None
                and not per_type_availability):
            raise ValidationError("at least one goal must be specified")
        if self.max_waiting_time is not None and self.max_waiting_time <= 0.0:
            raise ValidationError("max_waiting_time must be positive")
        for name, threshold in per_type.items():
            if threshold <= 0.0:
                raise ValidationError(
                    f"waiting-time threshold of {name} must be positive"
                )
        for name, threshold in per_type_availability.items():
            if not 0.0 < threshold < 1.0:
                raise ValidationError(
                    f"unavailability threshold of {name} must lie strictly "
                    "in (0, 1)"
                )
        if self.max_unavailability is not None:
            if not 0.0 < self.max_unavailability < 1.0:
                raise ValidationError(
                    "max_unavailability must lie strictly in (0, 1)"
                )

    @property
    def has_performance_goal(self) -> bool:
        """Whether any waiting-time bound (global or per-type) is set."""
        return (self.max_waiting_time is not None
                or bool(self.max_waiting_times_per_type))

    @property
    def has_availability_goal(self) -> bool:
        """Whether any unavailability bound (global or per-type) is set."""
        return (self.max_unavailability is not None
                or bool(self.max_unavailability_per_type))

    def waiting_time_threshold(self, server_type: str) -> float:
        """Effective threshold for one server type (inf if unconstrained)."""
        if server_type in self.max_waiting_times_per_type:
            return float(self.max_waiting_times_per_type[server_type])
        if self.max_waiting_time is not None:
            return float(self.max_waiting_time)
        return math.inf

    def type_unavailability_threshold(self, server_type: str) -> float:
        """Per-type unavailability threshold (inf if unconstrained)."""
        if server_type in self.max_unavailability_per_type:
            return float(self.max_unavailability_per_type[server_type])
        return math.inf

    def cache_key(self) -> tuple:
        """Canonical value-based key of these goals.

        Two goals objects with equal thresholds produce equal keys, and
        unequal thresholds produce unequal keys — unlike ``id(goals)``,
        which CPython recycles after garbage collection, so a dropped
        goals object could alias a new one and serve stale assessments.
        """
        return (
            self.max_waiting_time,
            tuple(sorted(self.max_waiting_times_per_type.items())),
            self.max_unavailability,
            tuple(sorted(self.max_unavailability_per_type.items())),
        )

    def requiring_all_metrics(self) -> "PerformabilityGoals":
        """Equal-bounds goals whose assessments expose every metric.

        :meth:`GoalEvaluator.assess` skips the (expensive)
        performability model when no waiting-time goal is set.  The
        multi-objective frontier search, however, needs *all* of
        ``(cost, waiting time, unavailability, performability waiting
        time)`` for every candidate even when an axis is unbounded.
        This returns goals with the identical feasible region — an
        unbounded waiting axis becomes an explicit ``inf`` threshold,
        which can never be violated (``inf > inf`` is false, so even a
        saturated type stays within an unbounded goal) — but whose
        assessments always carry the performability report.
        """
        if self.has_performance_goal:
            return self
        return PerformabilityGoals(
            max_waiting_time=math.inf,
            max_waiting_times_per_type=self.max_waiting_times_per_type,
            max_unavailability=self.max_unavailability,
            max_unavailability_per_type=self.max_unavailability_per_type,
        )


@dataclass(frozen=True)
class GoalViolation:
    """One violated goal in an assessment."""

    kind: str  # "waiting_time", "unavailability", or "type_unavailability"
    server_type: str | None
    actual: float
    threshold: float

    def __str__(self) -> str:
        if self.kind == "waiting_time":
            subject = f"waiting time of {self.server_type}"
        elif self.kind == "type_unavailability":
            subject = f"unavailability of {self.server_type}"
        else:
            subject = "system unavailability"
        return f"{subject}: {self.actual:.6g} exceeds {self.threshold:.6g}"


@dataclass(frozen=True)
class GoalAssessment:
    """Outcome of checking one configuration against the goals."""

    configuration: SystemConfiguration
    goals: PerformabilityGoals
    violations: tuple[GoalViolation, ...]
    performability: PerformabilityReport | None
    unavailability: float | None
    per_type_unavailability: dict[str, float]
    utilizations: dict[str, float]

    @property
    def satisfied(self) -> bool:
        """Whether the configuration meets every specified goal."""
        return not self.violations

    @property
    def availability_satisfied(self) -> bool:
        """Whether no (un)availability goal is violated."""
        return not any(
            violation.kind in ("unavailability", "type_unavailability")
            for violation in self.violations
        )

    @property
    def performance_satisfied(self) -> bool:
        """Whether no waiting-time goal is violated."""
        return not any(
            violation.kind == "waiting_time" for violation in self.violations
        )

    @property
    def saturated_types(self) -> tuple[str, ...]:
        """Server types that are truly saturated (utilization >= 1).

        Distinguishes "the pool cannot sustain its load at all" from "a
        waiting-time goal is merely violated": a saturated type's
        waiting time is ``inf`` for structural reasons (the M/G/1
        station has no steady state), while a violated-but-finite
        waiting time only means the threshold is too tight.  The
        frontier search reports this per point so operators can tell
        undersized configurations from tightly-bounded ones.  Types
        with zero replicas but positive load have infinite utilization
        and are included.
        """
        return tuple(
            name
            for name, utilization in sorted(self.utilizations.items())
            if utilization >= 1.0
        )


class GoalEvaluator:
    """Evaluates configurations against performability goals.

    Assesses a candidate as a fold over one
    :class:`~repro.core.performability.TypeTerm` per server type, read
    from the ``k`` :class:`~repro.core.performability.TypeRow` objects
    the evaluator resolves once from its
    :class:`~repro.core.evaluation_cache.EvaluationCache`; each row is
    keyed by the type's spec, its total request rate and the
    evaluator's policies, so a cache shared by several evaluators (one
    per search algorithm, or one per recalibrated model) reuses the
    terms of every type whose inputs did not move.  Whole assessments
    are memoized per evaluator (up to
    :data:`~repro.core.evaluation_cache.MAX_ASSESSMENTS`), keyed by the
    *values* of the configuration and the goals, which the iterating
    search of Section 7.2 relies on; :attr:`evaluation_count` counts
    this evaluator's assessments that were not memoized.  A disabled
    cache memoizes neither.
    """

    def __init__(
        self,
        performance: PerformanceModel,
        repair_policy: RepairPolicy = RepairPolicy.INDEPENDENT,
        degraded_policy: DegradedStatePolicy = DegradedStatePolicy.CONDITIONAL,
        penalty_waiting_time: float | None = None,
        cache: EvaluationCache | None = None,
    ) -> None:
        check_penalty(degraded_policy, penalty_waiting_time)
        self.performance = performance
        self.repair_policy = repair_policy
        self.degraded_policy = degraded_policy
        self.penalty_waiting_time = penalty_waiting_time
        self.cache = cache if cache is not None else EvaluationCache()
        self._rows = [
            self.cache.row(
                spec,
                float(total),
                repair_policy,
                degraded_policy,
                penalty_waiting_time,
            )
            for spec, total in zip(
                performance.server_types.specs,
                performance.total_request_rates(),
            )
        ]
        self._assessments = (
            BoundedCache("assessments", MAX_ASSESSMENTS)
            if self.cache.enabled
            else None
        )
        #: What :meth:`assess` reads of the last goals object it saw:
        #: ``(goals, cache_key, per-type unavailability thresholds,
        #: per-type waiting-time thresholds or None)``.  Holding the
        #: object keeps its identity from being reused.
        self._goal_plan: tuple | None = None
        self.evaluation_count = 0

    @property
    def server_types(self) -> ServerTypeIndex:
        """Server-type index shared by the underlying models."""
        return self.performance.server_types

    def _counts(self, configuration: SystemConfiguration) -> list[int]:
        """Replica counts in type order; rejects any other configuration."""
        names = self.server_types.names
        replicas = configuration.replicas
        counts = [replicas.get(name, 0) for name in names]
        if min(counts) < 1:
            raise ValidationError(
                "every server type needs at least one configured replica; "
                f"got {configuration}"
            )
        if len(replicas) != len(counts):
            unknown = sorted(set(replicas) - set(names))
            raise ValidationError(
                f"unknown server type(s) {', '.join(unknown)} in "
                f"{configuration}; the model has {', '.join(names)}"
            )
        return counts

    def _plan(self, goals: PerformabilityGoals) -> tuple:
        """The goals' memo key and per-type thresholds, once per object."""
        plan = self._goal_plan
        if plan is None or plan[0] is not goals:
            names = self.server_types.names
            plan = self._goal_plan = (
                goals,
                goals.cache_key(),
                [goals.type_unavailability_threshold(name) for name in names],
                [goals.waiting_time_threshold(name) for name in names]
                if goals.has_performance_goal else None,
            )
        return plan

    def assess(
        self,
        configuration: SystemConfiguration,
        goals: PerformabilityGoals,
    ) -> GoalAssessment:
        """Check one configuration against the goals (memoized).

        A configuration without a replica of every model type, or with
        a type the model does not know, raises
        :class:`~repro.exceptions.ValidationError` before anything is
        counted.  The memo key combines the replica counts in type order
        with the goals' *values* (never object identity), so
        equal-valued goals objects share an entry and
        dropped-and-recreated objects can never alias a stale one.
        """
        counts = self._counts(configuration)
        _, goals_key, type_thresholds, waiting_thresholds = self._plan(goals)
        key = (tuple(counts), goals_key)
        if self._assessments is not None:
            cached = self._assessments.get(key)
            if cached is not None:
                return cached

        self.evaluation_count += 1
        obs.count("configuration.candidates_evaluated")
        names = self.server_types.names
        terms = self.cache.terms(self._rows, counts)
        violations: list[GoalViolation] = []

        unavailability = system_unavailability(terms)
        per_type = {
            name: term.unavailability for name, term in zip(names, terms)
        }
        if goals.max_unavailability is not None:
            if unavailability > goals.max_unavailability:
                violations.append(
                    GoalViolation(
                        kind="unavailability",
                        server_type=None,
                        actual=unavailability,
                        threshold=goals.max_unavailability,
                    )
                )
        for (name, value), threshold in zip(per_type.items(), type_thresholds):
            if value > threshold:
                violations.append(
                    GoalViolation(
                        kind="type_unavailability",
                        server_type=name,
                        actual=value,
                        threshold=threshold,
                    )
                )

        performability_report: PerformabilityReport | None = None
        if waiting_thresholds is not None:
            obs.count("performability.evaluations")
            with obs.span(
                "performability.expected_waiting_times", method="marginal"
            ):
                performability_report = fold_report(
                    configuration, names, terms, self.degraded_policy
                )
            for (name, value), threshold in zip(
                performability_report.expected_waiting_times.items(),
                waiting_thresholds,
            ):
                if value > threshold:
                    violations.append(
                        GoalViolation(
                            kind="waiting_time",
                            server_type=name,
                            actual=value,
                            threshold=threshold,
                        )
                    )

        if violations:
            obs.count("configuration.goal_violations", len(violations))
        assessment = GoalAssessment(
            configuration=configuration,
            goals=goals,
            violations=tuple(violations),
            performability=performability_report,
            unavailability=unavailability,
            per_type_unavailability=per_type,
            utilizations={
                name: term.utilization for name, term in zip(names, terms)
            },
        )
        if self._assessments is not None:
            self._assessments.put(key, assessment)
        return assessment
