"""Pareto-frontier multi-objective configuration search.

The paper's Section 7 tool recommends one near-minimum-cost
configuration for fixed goals.  Real operators trade cost against
waiting time, unavailability, and performability instead, so this
module generalizes the search to a maintained **non-dominated set**
over the four canonical axes::

    (cost, max_waiting_time, unavailability, performability_waiting_time)

all minimized, with a configurable subset acting as objective axes and
the user's :class:`~repro.core.goals.PerformabilityGoals` acting as
hard bounds (only goal-satisfying configurations enter the frontier —
the "bounded metric" mode of the shotgun/hillclimb scheme).

Three pieces:

* :class:`ParetoFrontier` — the non-dominated set: insertion rejects
  dominated newcomers and evicts members the newcomer dominates, with
  deterministic first-wins tie-breaking on objective-equal points;
* :class:`FrontierStrategy` — a
  :class:`~repro.core.search.strategies.SearchStrategy` that seeds the
  frontier from the cost-ordered candidate enumeration (up to and
  including the first goal-satisfying candidate, so the frontier always
  contains the single-objective minimum-cost recommendation), shotguns
  seeded-random samples across the constraint box, then hillclimbs the
  frontier's neighbourhood closure with seeded random restarts;
* :func:`frontier_search` — the public entry point: drives the strategy
  through the existing :class:`~repro.core.search.SearchEngine`, so all
  evaluations hit the shared
  :class:`~repro.core.evaluation_cache.EvaluationCache`.

Determinism: every proposal round is fixed before any of its
assessments are consumed and then handed out one candidate at a time,
and the only randomness flows from one seeded ``random.Random``
consumed at round boundaries — so the frontier (and its JSON document)
is byte-identical across repeated runs.  Rounds are built, deduplicated
and ordered on replica-count tuples
(:class:`~repro.core.search.candidates.ReplicaLattice`); a configuration
is built only when a candidate is proposed.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro import obs
from repro.core.goals import GoalAssessment, GoalEvaluator, PerformabilityGoals
from repro.core.model_types import ServerTypeIndex
from repro.core.performance import SystemConfiguration
from repro.core.search.candidates import Counts, ReplicaLattice
from repro.core.search.engine import SearchEngine
from repro.core.search.strategies import (
    Candidate,
    SearchExhausted,
    SearchStrategy,
)
from repro.core.search.types import (
    ConfigurationRecommendation,
    ReplicationConstraints,
)
from repro.exceptions import ValidationError

#: The four frontier axes, in canonical order.  ``cost`` is the
#: Section 7.1 weighted configuration cost; ``max_waiting_time`` the
#: worst per-type failure-free M/G/1 waiting time (Section 4.4);
#: ``unavailability`` the steady-state system unavailability
#: (Section 5); ``performability_waiting_time`` the worst per-type
#: expected waiting time with failures accounted for (Section 6).
OBJECTIVES = (
    "cost",
    "max_waiting_time",
    "unavailability",
    "performability_waiting_time",
)

#: Candidates per round of the cost-ordered prefix phase.
PREFIX_ROUND = 16

#: Rounds after which a sweep stops proposing, whatever its phase.
MAX_ROUNDS = 1000


def _configuration_key(
    configuration: SystemConfiguration,
) -> tuple[tuple[str, int], ...]:
    return tuple(sorted(configuration.replicas.items()))


def _finite(value: float | None) -> float | None:
    if value is None or not math.isfinite(value):
        return None
    return float(value)


@dataclass(frozen=True)
class FrontierPoint:
    """One non-dominated configuration with its four metric values."""

    configuration: SystemConfiguration
    cost: float
    metrics: dict[str, float]
    assessment: GoalAssessment

    @property
    def key(self) -> tuple[tuple[str, int], ...]:
        """Canonical identity of the underlying configuration."""
        return _configuration_key(self.configuration)

    @classmethod
    def from_assessment(
        cls, assessment: GoalAssessment, server_types: ServerTypeIndex
    ) -> "FrontierPoint":
        """Extract the four frontier metrics from one assessment.

        Requires a full assessment (performability report present);
        evaluate through goals from
        :meth:`~repro.core.goals.PerformabilityGoals.requiring_all_metrics`
        to guarantee that even when the waiting axis is unbounded.
        """
        report = assessment.performability
        if report is None:
            raise ValidationError(
                "frontier points need a full assessment; evaluate with "
                "goals.requiring_all_metrics()"
            )
        configuration = assessment.configuration
        cost = configuration.cost(server_types)
        return cls(
            configuration=configuration,
            cost=cost,
            metrics={
                "cost": cost,
                "max_waiting_time": max(
                    report.failure_free_waiting_times.values()
                ),
                "unavailability": float(assessment.unavailability),
                "performability_waiting_time": (
                    report.max_expected_waiting_time
                ),
            },
            assessment=assessment,
        )

    def to_document(self) -> dict[str, Any]:
        """Plain-JSON form (``inf`` rendered as ``null``)."""
        return {
            "configuration": dict(sorted(self.configuration.replicas.items())),
            "cost": self.cost,
            "total_servers": self.configuration.total_servers,
            "max_waiting_time": _finite(self.metrics["max_waiting_time"]),
            "unavailability": self.metrics["unavailability"],
            "performability_waiting_time": _finite(
                self.metrics["performability_waiting_time"]
            ),
            "saturated_types": list(self.assessment.saturated_types),
            "satisfied": self.assessment.satisfied,
        }


class ParetoFrontier:
    """A maintained non-dominated set over configurable objective axes.

    All axes are minimized.  A point *dominates* another when it is no
    worse on every objective axis and strictly better on at least one;
    points equal on every objective axis are treated as mutually
    dominated and the incumbent wins (first-wins tie-breaking keeps
    insertion deterministic).  Membership is maintained incrementally:
    inserting a dominated point is a rejection, inserting a dominating
    point evicts every member it dominates.
    """

    def __init__(self, objectives: Sequence[str] = OBJECTIVES) -> None:
        chosen = tuple(objectives)
        if not chosen:
            raise ValidationError("at least one objective axis is required")
        unknown = [axis for axis in chosen if axis not in OBJECTIVES]
        if unknown:
            raise ValidationError(
                f"unknown objective axes {unknown}; choose from "
                f"{list(OBJECTIVES)}"
            )
        if len(set(chosen)) != len(chosen):
            raise ValidationError("objective axes must be distinct")
        self.objectives = chosen
        self._points: list[FrontierPoint] = []
        self.inserted = 0
        self.rejected = 0
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[FrontierPoint]:
        return iter(self.points)

    def _values(self, point: FrontierPoint) -> tuple[float, ...]:
        return tuple(point.metrics[axis] for axis in self.objectives)

    def dominates(self, first: FrontierPoint, second: FrontierPoint) -> bool:
        """Whether ``first`` dominates ``second`` on the objective axes."""
        a, b = self._values(first), self._values(second)
        return all(x <= y for x, y in zip(a, b)) and any(
            x < y for x, y in zip(a, b)
        )

    def insert(self, point: FrontierPoint) -> bool:
        """Insert one point; returns whether it joined the frontier.

        Rejected when any member dominates it or equals it on every
        objective axis; otherwise members it dominates are evicted.
        """
        values = self._values(point)
        for member in self._points:
            member_values = self._values(member)
            if all(
                x <= y for x, y in zip(member_values, values)
            ):
                # Dominated by (or objective-equal to) an incumbent.
                self.rejected += 1
                return False
        survivors = [
            member
            for member in self._points
            if not self.dominates(point, member)
        ]
        self.evicted += len(self._points) - len(survivors)
        survivors.append(point)
        self._points = survivors
        self.inserted += 1
        return True

    @property
    def points(self) -> tuple[FrontierPoint, ...]:
        """Members in deterministic cost order (ties by configuration)."""
        return tuple(
            sorted(self._points, key=lambda p: (p.cost, p.key))
        )


class FrontierStrategy(SearchStrategy):
    """Shotgun + hillclimb proposal strategy maintaining the frontier.

    Three phases, each organized in *rounds* whose content is fixed
    before any of the round's assessments is consumed; a round's
    candidates are then proposed one at a time, in round order:

    1. **prefix** — rounds of the lazy cost-ordered candidate
       enumeration (the heap behind the exhaustive search) until the
       round containing the first goal-satisfying candidate completes.
       This pins the single-objective minimum-cost recommendation into
       the frontier and anchors the cheap end of the trade-off curve.
    2. **shotgun** — one round of seeded-random samples across the
       constraint box (budget-aware, so every sample is admissible),
       scattering probes over the expensive regions the prefix never
       reaches.
    3. **climb** — repeated rounds of every not-yet-evaluated ±1-replica
       neighbour of the current frontier (and of past restart points);
       when the neighbourhood closure is exhausted, a seeded random
       restart opens a new basin, up to ``restarts`` times.

    Emits the ``search.frontier.*`` counters (evaluated, dominated,
    inserted, restarts).
    """

    name = "frontier"
    record_trace = False

    def __init__(
        self,
        evaluator: GoalEvaluator,
        goals: PerformabilityGoals,
        constraints: ReplicationConstraints,
        objectives: Sequence[str] = OBJECTIVES,
        shotgun: int = 24,
        restarts: int = 4,
        seed: int = 0,
        prefix: int | None = None,
    ) -> None:
        if shotgun < 0:
            raise ValidationError("shotgun must be >= 0")
        if restarts < 0:
            raise ValidationError("restarts must be >= 0")
        if prefix is not None and prefix < 1:
            raise ValidationError("prefix must be >= 1 when given")
        self.frontier = ParetoFrontier(objectives)
        self._server_types = evaluator.server_types
        self._lattice = ReplicaLattice(evaluator.server_types, constraints)
        self._shotgun = shotgun
        self._restarts = restarts
        self._prefix = prefix
        self._rng = random.Random(seed)
        self._enumeration = self._lattice.by_cost()
        self._phase = "prefix"
        #: The current round: count tuples with their trace criterion.
        self._pending: deque[tuple[Counts, str]] = deque()
        self._seen: set[Counts] = set()
        self._rounds = 0
        self._prefix_emitted = 0
        self._satisfied_seen = False
        self.restarts_used = 0
        self._restart_points: list[Counts] = []
        self._best_infeasible: (
            tuple[int, float, Counts, GoalAssessment] | None
        ) = None

    # -- round construction -------------------------------------------
    def _mark_seen(self, counts: Counts) -> bool:
        if counts in self._seen:
            return False
        self._seen.add(counts)
        return True

    def _ordered(self, round_counts: list[Counts]) -> list[tuple[Counts, str]]:
        round_counts.sort(key=self._lattice.order_key)
        return [(counts, "frontier") for counts in round_counts]

    def _prefix_round_candidates(self) -> list[tuple[Counts, str]]:
        batch: list[tuple[Counts, str]] = []
        for counts in self._enumeration:
            if self._mark_seen(counts):
                batch.append((counts, "prefix"))
                self._prefix_emitted += 1
            if len(batch) >= PREFIX_ROUND:
                break
            if (self._prefix is not None
                    and self._prefix_emitted >= self._prefix):
                break
        return batch

    def _sample(self) -> Counts | None:
        """One unseen admissible count tuple from the seeded RNG.

        Samples type by type against the remaining total-server budget,
        so every draw is admissible by construction; gives up (returns
        ``None``) after a bounded number of duplicate draws.
        """
        lattice = self._lattice
        budget_base = lattice.max_total_servers - sum(lattice.lower)
        if budget_base < 0:
            return None
        bounds = list(zip(lattice.lower, lattice.upper))
        for _ in range(32):
            budget = budget_base
            drawn: list[int] = []
            for low, high in bounds:
                cap = min(high, low + budget)
                count = self._rng.randint(low, cap) if cap > low else low
                budget -= count - low
                drawn.append(count)
            counts = tuple(drawn)
            if self._mark_seen(counts):
                return counts
        return None

    def _shotgun_round_candidates(self) -> list[tuple[Counts, str]]:
        samples: list[Counts] = []
        for _ in range(self._shotgun):
            counts = self._sample()
            if counts is None:
                break
            samples.append(counts)
        return self._ordered(samples)

    def _neighbours(self, counts: Counts) -> list[Counts]:
        """The admissible ±1-replica neighbours, type by type."""
        lattice = self._lattice
        can_add = sum(counts) < lattice.max_total_servers
        out: list[Counts] = []
        for j, count in enumerate(counts):
            if can_add and count < lattice.upper[j]:
                out.append(counts[:j] + (count + 1,) + counts[j + 1:])
            if count - 1 >= lattice.lower[j]:
                out.append(counts[:j] + (count - 1,) + counts[j + 1:])
        return out

    def _climb_round_candidates(self) -> list[tuple[Counts, str]]:
        anchors = [
            self._lattice.counts(point.configuration)
            for point in self.frontier.points
        ]
        anchors.extend(self._restart_points)
        fresh: list[Counts] = []
        for anchor in anchors:
            for neighbour in self._neighbours(anchor):
                if self._mark_seen(neighbour):
                    fresh.append(neighbour)
        return self._ordered(fresh)

    def _advance(self) -> None:
        """Fill ``_pending`` with the next round, advancing phases."""
        while not self._pending:
            self._rounds += 1
            if self._rounds > MAX_ROUNDS:
                return
            if self._phase == "prefix":
                done = (
                    self._satisfied_seen
                    if self._prefix is None
                    else self._prefix_emitted >= self._prefix
                )
                if not done:
                    self._pending.extend(self._prefix_round_candidates())
                    if self._pending:
                        return
                self._phase = "shotgun"
            elif self._phase == "shotgun":
                self._pending.extend(self._shotgun_round_candidates())
                self._phase = "climb"
                if self._pending:
                    return
            elif self._phase == "climb":
                self._pending.extend(self._climb_round_candidates())
                if self._pending:
                    return
                if self.restarts_used < self._restarts:
                    restart = self._sample()
                    if restart is not None:
                        self.restarts_used += 1
                        obs.count("search.frontier.restarts")
                        self._restart_points.append(restart)
                        self._pending.append((restart, "restart"))
                        return
                return
            else:  # pragma: no cover - defensive
                return

    # -- SearchStrategy interface -------------------------------------
    def propose(self) -> Candidate | None:
        """The next candidate of the current round, in round order."""
        if not self._pending:
            self._advance()
            if not self._pending:
                return None
        counts, criterion = self._pending.popleft()
        return Candidate(
            self._lattice.configuration(counts), criterion=criterion
        )

    def observe(
        self, candidate: Candidate, assessment: GoalAssessment
    ) -> GoalAssessment | None:
        """Fold one assessment into the frontier; never terminal."""
        obs.count("search.frontier.evaluated")
        if assessment.satisfied:
            self._satisfied_seen = True
            before = len(self.frontier)
            point = FrontierPoint.from_assessment(
                assessment, self._server_types
            )
            if self.frontier.insert(point):
                obs.count("search.frontier.inserted")
                evicted = before + 1 - len(self.frontier)
                if evicted:
                    obs.count("search.frontier.dominated", evicted)
            else:
                obs.count("search.frontier.dominated")
        else:
            # Rank by (violations, cost, configuration); cost and key are
            # only needed when the violation count can tie or win.
            violations = len(assessment.violations)
            best = self._best_infeasible
            if best is None or violations <= best[0]:
                lattice = self._lattice
                counts = lattice.counts(candidate.configuration)
                rank = (
                    violations, lattice.cost(counts), lattice.name_key(counts)
                )
                if best is None or rank < best[:3]:
                    self._best_infeasible = (*rank, assessment)
        return None

    def exhausted(self) -> GoalAssessment:
        """Terminal assessment: the cheapest frontier member.

        The prefix phase consumed the cost-ordered enumeration from the
        cheapest admissible configuration up to the first satisfying
        one, so this is exactly the single-objective minimum-cost
        recommendation.  With an empty frontier the search is
        infeasible; the best (fewest-violations, then cheapest)
        assessment seen is attached for reporting.
        """
        points = self.frontier.points
        if points:
            return points[0].assessment
        raise SearchExhausted(
            "no admissible configuration satisfies the goal bounds; "
            "the frontier is empty",
            best_assessment=(
                self._best_infeasible[3]
                if self._best_infeasible is not None else None
            ),
        )


@dataclass(frozen=True)
class FrontierResult:
    """Outcome of a frontier search: the trade-off set plus the anchor.

    ``recommendation`` is the cheapest frontier member — identical to
    what the single-objective exhaustive search recommends for the same
    goals — so existing single-answer consumers keep working while
    ``points`` carries the full ranked trade-off curve.
    """

    points: tuple[FrontierPoint, ...]
    objectives: tuple[str, ...]
    recommendation: ConfigurationRecommendation
    seed: int
    restarts_used: int

    @property
    def evaluations(self) -> int:
        """Model evaluations consumed by the whole sweep."""
        return self.recommendation.evaluations

    def to_document(self) -> dict[str, Any]:
        """Machine-readable form (plain JSON types, deterministic)."""
        return {
            "schema": "repro.search.frontier/v1",
            "algorithm": "frontier",
            "objectives": list(self.objectives),
            "seed": self.seed,
            "evaluations": self.evaluations,
            "restarts": self.restarts_used,
            "points": [
                {"rank": rank, **point.to_document()}
                for rank, point in enumerate(self.points, start=1)
            ],
            "recommended": self.recommendation.to_document(),
        }

    def format_text(self) -> str:
        """Ranked trade-off table, cheapest configuration first."""

        def cell(value: float) -> str:
            return f"{value:12.6f}" if math.isfinite(value) else "         inf"

        lines = [
            f"Pareto frontier over {', '.join(self.objectives)} "
            f"({len(self.points)} points, {self.evaluations} evaluations, "
            f"{self.restarts_used} restarts, seed {self.seed}):",
            "  rank      cost  servers  max waiting   unavailability  "
            "perf waiting  configuration",
        ]
        for rank, point in enumerate(self.points, start=1):
            metrics = point.metrics
            lines.append(
                f"  {rank:4d}  {point.cost:8g}  {point.configuration.total_servers:7d}"
                f"  {cell(metrics['max_waiting_time'])} "
                f"{metrics['unavailability']:16.3e} "
                f"{cell(metrics['performability_waiting_time'])}"
                f"  {point.configuration}"
            )
        lines.append(
            "Recommended (cheapest satisfying): "
            f"{self.recommendation.configuration} at cost "
            f"{self.recommendation.cost:g}"
        )
        return "\n".join(lines)


def frontier_search(
    evaluator: GoalEvaluator,
    goals: PerformabilityGoals,
    constraints: ReplicationConstraints | None = None,
    objectives: Sequence[str] = OBJECTIVES,
    shotgun: int = 24,
    restarts: int = 4,
    seed: int = 0,
    prefix: int | None = None,
    stop_check: Callable[[], bool] | None = None,
) -> FrontierResult:
    """Multi-objective configuration search over the goal bounds.

    Runs :class:`FrontierStrategy` through the shared
    :class:`~repro.core.search.SearchEngine`.  ``goals`` act as hard
    bounds (axes without a bound are free objectives; assessments still
    expose all four metrics via
    :meth:`~repro.core.goals.PerformabilityGoals.requiring_all_metrics`).
    ``prefix`` overrides the cost-ordered seeding length (by default
    the enumeration runs until the first goal-satisfying candidate);
    setting it at least as large as the admissible space turns the
    sweep into an exact frontier computation.  Raises
    :class:`~repro.exceptions.InfeasibleConfigurationError` when no
    admissible configuration satisfies the bounds.
    """
    constraints = constraints or ReplicationConstraints(max_total_servers=16)
    assess_goals = goals.requiring_all_metrics()
    strategy = FrontierStrategy(
        evaluator,
        assess_goals,
        constraints,
        objectives=objectives,
        shotgun=shotgun,
        restarts=restarts,
        seed=seed,
        prefix=prefix,
    )
    recommendation = SearchEngine(
        evaluator, assess_goals, stop_check=stop_check
    ).run(strategy)
    return FrontierResult(
        points=strategy.frontier.points,
        objectives=strategy.frontier.objectives,
        recommendation=recommendation,
        seed=seed,
        restarts_used=strategy.restarts_used,
    )
