"""Candidate-proposal strategies of the configuration search engine.

Each of the paper's search algorithms (Section 7.2) is expressed as a
:class:`SearchStrategy`: a stateful proposer that hands the engine one
candidate configuration at a time (:meth:`SearchStrategy.propose`) and
receives its goal assessment before proposing the next
(:meth:`SearchStrategy.observe`).  The engine owns evaluation, trace
recording, and observability; the strategy owns the search logic — what
to propose next and when the search is finished.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass

from repro.core.goals import GoalAssessment, GoalEvaluator, PerformabilityGoals
from repro.core.performance import SystemConfiguration
from repro.core.search.candidates import (
    Counts,
    ReplicaLattice,
    configurations_by_cost,
    initial_configuration,
    per_type_lower_bounds,
)
from repro.core.search.types import ReplicationConstraints
from repro.exceptions import InfeasibleConfigurationError, ValidationError


@dataclass(frozen=True)
class Candidate:
    """One proposed configuration plus the step metadata for the trace."""

    configuration: SystemConfiguration
    added_server_type: str | None = None
    criterion: str | None = None


class SearchExhausted(Exception):
    """Internal signal: the strategy ran out of admissible candidates.

    The engine translates it into
    :class:`~repro.exceptions.InfeasibleConfigurationError`, attaching a
    ``best_found`` recommendation when the strategy supplies the best
    assessment it saw (the greedy heuristic does).
    """

    def __init__(
        self, message: str, best_assessment: GoalAssessment | None = None
    ) -> None:
        super().__init__(message)
        self.message = message
        self.best_assessment = best_assessment


class SearchStrategy:
    """Base class: propose candidates, observe assessments in order."""

    name: str = "abstract"
    #: Whether consumed steps appear in the recommendation's trace
    #: (the greedy heuristic's step-by-step justification; the other
    #: algorithms historically return an empty trace).
    record_trace: bool = False

    def propose(self) -> Candidate | None:
        """The next candidate to evaluate.

        ``None`` means no candidate is left; the engine then calls
        :meth:`exhausted`.
        """
        raise NotImplementedError

    def observe(
        self, candidate: Candidate, assessment: GoalAssessment
    ) -> GoalAssessment | None:
        """Consume the assessment of the candidate just proposed.

        A non-``None`` return ends the search with that assessment.
        """
        raise NotImplementedError

    def exhausted(self) -> GoalAssessment:
        """Outcome when :meth:`propose` has nothing left to offer.

        Either returns the final assessment (simulated annealing ends
        this way) or raises :class:`SearchExhausted`.
        """
        raise SearchExhausted(
            "no admissible configuration satisfies the goals"
        )


def _most_critical_for_availability(
    assessment: GoalAssessment,
    configuration: SystemConfiguration,
    constraints: ReplicationConstraints,
) -> str | None:
    """Type whose complete failure contributes most to unavailability.

    Types violating their own per-type availability goal take precedence
    (ordered by relative excess); among the rest, the largest absolute
    per-type unavailability wins.
    """
    candidates = []
    for name, unavailability in assessment.per_type_unavailability.items():
        if not constraints.can_add(configuration, name):
            continue
        threshold = assessment.goals.type_unavailability_threshold(name)
        excess = (
            unavailability / threshold if math.isfinite(threshold) else 0.0
        )
        candidates.append(((excess > 1.0, excess, unavailability), name))
    if not candidates:
        return None
    candidates.sort(reverse=True)
    return candidates[0][1]


def _most_critical_for_performance(
    assessment: GoalAssessment,
    configuration: SystemConfiguration,
    constraints: ReplicationConstraints,
    goals: PerformabilityGoals,
) -> str | None:
    """Type with the largest relative waiting-time excess.

    Infinite waiting times (down or saturated types) dominate; ties are
    broken by utilization, so the most loaded type is relieved first.
    """
    report = assessment.performability
    if report is None:
        return None
    best_key: tuple[float, float] | None = None
    best_name: str | None = None
    for name, value in report.expected_waiting_times.items():
        if not constraints.can_add(configuration, name):
            continue
        threshold = goals.waiting_time_threshold(name)
        if math.isinf(value):
            excess = math.inf
        elif math.isinf(threshold):
            excess = 0.0
        else:
            excess = value / threshold
        key = (excess, assessment.utilizations.get(name, 0.0))
        if best_key is None or key > best_key:
            best_key = key
            best_name = name
    return best_name


class GreedyStrategy(SearchStrategy):
    """The paper's greedy heuristic (Section 7.2).

    Starting from the minimal admissible configuration, each step
    evaluates the current candidate and adds one replica of the most
    critical server type for whichever goal is still violated — first
    the availability criterion, then (after re-evaluating) the
    performability criterion — until both goals hold.  Every proposal
    depends on the previous assessment.
    """

    name = "greedy"
    record_trace = True

    def __init__(
        self,
        evaluator: GoalEvaluator,
        goals: PerformabilityGoals,
        constraints: ReplicationConstraints,
        initial: SystemConfiguration | None = None,
    ) -> None:
        self._goals = goals
        self._constraints = constraints
        configuration = initial or initial_configuration(
            evaluator.server_types, constraints
        )
        if not constraints.admits(configuration):
            raise ValidationError(
                f"initial configuration {configuration} violates the "
                "constraints"
            )
        self._next: Candidate | None = Candidate(configuration)

    def propose(self) -> Candidate | None:
        """The pending configuration, if any."""
        return self._next

    def observe(
        self, candidate: Candidate, assessment: GoalAssessment
    ) -> GoalAssessment | None:
        """Accept a satisfying assessment or derive the next repair step."""
        self._next = None
        if assessment.satisfied:
            return assessment
        # Interleave the two criteria: fix availability first, then
        # re-evaluate before touching performance (Section 7.2).
        configuration = candidate.configuration
        if not assessment.availability_satisfied:
            criterion = "availability"
            added_type = _most_critical_for_availability(
                assessment, configuration, self._constraints
            )
        else:
            criterion = "performability"
            added_type = _most_critical_for_performance(
                assessment, configuration, self._constraints, self._goals
            )
        if added_type is None:
            raise SearchExhausted(
                f"constraints exhausted at {configuration} with goals "
                "still violated: "
                + "; ".join(str(v) for v in assessment.violations),
                best_assessment=assessment,
            )
        self._next = Candidate(
            configuration.with_added_replica(added_type),
            added_server_type=added_type,
            criterion=criterion,
        )
        return None


class ExhaustiveStrategy(SearchStrategy):
    """Exact minimum-cost search by enumeration in cost order.

    Exponential in the number of server types, but exact — the oracle
    against which the greedy heuristic's near-minimality is measured:
    the first satisfied candidate in enumeration order is the
    minimum-cost answer.
    """

    name = "exhaustive"

    def __init__(
        self,
        evaluator: GoalEvaluator,
        goals: PerformabilityGoals,
        constraints: ReplicationConstraints,
    ) -> None:
        self._candidates = configurations_by_cost(
            evaluator.server_types, constraints
        )
        self._best: tuple[int, GoalAssessment] | None = None

    def propose(self) -> Candidate | None:
        """The next configuration in increasing-cost order."""
        configuration = next(self._candidates, None)
        return Candidate(configuration) if configuration is not None else None

    def observe(
        self, candidate: Candidate, assessment: GoalAssessment
    ) -> GoalAssessment | None:
        """Accept the assessment iff it satisfies the goals."""
        if assessment.satisfied:
            return assessment
        # Track the closest miss (fewest violations; candidates arrive
        # in cost order, so the first such is also the cheapest) for
        # infeasible-space reporting.
        rank = len(assessment.violations)
        if self._best is None or rank < self._best[0]:
            self._best = (rank, assessment)
        return None

    def exhausted(self) -> GoalAssessment:
        """Report infeasibility with the closest-miss assessment."""
        raise SearchExhausted(
            "the admissible space is exhausted with the goals still "
            "violated",
            best_assessment=(
                self._best[1] if self._best is not None else None
            ),
        )


class BranchAndBoundStrategy(SearchStrategy):
    """Exact minimum-cost search with monotonicity-based pruning.

    The paper notes the search "may eventually entail full-fledged
    algorithms for mathematical optimization such as branch-and-bound".
    Both goal metrics improve monotonically when replicas are added, so:

    1. per-type *lower bounds* are derived analytically (availability and
       failure-free waiting time are necessary conditions), pruning the
       infeasible corner without any model evaluation;
    2. candidates are expanded best-first in cost order from the
       lower-bound corner, so the first feasible configuration found is
       a provably minimum-cost one.

    Exact like :class:`ExhaustiveStrategy`, typically at a small
    fraction of its model evaluations.
    """

    name = "branch_and_bound"

    def __init__(
        self,
        evaluator: GoalEvaluator,
        goals: PerformabilityGoals,
        constraints: ReplicationConstraints,
    ) -> None:
        names = evaluator.server_types.names
        lower = per_type_lower_bounds(evaluator, goals, constraints)
        if any(lower[name] > constraints.upper_bound(name) for name in names):
            raise InfeasibleConfigurationError(
                "analytic lower bounds already exceed the constraints; no "
                "admissible configuration can satisfy the goals"
            )
        self._lattice = lattice = ReplicaLattice(
            evaluator.server_types, constraints
        )
        start = tuple(lower[name] for name in names)
        if sum(start) > constraints.max_total_servers:
            raise InfeasibleConfigurationError(
                f"lower-bound configuration {lattice.text(start)} violates "
                "the total-server constraint"
            )
        self._counter = 0
        self._frontier: list[tuple[float, int, Counts]] = [
            (lattice.cost(start), self._counter, start)
        ]
        self._seen = {start}

    def propose(self) -> Candidate | None:
        """The cheapest node of the best-first frontier (oldest on ties)."""
        if not self._frontier:
            return None
        counts = heapq.heappop(self._frontier)[2]
        return Candidate(self._lattice.configuration(counts))

    def observe(
        self, candidate: Candidate, assessment: GoalAssessment
    ) -> GoalAssessment | None:
        """Accept a satisfying node, otherwise expand its children."""
        if assessment.satisfied:
            return assessment
        lattice = self._lattice
        counts = lattice.counts(candidate.configuration)
        if sum(counts) >= lattice.max_total_servers:
            return None
        for j, upper in enumerate(lattice.upper):
            if counts[j] >= upper:
                continue
            child = counts[:j] + (counts[j] + 1,) + counts[j + 1:]
            if child in self._seen:
                continue
            self._seen.add(child)
            self._counter += 1
            heapq.heappush(
                self._frontier, (lattice.cost(child), self._counter, child)
            )
        return None


class SimulatedAnnealingStrategy(SearchStrategy):
    """Simulated-annealing search over the configuration space.

    The objective is ``cost + violation_penalty * (#violated goals)``;
    neighbour moves add or remove one replica of a random type within the
    constraint bounds.  Deterministic for a fixed ``seed``: each move
    depends on the previous acceptance decision and the random stream.
    """

    name = "simulated_annealing"

    def __init__(
        self,
        evaluator: GoalEvaluator,
        goals: PerformabilityGoals,
        constraints: ReplicationConstraints,
        iterations: int = 400,
        initial_temperature: float = 4.0,
        cooling: float = 0.98,
        violation_penalty: float = 100.0,
        seed: int = 0,
    ) -> None:
        self._server_types = evaluator.server_types
        self._lattice = lattice = ReplicaLattice(
            evaluator.server_types, constraints
        )
        # ``choice`` over the type indices draws exactly as over the names.
        self._indices = list(range(len(lattice.names)))
        self._rng = random.Random(seed)
        self._remaining = iterations
        self._temperature = initial_temperature
        self._cooling = cooling
        self._violation_penalty = violation_penalty
        self._current = lattice.lower
        self._current_assessment: GoalAssessment | None = None
        self._best_assessment: GoalAssessment | None = None
        self._started = False

    def _objective(self, assessment: GoalAssessment) -> float:
        return (assessment.configuration.cost(self._server_types)
                + self._violation_penalty * len(assessment.violations))

    def propose(self) -> Candidate | None:
        """The start point first, then one random in-bounds neighbour."""
        lattice = self._lattice
        if not self._started:
            return Candidate(lattice.configuration(self._current))
        # Draw neighbour moves until one stays within the bounds; the
        # random stream consumption matches the historical loop exactly
        # (two draws per attempted move, cooling only after evaluations).
        current = self._current
        while self._remaining > 0:
            self._remaining -= 1
            j = self._rng.choice(self._indices)
            delta = self._rng.choice((-1, 1))
            count = current[j] + delta
            if not lattice.lower[j] <= count <= lattice.upper[j]:
                continue
            if sum(current) + delta > lattice.max_total_servers:
                continue
            neighbour = current[:j] + (count,) + current[j + 1:]
            return Candidate(lattice.configuration(neighbour))
        return None

    def observe(
        self, candidate: Candidate, assessment: GoalAssessment
    ) -> GoalAssessment | None:
        """Metropolis accept/reject; tracks the best feasible assessment."""
        if not self._started:
            self._started = True
            self._current_assessment = assessment
            self._best_assessment = assessment
            return None
        assert self._current_assessment is not None
        assert self._best_assessment is not None
        # Track the best feasible configuration on *evaluation*, not
        # on acceptance: a satisfied, cheaper neighbour whose
        # Metropolis move is rejected must still be remembered.
        if (assessment.satisfied
                and (not self._best_assessment.satisfied
                     or self._objective(assessment)
                     < self._objective(self._best_assessment))):
            self._best_assessment = assessment
        difference = (self._objective(assessment)
                      - self._objective(self._current_assessment))
        if difference <= 0.0 or self._rng.random() < math.exp(
            -difference / max(self._temperature, 1e-9)
        ):
            self._current = self._lattice.counts(candidate.configuration)
            self._current_assessment = assessment
        self._temperature *= self._cooling
        return None

    def exhausted(self) -> GoalAssessment:
        """Best satisfied assessment seen, else the final current one."""
        if (self._best_assessment is not None
                and self._best_assessment.satisfied):
            return self._best_assessment
        raise SearchExhausted(
            "simulated annealing found no configuration satisfying the "
            "goals; increase iterations or relax constraints"
        )
