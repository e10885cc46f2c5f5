"""Performability model (Section 6).

The performability model is a hierarchical Markov reward model: the
*availability* CTMC of Section 5 provides the steady-state probability of
every system state ``X`` (how many replicas of each type are currently
up), and the *performance* model of Section 4, evaluated for the degraded
configuration ``X``, provides the state's reward — the vector of mean
waiting times per server type.  The expectation

    W^Y = sum_i w^i * pi_i

is the paper's ultimate metric: the mean waiting time of service requests
under configuration ``Y``, including the temporary degradation caused by
failures and downtimes.

In system states where a server type has zero running replicas, or where
a replica is saturated (utilization >= 1), the M/G/1 waiting time is
undefined/infinite.  The paper does not fix the reward there;
:class:`DegradedStatePolicy` makes the choice explicit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.availability import (
    AvailabilityModel,
    RepairPolicy,
    ServerPoolAvailability,
)
from repro.core.model_types import ServerTypeSpec
from repro.core.performance import (
    PerformanceModel,
    SystemConfiguration,
    waiting_time_point,
)
from repro.exceptions import ValidationError


class DegradedStatePolicy(enum.Enum):
    """Reward assigned to system states with an unbounded waiting time.

    * ``CONDITIONAL`` — condition on the system being *operational and
      stable* (every type has a running replica and no replica is
      saturated) and renormalize; matches the paper's framing of
      performability as "performance degradation in degraded mode" while
      the system is up.  The operational probability is reported alongside.
    * ``PENALTY`` — replace infinite entries by a fixed penalty value and
      average over *all* states.  Goal checks are monotone in the
      replication degree only if the penalty is at least every finite
      waiting time the type can reach: a replica that turns a saturated
      state into a finite waiting time above the penalty raises the
      average (a penalty of 10 rises to ~24 on one generated spec).
    * ``INFINITE`` — propagate infinity: if any reachable state is
      infeasible, the affected server types report ``inf``; the strictest
      reading, appropriate when even transient saturation is unacceptable.
    """

    CONDITIONAL = "conditional"
    PENALTY = "penalty"
    INFINITE = "infinite"


@dataclass(frozen=True)
class PerformabilityReport:
    """Result of the Section 6 analysis for one configuration."""

    configuration: SystemConfiguration
    #: Expected waiting time per server type with failures accounted for.
    expected_waiting_times: dict[str, float]
    #: Waiting times of the full (failure-free) configuration, for
    #: comparison: the degradation factor is expected / failure_free.
    failure_free_waiting_times: dict[str, float]
    #: Steady-state probability that the system is operational and stable.
    feasible_probability: float
    #: Steady-state system unavailability (Section 5 metric).
    unavailability: float
    policy: DegradedStatePolicy

    @property
    def max_expected_waiting_time(self) -> float:
        """Worst per-type performability waiting time."""
        return max(self.expected_waiting_times.values())

    def degradation_factor(self, server_type: str) -> float:
        """How much failures inflate the waiting time of one type."""
        baseline = self.failure_free_waiting_times[server_type]
        value = self.expected_waiting_times[server_type]
        if baseline <= 0.0:
            return math.inf if value > 0.0 else 1.0
        return value / baseline

    def format_text(self) -> str:
        """Human-readable multi-line rendering of the report."""
        lines = [
            f"Performability assessment for configuration "
            f"{self.configuration} (policy: {self.policy.value})",
            f"  operational+stable probability: {self.feasible_probability:.9f}",
            f"  system unavailability:          {self.unavailability:.3e}",
            "  Server type          failure-free w   performability W   degradation",
        ]
        for name, value in self.expected_waiting_times.items():
            baseline = self.failure_free_waiting_times[name]
            factor = self.degradation_factor(name)
            value_text = f"{value:14.6f}" if math.isfinite(value) else "           inf"
            factor_text = f"x{factor:.4f}" if math.isfinite(factor) else "inf"
            lines.append(
                f"    {name:18s} {baseline:14.6f} {value_text}   {factor_text}"
            )
        return "\n".join(lines)


def check_penalty(
    policy: DegradedStatePolicy, penalty_waiting_time: float | None
) -> None:
    """Reject a ``PENALTY`` policy without a positive penalty value."""
    if policy is DegradedStatePolicy.PENALTY:
        if penalty_waiting_time is None or penalty_waiting_time <= 0.0:
            raise ValidationError(
                "PENALTY policy requires a positive penalty_waiting_time"
            )


@dataclass(frozen=True)
class TypeTerm:
    """One server type's share of a configuration's assessment.

    Under the Section 5 product form and the Section 6 marginal
    separation, every number the Section 7.1 goal check reads about
    type ``x`` depends on its replica count ``Y_x`` alone; a
    configuration's numbers are a fold over its ``k`` terms (products
    in type order, see :func:`fold_report`).
    """

    #: Probability that all ``Y_x`` replicas are down.
    unavailability: float
    #: ``1 - unavailability``, the factor of the system availability.
    availability: float
    #: Performability waiting time ``W_x`` under the degraded policy.
    expected_waiting_time: float
    #: Marginal mass of the states where ``w_x`` is finite, the factor
    #: of the operational-and-stable probability.
    finite_mass: float
    #: Waiting time ``w_x(Y_x)`` with every replica up.
    failure_free_waiting_time: float
    #: Per-replica utilization ``rho_x`` with every replica up.
    utilization: float


class TypeRow:
    """One server type's terms by replica count, built on first use.

    A term of type ``x`` depends on nothing but the row's inputs — the
    type's spec, its total request rate ``l_x``, and the repair policy,
    degraded policy and penalty — plus the replica count; :attr:`key`
    is exactly those inputs.  The row grows the waiting-time curve
    ``w_x(n)`` as a prefix (a term of ``Y_x`` replicas reads
    ``n = 0..Y_x``) and keeps each :class:`TypeTerm` it builds.  This
    is the only implementation of the per-type expectation, so the
    search (on rows shared through an
    :class:`~repro.core.evaluation_cache.EvaluationCache`) and
    :class:`PerformabilityModel` (on fresh rows) agree bitwise.
    """

    def __init__(
        self,
        spec: ServerTypeSpec,
        total: float,
        repair_policy: RepairPolicy,
        degraded_policy: DegradedStatePolicy,
        penalty_waiting_time: float | None,
    ) -> None:
        self.key = (
            spec, total, repair_policy, degraded_policy, penalty_waiting_time
        )
        self._curve: list[float] = []
        #: Terms built so far, by replica count.
        self.terms: dict[int, TypeTerm] = {}

    def waits(self, count: int) -> np.ndarray:
        """The curve ``w_x(n)`` for ``n = 0..count``, as a fresh array."""
        spec, total = self.key[:2]
        for n in range(len(self._curve), count + 1):
            self._curve.append(float(waiting_time_point(spec, total, n)))
        return np.array(self._curve[: count + 1], dtype=float)

    def term(self, count: int) -> TypeTerm:
        """The term of ``count`` replicas (built and kept on first use)."""
        term = self.terms.get(count)
        if term is None:
            term = self.terms[count] = self._build(count)
        return term

    def _build(self, count: int) -> TypeTerm:
        spec, total, repair_policy, policy, penalty_waiting_time = self.key
        pool = ServerPoolAvailability(
            spec=spec, count=count, policy=repair_policy
        )
        waits = self.waits(count)
        marginal = np.asarray(pool.state_probabilities, dtype=float)
        finite = np.isfinite(waits)
        finite_mass = float(marginal[finite].sum())
        infinite_mass = 1.0 - finite_mass
        weighted = float(marginal[finite] @ waits[finite])
        if policy is DegradedStatePolicy.CONDITIONAL:
            expected = (
                math.inf if finite_mass <= 0.0 else weighted / finite_mass
            )
        elif policy is DegradedStatePolicy.PENALTY:
            assert penalty_waiting_time is not None
            expected = weighted + infinite_mass * penalty_waiting_time
        elif bool(np.any(marginal[~finite] > 0.0)):  # INFINITE
            expected = math.inf
        else:
            expected = weighted
        return TypeTerm(
            unavailability=pool.unavailability,
            availability=pool.availability,
            expected_waiting_time=float(expected),
            finite_mass=finite_mass,
            failure_free_waiting_time=float(waits[count]),
            utilization=float(total / count * spec.mean_service_time),
        )


def system_unavailability(terms: Sequence[TypeTerm]) -> float:
    """Section 5 product form: one minus the product of availabilities."""
    availability = 1.0
    for term in terms:
        availability *= term.availability
    return 1.0 - availability


def fold_report(
    configuration: SystemConfiguration,
    names: Sequence[str],
    terms: Sequence[TypeTerm],
    policy: DegradedStatePolicy,
) -> PerformabilityReport:
    """The Section 6 report of a configuration from its type terms."""
    feasible_probability = 1.0
    for term in terms:
        feasible_probability *= term.finite_mass
    return PerformabilityReport(
        configuration=configuration,
        expected_waiting_times={
            name: term.expected_waiting_time
            for name, term in zip(names, terms)
        },
        failure_free_waiting_times={
            name: term.failure_free_waiting_time
            for name, term in zip(names, terms)
        },
        feasible_probability=feasible_probability,
        unavailability=system_unavailability(terms),
        policy=policy,
    )


class PerformabilityModel:
    """Combines the performance and availability models (Section 6)."""

    def __init__(
        self,
        performance: PerformanceModel,
        availability: AvailabilityModel,
        policy: DegradedStatePolicy = DegradedStatePolicy.CONDITIONAL,
        penalty_waiting_time: float | None = None,
    ) -> None:
        if performance.server_types != availability.server_types:
            raise ValidationError(
                "performance and availability models must share the same "
                "server type index"
            )
        check_penalty(policy, penalty_waiting_time)
        self.performance = performance
        self.availability = availability
        self.policy = policy
        self.penalty_waiting_time = penalty_waiting_time
        self._state_cache: dict[tuple[int, ...], np.ndarray] = {}

    # ------------------------------------------------------------------
    # State-specific rewards
    # ------------------------------------------------------------------
    def state_waiting_times(self, state: tuple[int, ...]) -> np.ndarray:
        """Waiting-time vector ``w^i`` for one system state ``X``.

        Evaluates the Section 4 model with the *available* replica counts;
        entries are ``inf`` for types that are down (with load) or
        saturated in this state.
        """
        cached = self._state_cache.get(state)
        if cached is not None:
            return cached
        names = self.performance.server_types.names
        if len(state) != len(names):
            raise ValidationError(
                f"state must have {len(names)} entries, got {len(state)}"
            )
        configuration = SystemConfiguration(dict(zip(names, state)))
        waits = self.performance.waiting_times(configuration)
        self._state_cache[state] = waits
        return waits

    def is_state_feasible(self, state: tuple[int, ...]) -> bool:
        """Operational and stable: all waiting times are finite."""
        return bool(np.all(np.isfinite(self.state_waiting_times(state))))

    # ------------------------------------------------------------------
    # The Section 6 expectation
    # ------------------------------------------------------------------
    def expected_waiting_times(
        self, method: str = "marginal"
    ) -> PerformabilityReport:
        """Compute ``W^Y`` under the configured degraded-state policy.

        ``joint`` evaluates the paper's formulation literally: iterate
        over the full system-state CTMC's steady-state distribution.
        ``marginal`` (default) exploits that the per-type availability
        processes are mutually independent and that the waiting time of
        type ``x`` depends on the system state only through ``X_x``; the
        expectation then separates into per-type birth-death marginals,
        turning an O(prod(Y_x + 1)) evaluation into O(sum(Y_x)).  It is
        the :class:`TypeRow` term fold that
        :meth:`~repro.core.goals.GoalEvaluator.assess` runs on shared
        rows, so both produce the same report bitwise.  Both methods
        return identical values (cross-checked in the tests); the fast
        path is what makes configuration search over many server types
        practical.
        """
        obs.count("performability.evaluations")
        with obs.span(
            "performability.expected_waiting_times", method=method
        ):
            if method == "marginal":
                return self._expected_waiting_times_marginal()
            if method == "joint":
                return self._expected_waiting_times_joint()
        raise ValidationError(f"unknown performability method {method!r}")

    def _expected_waiting_times_marginal(self) -> PerformabilityReport:
        """The per-type term fold, on fresh :class:`TypeRow` objects."""
        configuration = self.availability.configuration
        names = self.performance.server_types.names
        terms = [
            TypeRow(
                spec,
                float(total),
                self.availability.policy,
                self.policy,
                self.penalty_waiting_time,
            ).term(configuration.count(spec.name))
            for spec, total in zip(
                self.performance.server_types.specs,
                self.performance.total_request_rates(),
            )
        ]
        return fold_report(configuration, names, terms, self.policy)

    def _expected_waiting_times_joint(self) -> PerformabilityReport:
        probabilities = self.availability.state_probabilities()
        num_types = len(self.performance.server_types)
        names = self.performance.server_types.names

        feasible_mass = 0.0
        weighted = np.zeros(num_types)
        infinite_mass_per_type = np.zeros(num_types)
        for state, probability in probabilities.items():
            if probability <= 0.0:
                continue
            waits = self.state_waiting_times(state)
            if self.is_state_feasible(state):
                feasible_mass += probability
                weighted += probability * waits
            else:
                finite = np.where(np.isfinite(waits), waits, 0.0)
                weighted += probability * finite
                infinite_mass_per_type += probability * (~np.isfinite(waits))

        expected = self._apply_policy(
            weighted, feasible_mass, infinite_mass_per_type
        )
        full_configuration = self.availability.configuration
        failure_free = self.performance.waiting_times(full_configuration)
        return PerformabilityReport(
            configuration=full_configuration,
            expected_waiting_times={
                name: float(expected[i]) for i, name in enumerate(names)
            },
            failure_free_waiting_times={
                name: float(failure_free[i]) for i, name in enumerate(names)
            },
            feasible_probability=feasible_mass,
            unavailability=self.availability.unavailability(),
            policy=self.policy,
        )

    def _apply_policy(
        self,
        weighted: np.ndarray,
        feasible_mass: float,
        infinite_mass_per_type: np.ndarray,
    ) -> np.ndarray:
        if self.policy is DegradedStatePolicy.CONDITIONAL:
            if feasible_mass <= 0.0:
                return np.full_like(weighted, math.inf)
            # Keep only the operational-and-stable mass.  `weighted`
            # already contains the finite contributions of infeasible
            # states; recompute cleanly from the cache for correctness.
            conditional = np.zeros_like(weighted)
            probabilities = self.availability.state_probabilities()
            for state, probability in probabilities.items():
                if probability <= 0.0 or not self.is_state_feasible(state):
                    continue
                conditional += probability * self.state_waiting_times(state)
            return conditional / feasible_mass
        if self.policy is DegradedStatePolicy.PENALTY:
            assert self.penalty_waiting_time is not None
            return weighted + infinite_mass_per_type * self.penalty_waiting_time
        # INFINITE: any mass on an infinite entry makes the entry infinite.
        result = weighted.copy()
        result[infinite_mass_per_type > 0.0] = math.inf
        return result
