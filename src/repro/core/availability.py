"""Availability model of the replicated WFMS (Section 5).

The system state of a WFMS with ``k`` server types and configuration
``Y = (Y_1, ..., Y_k)`` is the vector ``X = (X_1, ..., X_k)`` of currently
available replicas per type.  The states form an ergodic CTMC: a running
replica of type ``x`` fails with rate ``lambda_x`` (so a state with ``X_x``
running replicas fails with total rate ``X_x * lambda_x``), and failed
replicas are repaired with rate ``mu_x`` each (independent repairs — the
convention that reproduces the paper's 71 h / 10 s / <1 min example; a
single-repair-crew variant is available as an option).

The steady-state analysis yields the probability of every system state;
the system is *unavailable* in the states where at least one server type
has zero running replicas.  Because the per-type processes are mutually
independent, the same answers can be obtained from per-type birth-death
chains and multiplied — this module implements both the paper-faithful
joint CTMC (with the paper's integer state encoding) and the fast
product-form route, and the test suite checks they agree.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Literal

import numpy as np

from repro import obs
from repro.core.ctmc import ErgodicCTMC
from repro.core.linalg import SolveMethod
from repro.core.model_types import ServerTypeIndex, ServerTypeSpec
from repro.core.performance import SystemConfiguration
from repro.exceptions import ValidationError

#: Hours per year used to express downtime (365 days).
HOURS_PER_YEAR = 365.0 * 24.0

#: Minutes per year.
MINUTES_PER_YEAR = HOURS_PER_YEAR * 60.0

#: Seconds per year.
SECONDS_PER_YEAR = MINUTES_PER_YEAR * 60.0


class RepairPolicy(enum.Enum):
    """How failed replicas of one server type are repaired.

    ``INDEPENDENT`` repairs every failed replica concurrently (rate
    ``(Y_x - X_x) * mu_x``); ``SINGLE_CREW`` repairs one at a time (rate
    ``mu_x`` whenever at least one replica is down).
    """

    INDEPENDENT = "independent"
    SINGLE_CREW = "single_crew"


@dataclass(frozen=True)
class ServerPoolAvailability:
    """Birth-death availability chain of one replicated server type.

    States ``0 .. count`` give the number of running replicas.  The
    steady-state distribution has the standard birth-death product form,
    evaluated in closed form.
    """

    spec: ServerTypeSpec
    count: int
    policy: RepairPolicy = RepairPolicy.INDEPENDENT

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValidationError(
                f"{self.spec.name}: a pool needs at least one replica"
            )

    @cached_property
    def state_probabilities(self) -> np.ndarray:
        """Steady-state probabilities over 0..count running replicas."""
        if self.spec.failure_rate == 0.0 or math.isinf(self.spec.repair_rate):
            probabilities = np.zeros(self.count + 1)
            probabilities[self.count] = 1.0
            return probabilities
        # Birth-death balance: pi_{j} * death(j) = pi_{j-1} * birth(j-1)
        # where "birth" is a repair (j-1 -> j) and "death" a failure
        # (j -> j-1).  Build unnormalized weights from state `count` down.
        weights = np.zeros(self.count + 1)
        weights[self.count] = 1.0
        for j in range(self.count - 1, -1, -1):
            failure_rate = (j + 1) * self.spec.failure_rate
            repair_rate = self._repair_rate(available=j)
            weights[j] = weights[j + 1] * failure_rate / repair_rate
        return weights / weights.sum()

    def _repair_rate(self, available: int) -> float:
        """Total repair rate in the state with ``available`` replicas up."""
        failed = self.count - available
        if failed <= 0:
            return 0.0
        if self.policy is RepairPolicy.INDEPENDENT:
            return failed * self.spec.repair_rate
        return self.spec.repair_rate

    @property
    def unavailability(self) -> float:
        """Probability that all replicas of this type are down."""
        return float(self.state_probabilities[0])

    @property
    def availability(self) -> float:
        """Probability that at least one replica is running."""
        return 1.0 - self.unavailability

    @property
    def expected_available(self) -> float:
        """Expected number of running replicas."""
        return float(
            self.state_probabilities @ np.arange(self.count + 1)
        )

    def unavailability_closed_form(self) -> float:
        """Independent-repair closed form ``(lambda/(lambda+mu))**Y``.

        Only valid for :attr:`RepairPolicy.INDEPENDENT`, where the replicas
        are independent two-state chains; used as a test oracle.  The
        down probability is divided out directly rather than taken as
        ``1 - mu/(lambda+mu)``, whose subtraction cancels the leading
        digits when ``lambda << mu``.
        """
        if self.policy is not RepairPolicy.INDEPENDENT:
            raise ValidationError(
                "closed form only exists for independent repairs"
            )
        failure_rate = self.spec.failure_rate
        down = failure_rate / (failure_rate + self.spec.repair_rate)
        return down**self.count


class AvailabilityModel:
    """Joint availability CTMC of the whole WFMS (Section 5).

    Exposes both the paper-faithful joint analysis (explicit generator
    matrix over all system states, with the paper's integer encoding) and
    the product-form shortcut exploiting per-type independence.
    """

    def __init__(
        self,
        server_types: ServerTypeIndex,
        configuration: SystemConfiguration,
        policy: RepairPolicy = RepairPolicy.INDEPENDENT,
    ) -> None:
        self.server_types = server_types
        self.configuration = configuration
        self.policy = policy
        self._counts = configuration.as_vector(server_types)
        if np.any(self._counts < 1):
            raise ValidationError(
                "every server type needs at least one configured replica; "
                f"got {configuration}"
            )
        self._num_states = int(np.prod(self._counts + 1))

    # ------------------------------------------------------------------
    # State space and the paper's encoding
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        """Size of the system state space ``prod_x (Y_x + 1)``."""
        return self._num_states

    def encode(self, state: tuple[int, ...]) -> int:
        """Paper's integer encoding: ``sum_j X_j * prod_{l<j} (Y_l + 1)``."""
        if len(state) != len(self._counts):
            raise ValidationError(
                f"state must have {len(self._counts)} entries"
            )
        code = 0
        stride = 1
        for j, value in enumerate(state):
            if not 0 <= value <= self._counts[j]:
                raise ValidationError(
                    f"entry {j} of state {state} out of range "
                    f"[0, {self._counts[j]}]"
                )
            code += value * stride
            stride *= self._counts[j] + 1
        return code

    def decode(self, code: int) -> tuple[int, ...]:
        """Inverse of :meth:`encode`."""
        if not 0 <= code < self._num_states:
            raise ValidationError(
                f"code {code} out of range [0, {self._num_states})"
            )
        state = []
        for count in self._counts:
            state.append(code % (count + 1))
            code //= count + 1
        return tuple(state)

    def states(self) -> Iterator[tuple[int, ...]]:
        """All system states, in encoding order."""
        for code in range(self._num_states):
            yield self.decode(code)

    def is_system_available(self, state: tuple[int, ...]) -> bool:
        """The WFMS is up iff every server type has a running replica."""
        return all(value >= 1 for value in state)

    # ------------------------------------------------------------------
    # Joint CTMC (paper-faithful)
    # ------------------------------------------------------------------
    def generator_matrix(self) -> np.ndarray:
        """Infinitesimal generator ``Q`` of the system-state CTMC.

        Densified from :meth:`generator_triplets`, which is the single
        source of truth for the transition structure; this method only
        scatters the rates and completes the diagonal.
        """
        rows, columns, rates = self.generator_triplets()
        q = np.zeros((self._num_states, self._num_states))
        np.add.at(q, (rows, columns), rates)
        np.fill_diagonal(q, -q.sum(axis=1))
        return q

    def generator_triplets(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Off-diagonal transitions as ``(rows, columns, rates)`` arrays.

        The joint CTMC has ``prod(Y_x + 1)`` states but at most ``2k``
        transitions per state, so the triplet form stays linear in the
        state-space size where the dense generator is quadratic.
        """
        rows: list[int] = []
        columns: list[int] = []
        rates: list[float] = []
        for code in range(self._num_states):
            state = self.decode(code)
            for j, spec in enumerate(self.server_types.specs):
                available = state[j]
                if available >= 1 and spec.failure_rate > 0.0:
                    failed_state = list(state)
                    failed_state[j] -= 1
                    rows.append(code)
                    columns.append(self.encode(tuple(failed_state)))
                    rates.append(available * spec.failure_rate)
                failed = self._counts[j] - available
                if failed >= 1 and not math.isinf(spec.repair_rate):
                    repaired_state = list(state)
                    repaired_state[j] += 1
                    rows.append(code)
                    columns.append(self.encode(tuple(repaired_state)))
                    if self.policy is RepairPolicy.INDEPENDENT:
                        rates.append(failed * spec.repair_rate)
                    else:
                        rates.append(spec.repair_rate)
        return (
            np.asarray(rows, dtype=np.int64),
            np.asarray(columns, dtype=np.int64),
            np.asarray(rates, dtype=float),
        )

    def chain(self) -> ErgodicCTMC:
        """The system-state CTMC with human-readable state names."""
        names = tuple(str(state) for state in self.states())
        return ErgodicCTMC(self.generator_matrix(), state_names=names)

    #: State-space size above which :meth:`steady_state` picks the
    #: sparse solver automatically.
    SPARSE_THRESHOLD = 512

    def steady_state(
        self, method: SolveMethod | Literal["sparse", "auto"] = "auto"
    ) -> np.ndarray:
        """Steady-state probabilities ``pi_i`` over encoded states.

        ``auto`` (default) solves densely for small state spaces and
        switches to scipy's sparse LU beyond :attr:`SPARSE_THRESHOLD`
        states; ``direct``/``gauss_seidel``/``sparse`` force a solver.
        """
        if method == "auto":
            method = (
                "sparse" if self._num_states > self.SPARSE_THRESHOLD
                else "direct"
            )
        obs.count("availability.steady_state_solves")
        obs.set_max("availability.state_space.max", self._num_states)
        with obs.span(
            "availability.steady_state",
            states=self._num_states,
            method=method,
        ):
            if method == "sparse":
                from repro.core.linalg import (
                    steady_state_distribution_sparse,
                )

                rows, columns, rates = self.generator_triplets()
                return steady_state_distribution_sparse(
                    rows, columns, rates, self._num_states
                )
            return self.chain().steady_state(method=method)

    def state_probabilities(
        self, method: SolveMethod | Literal["sparse", "auto"] = "auto"
    ) -> dict[tuple[int, ...], float]:
        """Steady-state probability of every system state vector."""
        pi = self.steady_state(method=method)
        return {self.decode(code): float(pi[code])
                for code in range(self._num_states)}

    # ------------------------------------------------------------------
    # Availability metrics
    # ------------------------------------------------------------------
    def pools(self) -> dict[str, ServerPoolAvailability]:
        """Per-type birth-death availability chains."""
        return {
            spec.name: ServerPoolAvailability(
                spec=spec,
                count=int(self._counts[i]),
                policy=self.policy,
            )
            for i, spec in enumerate(self.server_types.specs)
        }

    def unavailability(
        self,
        method: Literal["product", "joint"] = "product",
        solve_method: SolveMethod | Literal["sparse", "auto"] = "auto",
    ) -> float:
        """Probability that the WFMS is down (some type fully failed).

        ``product`` exploits per-type independence (fast, exact);
        ``joint`` sums the steady-state probabilities of the joint CTMC
        over all states with a zero entry (the paper's formulation).
        """
        if method == "product":
            availability = 1.0
            for pool in self.pools().values():
                availability *= pool.availability
            return 1.0 - availability
        if method == "joint":
            pi = self.steady_state(method=solve_method)
            down = sum(
                float(pi[code])
                for code in range(self._num_states)
                if not self.is_system_available(self.decode(code))
            )
            return min(max(down, 0.0), 1.0)
        raise ValidationError(f"unknown method {method!r}")

    def availability(
        self, method: Literal["product", "joint"] = "product"
    ) -> float:
        """Probability that the WFMS is up."""
        return 1.0 - self.unavailability(method=method)

    def downtime_per_year(
        self,
        unit: Literal["hours", "minutes", "seconds"] = "hours",
        method: Literal["product", "joint"] = "product",
    ) -> float:
        """Expected downtime per year, in the requested unit.

        The model's rates are unit-agnostic; the per-year figure only
        rescales the dimensionless unavailability (fraction of time down).
        """
        scale = {
            "hours": HOURS_PER_YEAR,
            "minutes": MINUTES_PER_YEAR,
            "seconds": SECONDS_PER_YEAR,
        }.get(unit)
        if scale is None:
            raise ValidationError(f"unknown unit {unit!r}")
        return self.unavailability(method=method) * scale

    def per_type_unavailability(self) -> dict[str, float]:
        """Probability that each type is completely down, by name."""
        return {
            name: pool.unavailability
            for name, pool in self.pools().items()
        }

    def replication_sensitivity(self) -> dict[str, float]:
        """Unavailability reduction from adding one replica per type.

        ``result[x]`` is the decrease of the *system* unavailability if
        server type ``x`` gained one replica (all else equal) — the exact
        quantity the greedy heuristic's "most critical server type"
        choice approximates.  Computed from the product form, so it costs
        one birth-death solve per type.
        """
        pools = self.pools()
        base_availability = {
            name: pool.availability for name, pool in pools.items()
        }
        system_availability = 1.0
        for availability_value in base_availability.values():
            system_availability *= availability_value
        sensitivity: dict[str, float] = {}
        for i, spec in enumerate(self.server_types.specs):
            grown = ServerPoolAvailability(
                spec=spec,
                count=int(self._counts[i]) + 1,
                policy=self.policy,
            )
            others = (
                system_availability / base_availability[spec.name]
                if base_availability[spec.name] > 0.0
                else 0.0
            )
            improved_system = others * grown.availability
            sensitivity[spec.name] = float(
                improved_system - system_availability
            )
        return sensitivity

    # ------------------------------------------------------------------
    # Transient analysis (extension)
    # ------------------------------------------------------------------
    def transient_unavailability(
        self,
        time: float,
        initial_state: tuple[int, ...] | None = None,
    ) -> float:
        """Probability that the system is down at time ``t``.

        Starts (by default) from the fully-up state — the situation right
        after deployment or a maintenance restart — and converges to the
        steady-state unavailability as ``t`` grows.
        """
        chain = self.chain()
        pi0 = np.zeros(self.num_states)
        start = (
            initial_state
            if initial_state is not None
            else tuple(int(count) for count in self._counts)
        )
        pi0[self.encode(start)] = 1.0
        pi_t = chain.transient_state_probabilities(pi0, time)
        return float(
            sum(
                pi_t[code]
                for code in range(self.num_states)
                if not self.is_system_available(self.decode(code))
            )
        )

    def expected_downtime(
        self,
        horizon: float,
        initial_state: tuple[int, ...] | None = None,
        grid_points: int = 64,
    ) -> float:
        """Expected downtime accumulated over ``[0, horizon]``.

        Integrates the transient unavailability on a uniform grid
        (trapezoidal rule); for horizons much longer than the repair
        times this approaches ``steady_state_unavailability * horizon``.
        """
        if horizon <= 0.0:
            raise ValidationError("horizon must be positive")
        if grid_points < 2:
            raise ValidationError("need at least two grid points")
        times = np.linspace(0.0, horizon, grid_points)
        values = np.array(
            [
                self.transient_unavailability(t, initial_state)
                for t in times
            ]
        )
        return float(np.trapezoid(values, times))


def minimum_replicas_for_availability(
    spec: ServerTypeSpec,
    max_unavailability: float,
    policy: RepairPolicy = RepairPolicy.INDEPENDENT,
    max_replicas: int = 64,
) -> int:
    """Smallest replica count keeping one type's unavailability in bound.

    Used by the configuration search to seed availability-driven lower
    bounds per server type.
    """
    if not 0.0 < max_unavailability < 1.0:
        raise ValidationError(
            "max_unavailability must lie strictly in (0, 1)"
        )
    for count in range(1, max_replicas + 1):
        pool = ServerPoolAvailability(spec=spec, count=count, policy=policy)
        if pool.unavailability <= max_unavailability:
            return count
    raise ValidationError(
        f"{spec.name}: even {max_replicas} replicas cannot reach "
        f"unavailability {max_unavailability}"
    )
