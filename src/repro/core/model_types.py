"""Shared domain types of the architectural model (Section 2).

A distributed WFMS is composed of abstract *server types* — workflow
engines, application servers, and the communication server — each of which
may be replicated.  Workflow *activities* induce a certain number of
service requests on each server type.  These dataclasses carry the
parameters every model in the package consumes.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.exceptions import ValidationError


def _check_mean_service_time(name: str, mean_service_time: float) -> None:
    """Raise unless the mean is finite, positive, and has a finite square.

    Second moments square the mean with ``**``, which raises
    ``OverflowError`` past ``sqrt(sys.float_info.max)`` (about 1.34e154);
    the product tested here never raises, for ints either.  Each check
    is written so that NaN fails it.
    """
    if not 0.0 < mean_service_time < math.inf:
        raise ValidationError(
            f"{name}: mean service time must be finite and > 0"
        )
    if not mean_service_time * mean_service_time <= sys.float_info.max:
        raise ValidationError(
            f"{name}: mean service time {mean_service_time!r} is too "
            "large: its square must be finite"
        )


class ServerRole(enum.Enum):
    """Role of a server type in the architectural model (Figure 2)."""

    WORKFLOW_ENGINE = "workflow_engine"
    APPLICATION_SERVER = "application_server"
    COMMUNICATION_SERVER = "communication_server"
    OTHER = "other"


@dataclass(frozen=True)
class ServerTypeSpec:
    """Parameters of one abstract server type.

    Parameters
    ----------
    name:
        Unique identifier, e.g. ``"wf-engine-1"``.
    mean_service_time:
        First moment ``b_x`` of the service time of one service request.
    second_moment_service_time:
        Second moment ``b_x^(2)``; defaults to the exponential value
        ``2 * b_x**2`` when omitted.
    failure_rate:
        ``lambda_x`` — reciprocal of the mean time to failure (includes
        planned downtimes, Section 2).
    repair_rate:
        ``mu_x`` — reciprocal of the mean time to repair/restart.
    cost:
        Relative cost of one replica of this type (Section 7.1 allows
        per-type refinement of the default "count the servers" cost).
    role:
        Architectural role, for reporting only.
    """

    name: str
    mean_service_time: float
    second_moment_service_time: float | None = None
    failure_rate: float = 0.0
    repair_rate: float = math.inf
    cost: float = 1.0
    role: ServerRole = ServerRole.OTHER

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("server type name must be non-empty")
        # Each check is written so that NaN fails it.
        _check_mean_service_time(self.name, self.mean_service_time)
        if self.second_moment_service_time is None:
            object.__setattr__(
                self,
                "second_moment_service_time",
                2.0 * self.mean_service_time**2,
            )
        if not self.second_moment_service_time >= self.mean_service_time**2:
            raise ValidationError(
                f"{self.name}: second moment must be at least the squared "
                "mean (variance cannot be negative)"
            )
        if not 0.0 <= self.failure_rate < math.inf:
            raise ValidationError(
                f"{self.name}: failure rate must be finite and >= 0"
            )
        if not self.repair_rate > 0.0:
            raise ValidationError(f"{self.name}: repair rate must be > 0")
        if not 0.0 < self.cost < math.inf:
            raise ValidationError(f"{self.name}: cost must be finite and > 0")

    @property
    def mean_time_to_failure(self) -> float:
        """``1 / lambda_x`` (infinite for a failure-free type)."""
        if self.failure_rate == 0.0:
            return math.inf
        return 1.0 / self.failure_rate

    @property
    def mean_time_to_repair(self) -> float:
        """``1 / mu_x``."""
        if math.isinf(self.repair_rate):
            return 0.0
        return 1.0 / self.repair_rate

    @property
    def single_server_availability(self) -> float:
        """Steady-state availability ``mu / (lambda + mu)`` of one replica."""
        if self.failure_rate == 0.0 or math.isinf(self.repair_rate):
            return 1.0
        return self.repair_rate / (self.failure_rate + self.repair_rate)

    @property
    def service_time_variance(self) -> float:
        """Variance of the service time distribution."""
        assert self.second_moment_service_time is not None
        return self.second_moment_service_time - self.mean_service_time**2


@dataclass(frozen=True)
class ActivitySpec:
    """One workflow activity type and the load it induces (Figure 1).

    ``loads`` maps server type names to the expected number of service
    requests one execution of this activity sends to that type — e.g. the
    automated activity of Figure 1 induces 3 requests at its workflow
    engine, 2 at the communication server, and 3 at its application server.
    """

    name: str
    mean_duration: float
    loads: Mapping[str, float] = field(default_factory=dict)
    interactive: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("activity name must be non-empty")
        if not 0.0 < self.mean_duration < math.inf:
            raise ValidationError(
                f"{self.name}: mean duration must be positive and finite"
            )
        loads = dict(self.loads)
        for server_type, requests in loads.items():
            if not 0.0 <= requests < math.inf:
                raise ValidationError(
                    f"{self.name}: load on {server_type} must be >= 0 "
                    "and finite"
                )
        object.__setattr__(self, "loads", loads)

    def load_on(self, server_type: str) -> float:
        """Service requests this activity sends to ``server_type``."""
        return float(self.loads.get(server_type, 0.0))


class ServerTypeIndex:
    """Immutable ordered index of server types.

    Fixes the order in which server types appear in every vector and matrix
    of the performance, availability, and performability models, so that
    results from different models can be combined safely.
    """

    def __init__(self, server_types: Iterable[ServerTypeSpec]) -> None:
        specs = tuple(server_types)
        if not specs:
            raise ValidationError("at least one server type is required")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate server type names in {names}")
        self._specs = specs
        self._names = tuple(names)
        self._positions = {spec.name: i for i, spec in enumerate(specs)}

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self):
        return iter(self._specs)

    def __contains__(self, name: object) -> bool:
        return name in self._positions

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServerTypeIndex):
            return NotImplemented
        return self._specs == other._specs

    def __hash__(self) -> int:
        return hash(self._specs)

    @property
    def names(self) -> tuple[str, ...]:
        """Server type names in index order."""
        return self._names

    @property
    def specs(self) -> tuple[ServerTypeSpec, ...]:
        """Server type specs in index order."""
        return self._specs

    def position(self, name: str) -> int:
        """Index of the server type called ``name``."""
        try:
            return self._positions[name]
        except KeyError:
            raise ValidationError(
                f"unknown server type {name!r}; known: {self.names}"
            ) from None

    def spec(self, name: str) -> ServerTypeSpec:
        """Spec of the server type called ``name``."""
        return self._specs[self.position(name)]
