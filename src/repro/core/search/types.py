"""Shared value types of the configuration search (Section 7).

These dataclasses are the vocabulary every search component speaks:
:class:`ReplicationConstraints` bounds the space, :class:`SearchStep`
records one consumed candidate for traceability, and
:class:`ConfigurationRecommendation` is the final answer.  They
historically lived in :mod:`repro.core.configuration`, which still
re-exports them for API compatibility; the search engine and the
proposal strategies import them from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.goals import GoalAssessment
from repro.core.performance import SystemConfiguration, replica_count
from repro.exceptions import ValidationError


def _positive_count(label: str, value: object) -> int:
    """``value`` as a replica count of at least 1.

    The rule of :func:`~repro.core.performance.replica_count` (an
    integral, finite, non-negative real that is not a ``bool``) plus a
    floor of 1: a zero maximum would make ``upper_bound <
    lower_bound`` and surface only as a confusing downstream search
    failure.
    """
    try:
        count = replica_count(label, value)
    except ValidationError:
        count = 0
    if count < 1:
        raise ValidationError(
            f"{label} must be a positive integer, got {value!r}"
        )
    return count


@dataclass(frozen=True)
class ReplicationConstraints:
    """Bounds on the replication degree per server type (Section 7.1).

    Recommendations "can take into account specific constraints such as
    limiting or fixing the degree of replication of particular server
    types (e.g., for cost reasons)".  ``fixed`` pins a type to an exact
    count; ``minimum``/``maximum`` bound the search per type;
    ``max_total_servers`` bounds the whole system.
    """

    minimum: Mapping[str, int] = field(default_factory=dict)
    maximum: Mapping[str, int] = field(default_factory=dict)
    fixed: Mapping[str, int] = field(default_factory=dict)
    max_total_servers: int = 64

    def __post_init__(self) -> None:
        for mapping_name in ("minimum", "maximum", "fixed"):
            mapping = {
                name: _positive_count(f"{mapping_name}[{name}]", value)
                for name, value in dict(getattr(self, mapping_name)).items()
            }
            object.__setattr__(self, mapping_name, mapping)
        object.__setattr__(
            self,
            "max_total_servers",
            _positive_count("max_total_servers", self.max_total_servers),
        )
        for name, value in self.fixed.items():
            low = self.minimum.get(name)
            high = self.maximum.get(name)
            if low is not None and value < low:
                raise ValidationError(
                    f"fixed[{name}]={value} conflicts with minimum {low}"
                )
            if high is not None and value > high:
                raise ValidationError(
                    f"fixed[{name}]={value} conflicts with maximum {high}"
                )

    def lower_bound(self, server_type: str) -> int:
        """Smallest admissible replica count for one type."""
        if server_type in self.fixed:
            return self.fixed[server_type]
        return self.minimum.get(server_type, 1)

    def upper_bound(self, server_type: str) -> int:
        """Largest admissible replica count for one type."""
        if server_type in self.fixed:
            return self.fixed[server_type]
        return self.maximum.get(server_type, self.max_total_servers)

    def admits(self, configuration: SystemConfiguration) -> bool:
        """Whether a configuration satisfies all bounds."""
        if configuration.total_servers > self.max_total_servers:
            return False
        return all(
            self.lower_bound(name) <= count <= self.upper_bound(name)
            for name, count in configuration.replicas.items()
        )

    def can_add(self, configuration: SystemConfiguration, server_type: str) -> bool:
        """Whether one more replica of ``server_type`` stays admissible."""
        if configuration.total_servers + 1 > self.max_total_servers:
            return False
        return (configuration.count(server_type) + 1
                <= self.upper_bound(server_type))


@dataclass(frozen=True)
class SearchStep:
    """One iteration of a configuration search, for traceability."""

    configuration: SystemConfiguration
    cost: float
    satisfied: bool
    added_server_type: str | None
    criterion: str | None


@dataclass(frozen=True)
class ConfigurationRecommendation:
    """Result of a configuration search."""

    configuration: SystemConfiguration
    cost: float
    assessment: GoalAssessment
    evaluations: int
    trace: tuple[SearchStep, ...] = ()
    algorithm: str = "greedy"

    def format_text(self) -> str:
        """Human-readable multi-line rendering of the recommendation."""
        lines = [
            f"Recommended configuration ({self.algorithm}): "
            f"{self.configuration}",
            f"  cost: {self.cost:g} ({self.configuration.total_servers} servers)",
            f"  model evaluations: {self.evaluations}",
            f"  goals satisfied: {self.assessment.satisfied}",
        ]
        if self.assessment.unavailability is not None:
            lines.append(
                f"  system unavailability: "
                f"{self.assessment.unavailability:.3e}"
            )
        if self.assessment.performability is not None:
            worst = self.assessment.performability.max_expected_waiting_time
            lines.append(f"  worst expected waiting time: {worst:.6f}")
        return "\n".join(lines)

    def to_document(self) -> dict[str, Any]:
        """Machine-readable form, matching the metrics/trace export
        conventions (plain JSON types, ``inf`` rendered as ``null``)."""

        def _finite(value: float | None) -> float | None:
            if value is None or not math.isfinite(value):
                return None
            return float(value)

        assessment = self.assessment
        performability = assessment.performability
        return {
            "algorithm": self.algorithm,
            "configuration": dict(
                sorted(self.configuration.replicas.items())
            ),
            "cost": self.cost,
            "total_servers": self.configuration.total_servers,
            "evaluations": self.evaluations,
            "satisfied": assessment.satisfied,
            "violations": [
                {
                    "kind": violation.kind,
                    "server_type": violation.server_type,
                    "actual": _finite(violation.actual),
                    "threshold": _finite(violation.threshold),
                }
                for violation in assessment.violations
            ],
            "unavailability": assessment.unavailability,
            "per_type_unavailability": dict(
                sorted(assessment.per_type_unavailability.items())
            ),
            "utilizations": dict(sorted(assessment.utilizations.items())),
            "expected_waiting_times": (
                {
                    name: _finite(value)
                    for name, value in sorted(
                        performability.expected_waiting_times.items()
                    )
                }
                if performability is not None else None
            ),
            "trace": [
                {
                    "configuration": dict(
                        sorted(step.configuration.replicas.items())
                    ),
                    "cost": step.cost,
                    "satisfied": step.satisfied,
                    "added_server_type": step.added_server_type,
                    "criterion": step.criterion,
                }
                for step in self.trace
            ],
        }
