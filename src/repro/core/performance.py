"""Performance model of the distributed WFMS (Section 4).

Given the workflow mix (workflow types with Poisson arrival rates), the
server types, and a candidate configuration (replication degrees), this
module computes the paper's four performance stages:

1. mean workflow turnaround times (first-passage analysis, Section 4.1);
2. expected service requests per workflow instance and server type
   (Markov reward analysis, Section 4.2);
3. total load per server and the maximum sustainable throughput
   (Little's law, Section 4.3);
4. mean waiting times of service requests at each server, modelling every
   replica as an M/G/1 station (Section 4.4), including the generalized
   case of several server types co-located on one computer.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.core.model_types import ServerTypeIndex, ServerTypeSpec
from repro.core.workflow_model import (
    WorkflowCTMC,
    WorkflowDefinition,
    build_workflow_ctmc,
)
from repro.exceptions import SaturationError, ValidationError
from repro.queueing import mg1_mean_waiting_time, pooled_service_moments


def waiting_time_point(
    spec: ServerTypeSpec, total: float, available: int, strict: bool = False
) -> float:
    """Waiting time ``w_x(n)`` of one type with ``n`` running replicas.

    The Section 4.4 waiting time of a type depends on the system state
    only through its *own* pool size, and on the workload only through
    the type's total request rate ``l_x`` (``total``), so this
    single-point evaluation is the unit a type's waiting-time curve
    (:class:`~repro.core.performability.TypeRow`) grows by.  Follows
    the uniform convention (0.0 for no load, ``inf`` only for
    saturation); ``strict`` is forwarded to
    :func:`mg1_mean_waiting_time`, so a saturated pool raises
    :class:`~repro.exceptions.SaturationError` instead of returning
    ``inf``.
    """
    obs.count("performance.waiting_time_points")
    if available <= 0:
        if total > 0.0:
            if strict:
                raise SaturationError(
                    f"no running replica of {spec.name} for its "
                    f"request rate {total:g}"
                )
            return math.inf
        rate = 0.0
    else:
        rate = total / available
    return mg1_mean_waiting_time(
        rate,
        spec.mean_service_time,
        spec.second_moment_service_time,
        strict=strict,
    )


@dataclass(frozen=True)
class WorkloadItem:
    """One workflow type together with its arrival rate ``xi_t``."""

    definition: WorkflowDefinition
    arrival_rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.arrival_rate < math.inf:  # NaN fails too
            raise ValidationError(
                f"workflow {self.definition.name}: arrival rate must be "
                ">= 0 and finite"
            )


class Workload:
    """The application workload: a set of workflow types with rates.

    Iterable over :class:`WorkloadItem`; workflow names must be unique.
    """

    def __init__(self, items: Iterable[WorkloadItem]) -> None:
        self._items = tuple(items)
        if not self._items:
            raise ValidationError("workload must contain at least one item")
        names = [item.definition.name for item in self._items]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate workflow types in {names}")

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def workflow_names(self) -> tuple[str, ...]:
        """Names of the workflow types, in declaration order."""
        return tuple(item.definition.name for item in self._items)

    @property
    def total_arrival_rate(self) -> float:
        """Total workflow instances arriving per time unit."""
        return sum(item.arrival_rate for item in self._items)

    def item(self, workflow_name: str) -> WorkloadItem:
        """The workload item for ``workflow_name`` (raises if unknown)."""
        for candidate in self._items:
            if candidate.definition.name == workflow_name:
                return candidate
        raise ValidationError(f"unknown workflow type {workflow_name!r}")

    def scaled(self, factor: float) -> "Workload":
        """A copy with all arrival rates multiplied by ``factor``."""
        if factor < 0.0:
            raise ValidationError("scale factor must be >= 0")
        return Workload(
            WorkloadItem(item.definition, item.arrival_rate * factor)
            for item in self._items
        )


def replica_count(name: str, count: object) -> int:
    """``count`` as an ``int``; rejects anything but a non-negative integer.

    Integral reals such as ``2.0`` are accepted; ``bool``, NaN,
    infinities, fractions, strings and ``None`` are not.  Every
    comparison is written so that NaN fails it.
    """
    if (isinstance(count, numbers.Real)
            and not isinstance(count, (bool, np.bool_))
            and count >= 0
            and math.isfinite(count)
            and count == int(count)):
        return int(count)
    raise ValidationError(
        f"replica count of {name} must be a non-negative integer, "
        f"got {count!r}"
    )


@dataclass(frozen=True)
class SystemConfiguration:
    """Replication degrees ``Y = (Y_1, ..., Y_k)`` keyed by type name.

    This is also used to describe a (degraded) *system state*
    ``X = (X_1, ..., X_k)``, in which entries may be zero.
    """

    replicas: Mapping[str, int]

    def __post_init__(self) -> None:
        replicas = dict(self.replicas)
        for name, count in replicas.items():
            if type(count) is not int or count < 0:
                replicas[name] = replica_count(name, count)
        object.__setattr__(self, "replicas", replicas)

    def count(self, server_type: str) -> int:
        """Number of replicas of ``server_type`` (0 when unknown)."""
        return self.replicas.get(server_type, 0)

    def as_vector(self, index: ServerTypeIndex) -> np.ndarray:
        """Replica counts in server-type index order."""
        return np.array(
            [self.count(name) for name in index.names], dtype=int
        )

    @property
    def total_servers(self) -> int:
        """Total number of servers in the system."""
        return sum(self.replicas.values())

    def cost(self, index: ServerTypeIndex) -> float:
        """Weighted configuration cost (Section 7.1)."""
        return float(
            sum(
                self.count(spec.name) * spec.cost
                for spec in index.specs
            )
        )

    def with_added_replica(self, server_type: str) -> "SystemConfiguration":
        """A copy with one more replica of ``server_type``."""
        replicas = dict(self.replicas)
        replicas[server_type] = replicas.get(server_type, 0) + 1
        return SystemConfiguration(replicas)

    @staticmethod
    def uniform(index: ServerTypeIndex, count: int = 1) -> "SystemConfiguration":
        """The configuration with ``count`` replicas of every type."""
        return SystemConfiguration({name: count for name in index.names})

    def __str__(self) -> str:
        inner = ", ".join(
            f"{name}={count}" for name, count in sorted(self.replicas.items())
        )
        return f"({inner})"


@dataclass(frozen=True)
class ThroughputReport:
    """Maximum sustainable throughput analysis (Section 4.3)."""

    #: Maximum workflow instances per time unit sustainable with the given
    #: workload mix.
    max_workflow_throughput: float
    #: Server type that saturates first.
    bottleneck: str | None
    #: Factor by which the current workload could be scaled up before the
    #: bottleneck saturates (< 1 means the current load is unsustainable).
    headroom: float
    #: Sustainable request rate per server type (``Y_x / b_x``).
    request_capacity: dict[str, float]


@dataclass(frozen=True)
class PerformanceReport:
    """Full Section 4 assessment of one configuration."""

    configuration: SystemConfiguration
    server_types: ServerTypeIndex
    turnaround_times: dict[str, float]
    requests_per_instance: dict[str, dict[str, float]]
    total_request_rates: dict[str, float]
    per_server_request_rates: dict[str, float]
    utilizations: dict[str, float]
    waiting_times: dict[str, float]
    throughput: ThroughputReport

    @property
    def is_stable(self) -> bool:
        """True when no server type is saturated."""
        return all(value < 1.0 for value in self.utilizations.values())

    @property
    def max_waiting_time(self) -> float:
        """Worst per-type mean waiting time (the responsiveness indicator)."""
        return max(self.waiting_times.values())

    def format_text(self) -> str:
        """Render a human-readable summary table."""
        lines = [f"Performance assessment for configuration {self.configuration}"]
        lines.append("  Workflow turnaround times:")
        for name, value in self.turnaround_times.items():
            lines.append(f"    {name:30s} R = {value:12.4f}")
        lines.append(
            "  Server type          replicas    load/server  utilization"
            "   waiting time"
        )
        for name in self.server_types.names:
            waiting = self.waiting_times[name]
            waiting_text = f"{waiting:12.6f}" if math.isfinite(waiting) else "         inf"
            lines.append(
                f"    {name:18s} {self.configuration.count(name):8d} "
                f"{self.per_server_request_rates[name]:12.6f} "
                f"{self.utilizations[name]:12.6f} {waiting_text}"
            )
        bottleneck = self.throughput.bottleneck or "-"
        lines.append(
            f"  Max sustainable throughput: "
            f"{self.throughput.max_workflow_throughput:.6f} workflows/unit "
            f"(bottleneck: {bottleneck}, headroom x{self.throughput.headroom:.3f})"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class Computer:
    """A physical computer hosting one replica of each listed server type.

    Used by the generalized waiting-time analysis for co-located server
    types (Section 4.4).  ``speed_factor`` supports the heterogeneous
    extension the paper sketches ("could be extended to the heterogeneous
    case by adjusting the service times on a per computer basis"): a
    computer twice as fast as the reference building block has factor 2,
    halving every hosted service time.
    """

    name: str
    hosted_types: tuple[str, ...]
    speed_factor: float = 1.0

    def __post_init__(self) -> None:
        hosted = tuple(self.hosted_types)
        if not hosted:
            raise ValidationError(f"computer {self.name}: hosts no server")
        if len(set(hosted)) != len(hosted):
            raise ValidationError(
                f"computer {self.name}: hosts duplicate server types"
            )
        if self.speed_factor <= 0.0:
            raise ValidationError(
                f"computer {self.name}: speed factor must be positive"
            )
        object.__setattr__(self, "hosted_types", hosted)


class PerformanceModel:
    """Evaluates the Section 4 performance metrics for configurations.

    The per-workflow CTMC analyses (turnaround times and request counts)
    depend only on the workload, not on the configuration, and are computed
    once and cached; evaluating a candidate configuration is then cheap,
    which is what makes the configuration search of Section 7 practical.
    """

    def __init__(
        self,
        server_types: ServerTypeIndex,
        workload: Workload,
    ) -> None:
        self.server_types = server_types
        self.workload = workload
        self._models: dict[str, WorkflowCTMC] = {}
        self._turnarounds: dict[str, float] = {}
        self._requests: dict[str, np.ndarray] = {}
        for item in workload:
            name = item.definition.name
            with obs.span(
                "performance.workflow_analysis", workflow=name
            ) as span:
                model = build_workflow_ctmc(item.definition, server_types)
                span.set("states", model.chain.num_states)
                self._models[name] = model
                self._turnarounds[name] = model.turnaround_time()
                self._requests[name] = model.requests_per_instance()

    @classmethod
    def from_request_totals(
        cls,
        server_types: ServerTypeIndex,
        total_request_rates: Sequence[float],
    ) -> "PerformanceModel":
        """A partial model rebuilt from its configuration-search inputs.

        Every configuration-evaluation path (utilizations, waiting
        times, goal assessment) depends on the workload only through the
        per-type total request rates ``l_x``, which with the server-type
        specs key the evaluation cache's rows
        (:class:`~repro.core.evaluation_cache.EvaluationCache`).  The
        recommendation service therefore builds its calibrated model
        from per-type totals alone instead of per-workflow CTMCs, and
        the model computes bitwise-identical results for the same
        floats.

        The partial model has no workload: the per-workflow analyses
        (turnaround times, request counts, throughput, load breakdown)
        raise on use.
        """
        totals = np.asarray(total_request_rates, dtype=float).copy()
        if totals.shape != (len(server_types),):
            raise ValidationError(
                f"need one total request rate per server type "
                f"({len(server_types)}), got shape {totals.shape}"
            )
        model = cls.__new__(cls)
        model.server_types = server_types
        model.workload = None
        model._models = {}
        model._turnarounds = {}
        model._requests = {}
        totals.flags.writeable = False
        # Seed the cached_property so the totals are authoritative.
        model.__dict__["_total_request_rates"] = totals
        return model

    # ------------------------------------------------------------------
    # Stage 1 + 2: per-workflow quantities
    # ------------------------------------------------------------------
    def workflow_model(self, workflow_name: str) -> WorkflowCTMC:
        """The cached CTMC translation of one workflow type."""
        try:
            return self._models[workflow_name]
        except KeyError:
            raise ValidationError(
                f"unknown workflow type {workflow_name!r}"
            ) from None

    def turnaround_time(self, workflow_name: str) -> float:
        """Mean turnaround time ``R_t`` (Section 4.1)."""
        self.workflow_model(workflow_name)
        return self._turnarounds[workflow_name]

    def requests_per_instance(self, workflow_name: str) -> np.ndarray:
        """Expected requests ``r_{x,t}`` per server type (Section 4.2)."""
        self.workflow_model(workflow_name)
        return self._requests[workflow_name].copy()

    def active_instances(self, workflow_name: str) -> float:
        """Mean number of concurrent instances ``N_active`` (Little)."""
        item = self.workload.item(workflow_name)
        return item.arrival_rate * self._turnarounds[workflow_name]

    # ------------------------------------------------------------------
    # Stage 3: aggregated load and sustainable throughput
    # ------------------------------------------------------------------
    @cached_property
    def _total_request_rates(self) -> np.ndarray:
        """Cached ``l_x`` vector (the workload is fixed at construction)."""
        totals = np.zeros(len(self.server_types))
        for item in self.workload:
            totals += item.arrival_rate * self._requests[item.definition.name]
        totals.flags.writeable = False
        return totals

    @cached_property
    def _service_time_means(self) -> np.ndarray:
        means = np.array(
            [spec.mean_service_time for spec in self.server_types.specs]
        )
        means.flags.writeable = False
        return means

    @cached_property
    def _service_time_second_moments(self) -> np.ndarray:
        seconds = np.array(
            [
                spec.second_moment_service_time
                for spec in self.server_types.specs
            ]
        )
        seconds.flags.writeable = False
        return seconds

    def total_request_rates(self) -> np.ndarray:
        """Request arrival rate ``l_x = sum_t xi_t r_{x,t}`` per type."""
        return self._total_request_rates.copy()

    def load_breakdown(self) -> dict[str, dict[str, float]]:
        """Each workflow type's share of every server type's load.

        ``result[server_type][workflow_type]`` is the fraction of the
        type's total request arrival rate contributed by that workflow —
        the "who is loading my bottleneck" diagnostic behind capacity
        decisions.  Shares per server type sum to 1 (types without load
        report an empty mapping).
        """
        totals = self._total_request_rates
        breakdown: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.server_types.names):
            if totals[i] <= 0.0:
                breakdown[name] = {}
                continue
            shares = {}
            for item in self.workload:
                workflow = item.definition.name
                contribution = (
                    item.arrival_rate * self._requests[workflow][i]
                )
                if contribution > 0.0:
                    shares[workflow] = float(contribution / totals[i])
            breakdown[name] = shares
        return breakdown

    def per_server_request_rates(
        self, configuration: SystemConfiguration
    ) -> np.ndarray:
        """Per-replica arrival rates ``l~_x = l_x / Y_x``.

        Types with zero available replicas get ``inf`` when they carry load
        (the load has nowhere to go) and 0 otherwise.
        """
        totals = self._total_request_rates
        counts = configuration.as_vector(self.server_types)
        rates = np.zeros_like(totals)
        positive = counts > 0
        rates[positive] = totals[positive] / counts[positive]
        rates[~positive & (totals > 0.0)] = math.inf
        return rates

    def utilizations(self, configuration: SystemConfiguration) -> np.ndarray:
        """Per-replica utilizations ``rho_x = l~_x b_x``."""
        rates = self.per_server_request_rates(configuration)
        return rates * self._service_time_means

    def max_sustainable_throughput(
        self, configuration: SystemConfiguration
    ) -> ThroughputReport:
        """Maximum workflow throughput before any server type saturates.

        Scaling the whole workload mix by a factor ``alpha`` scales every
        ``l_x`` linearly, so the critical factor is
        ``min_x (Y_x / b_x) / l_x`` and the maximum sustainable workflow
        throughput is that factor times the current total arrival rate.
        """
        totals = self._total_request_rates
        capacity: dict[str, float] = {}
        headroom = math.inf
        bottleneck: str | None = None
        for i, spec in enumerate(self.server_types.specs):
            servers = configuration.count(spec.name)
            type_capacity = servers / spec.mean_service_time
            capacity[spec.name] = type_capacity
            if totals[i] <= 0.0:
                continue
            factor = type_capacity / totals[i]
            if factor < headroom:
                headroom = factor
                bottleneck = spec.name
        total_rate = self.workload.total_arrival_rate
        if math.isinf(headroom):
            max_throughput = math.inf
        else:
            max_throughput = headroom * total_rate
        return ThroughputReport(
            max_workflow_throughput=max_throughput,
            bottleneck=bottleneck,
            headroom=headroom,
            request_capacity=capacity,
        )

    # ------------------------------------------------------------------
    # Stage 4: waiting times
    # ------------------------------------------------------------------
    def waiting_times(
        self, configuration: SystemConfiguration, strict: bool = False
    ) -> np.ndarray:
        """Mean waiting time ``w_x`` per server type (Section 4.4).

        Each of the ``Y_x`` replicas is an M/G/1 station receiving an equal
        share of the type's request stream.  The waiting-time convention
        is uniform across every waiting-time path of this model: a type
        without load reports ``0.0`` and ``inf`` is reserved for true
        saturation (utilization >= 1, including zero replicas carrying
        positive load).  With ``strict`` a saturated type raises
        :class:`~repro.exceptions.SaturationError` instead, naming the
        saturated types — callers that must distinguish "saturated" from
        "goal merely violated" (the frontier search does) use this.
        """
        per_server = self.per_server_request_rates(configuration)
        # Vectorized Pollaczek-Khinchine over all types at once; the
        # per-element operations are the exact float sequence of
        # :func:`mg1_mean_waiting_time`.
        utilization = per_server * self._service_time_means
        waits = np.full(len(self.server_types), math.inf)
        stable = np.isfinite(per_server) & (utilization < 1.0)
        if strict and not stable.all():
            saturated = [
                name
                for name, ok in zip(self.server_types.names, stable)
                if not ok
            ]
            raise SaturationError(
                "saturated server types: " + ", ".join(saturated)
            )
        waits[stable] = (
            per_server[stable] * self._service_time_second_moments[stable]
            / (2.0 * (1.0 - utilization[stable]))
        )
        return waits

    def waiting_time_for_count(
        self, type_index: int, available: int, strict: bool = False
    ) -> float:
        """Waiting time ``w_x(n)`` of one type with ``n`` running replicas.

        :func:`waiting_time_point` on the type's spec and total request
        rate ``l_x``.
        """
        return waiting_time_point(
            self.server_types.specs[type_index],
            float(self._total_request_rates[type_index]),
            available,
            strict=strict,
        )

    def waiting_times_colocated(
        self, computers: Sequence[Computer], strict: bool = False
    ) -> dict[str, float]:
        """Waiting times when several server types share computers.

        The configuration is implied by the computer list: ``Y_x`` is the
        number of computers hosting type ``x``.  Per computer, the hosted
        types' request streams are summed, their common service-time
        distribution is the arrival-weighted mixture, and the M/G/1 formula
        yields a waiting time common to all requests on that computer
        (Section 4.4, generalized case).  A type hosted on several
        computers reports the mean over its (equally loaded) hosts.

        The result follows the same convention as :meth:`waiting_times`:
        a type without load reports ``0.0`` — even when its host
        computers are saturated by *other* types' streams, since a
        zero-rate stream has no requests to wait — and ``inf`` is
        reserved for true saturation of the type's own request path.
        ``strict`` raises :class:`~repro.exceptions.SaturationError` for
        saturated types instead of reporting ``inf``.
        """
        if not computers:
            raise ValidationError("at least one computer is required")
        names = [computer.name for computer in computers]
        if len(set(names)) != len(names):
            raise ValidationError("computer names must be unique")
        hosts: dict[str, list[Computer]] = {
            name: [] for name in self.server_types.names
        }
        for computer in computers:
            for hosted in computer.hosted_types:
                if hosted not in hosts:
                    raise ValidationError(
                        f"computer {computer.name} hosts unknown server "
                        f"type {hosted!r}"
                    )
                hosts[hosted].append(computer)

        totals = self.total_request_rates()
        per_type_share: dict[str, float] = {}
        for i, name in enumerate(self.server_types.names):
            replica_count = len(hosts[name])
            if replica_count == 0:
                per_type_share[name] = math.inf if totals[i] > 0.0 else 0.0
            else:
                per_type_share[name] = totals[i] / replica_count

        computer_waits: dict[str, float] = {}
        for computer in computers:
            rates, means, seconds = [], [], []
            speed = computer.speed_factor
            for hosted in computer.hosted_types:
                share = per_type_share[hosted]
                if share <= 0.0:
                    # A zero-rate stream contributes neither load nor
                    # service-time mass to the mixture; skipping it keeps
                    # pooled_service_moments over the loaded streams only.
                    continue
                spec = self.server_types.spec(hosted)
                rates.append(share)
                # Heterogeneous extension: service times shrink linearly
                # (second moments quadratically) with the computer speed.
                means.append(spec.mean_service_time / speed)
                seconds.append(
                    spec.second_moment_service_time / speed**2
                )
            if not rates:
                computer_waits[computer.name] = 0.0
                continue
            mean, second = pooled_service_moments(rates, means, seconds)
            computer_waits[computer.name] = mg1_mean_waiting_time(
                sum(rates), mean, second
            )

        result: dict[str, float] = {}
        for i, name in enumerate(self.server_types.names):
            if totals[i] <= 0.0:
                # No load: 0.0 by convention, regardless of hosting.
                result[name] = 0.0
                continue
            if not hosts[name]:
                # Positive load with nowhere to go is saturation.
                result[name] = math.inf
            else:
                waits = [
                    computer_waits[computer.name]
                    for computer in hosts[name]
                ]
                result[name] = float(np.mean(waits))
            if strict and math.isinf(result[name]):
                raise SaturationError(
                    f"server type {name} is saturated on its host "
                    "computers"
                )
        return result

    # ------------------------------------------------------------------
    # Full assessment
    # ------------------------------------------------------------------
    def assess(self, configuration: SystemConfiguration) -> PerformanceReport:
        """Evaluate all Section 4 metrics for one configuration."""
        obs.count("performance.assessments")
        with obs.span(
            "performance.assess", servers=configuration.total_servers
        ):
            totals = self._total_request_rates
            per_server = self.per_server_request_rates(configuration)
            utilizations = self.utilizations(configuration)
            waits = self.waiting_times(configuration)
        names = self.server_types.names
        return PerformanceReport(
            configuration=configuration,
            server_types=self.server_types,
            turnaround_times=dict(self._turnarounds),
            requests_per_instance={
                workflow: {
                    name: float(self._requests[workflow][i])
                    for i, name in enumerate(names)
                }
                for workflow in self._requests
            },
            total_request_rates={
                name: float(totals[i]) for i, name in enumerate(names)
            },
            per_server_request_rates={
                name: float(per_server[i]) for i, name in enumerate(names)
            },
            utilizations={
                name: float(utilizations[i]) for i, name in enumerate(names)
            },
            waiting_times={
                name: float(waits[i]) for i, name in enumerate(names)
            },
            throughput=self.max_sustainable_throughput(configuration),
        )
