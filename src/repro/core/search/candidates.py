"""Candidate enumeration for the configuration search (Section 7.2).

Inside the search a candidate is a tuple of replica counts in
server-type order (:class:`ReplicaLattice`); a
:class:`~repro.core.performance.SystemConfiguration` is built only for
a candidate that is handed to the engine for assessment.  The exhaustive
and branch-and-bound strategies consume admissible configurations in
non-decreasing cost order.  The enumeration here is *lazy*: a best-first
expansion over the replica-count lattice that yields candidates straight
from a heap, so the searches start evaluating immediately and memory
stays proportional to the frontier — not to the full cartesian product
of replica counts, which the eager predecessor of this module
materialized and sorted up front.
"""

from __future__ import annotations

import heapq
import math
import operator
from typing import TYPE_CHECKING, Iterator

from repro.core.model_types import ServerTypeIndex
from repro.core.performance import SystemConfiguration
from repro.core.search.types import ReplicationConstraints
from repro.exceptions import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.core.goals import GoalEvaluator, PerformabilityGoals

#: A candidate inside the search: replica counts in server-type order.
Counts = tuple[int, ...]


class ReplicaLattice:
    """The admissible replica-count tuples of one landscape and bounds.

    Every method reproduces, on a count tuple, what the search reads
    from the equivalent :class:`SystemConfiguration`: :meth:`cost` does
    the float operations of :meth:`SystemConfiguration.cost` in the
    same order, and :meth:`order_key` is the candidate order
    ``(cost, total_servers, str(configuration))``.  The string
    tie-break is kept although it sorts ``x=10`` before ``x=2``:
    equal costs are common (every type of both bundled landscapes costs
    1.0), and the order it fixes is the order every document and golden
    records.
    """

    def __init__(
        self, server_types: ServerTypeIndex, constraints: ReplicationConstraints
    ) -> None:
        names = server_types.names
        self.names = names
        self.costs = tuple(spec.cost for spec in server_types.specs)
        self.lower = tuple(constraints.lower_bound(name) for name in names)
        self.upper = tuple(constraints.upper_bound(name) for name in names)
        self.max_total_servers = constraints.max_total_servers
        #: Type indices in name order, the order of ``str(configuration)``.
        self.by_name = sorted(range(len(names)), key=names.__getitem__)
        # ``name=count`` text fragments, per type, by count.
        self._fragments: list[dict[int, str]] = [{} for _ in names]

    def cost(self, counts: Counts) -> float:
        """:meth:`SystemConfiguration.cost` of these counts, bit for bit."""
        return float(sum(map(operator.mul, counts, self.costs)))

    def text(self, counts: Counts) -> str:
        """``str()`` of the configuration of these counts."""
        names, fragments = self.names, self._fragments
        parts = []
        for i in self.by_name:
            count = counts[i]
            fragment = fragments[i].get(count)
            if fragment is None:
                fragment = fragments[i][count] = f"{names[i]}={count}"
            parts.append(fragment)
        return "(" + ", ".join(parts) + ")"

    def order_key(self, counts: Counts) -> tuple[float, int, str]:
        """The candidate order ``(cost, total_servers, str(configuration))``."""
        return (self.cost(counts), sum(counts), self.text(counts))

    def name_key(self, counts: Counts) -> Counts:
        """Counts in name order; orders as ``sorted(replicas.items())``."""
        return tuple([counts[i] for i in self.by_name])

    def configuration(self, counts: Counts) -> SystemConfiguration:
        """The validated configuration of these counts."""
        return SystemConfiguration(dict(zip(self.names, counts)))

    def counts(self, configuration: SystemConfiguration) -> Counts:
        """The count tuple of a configuration of this landscape."""
        return tuple([configuration.count(name) for name in self.names])

    def by_cost(self) -> Iterator[Counts]:
        """All admissible count tuples in candidate order, lazily.

        The lattice is expanded best-first from the lower-bound corner.
        Each tuple is generated along exactly one path — replicas are
        only ever added at type indices at or after the last index
        incremented — so no visited-set is needed and memory stays
        bounded by the heap frontier.  Every proper ancestor of an
        admissible tuple has a smaller total and is admissible itself,
        so a node at ``max_total_servers``, whose children would all
        exceed it, is a leaf.
        """
        lower, upper = self.lower, self.upper
        if (any(low > high for low, high in zip(lower, upper))
                or sum(lower) > self.max_total_servers):
            return
        order_key = self.order_key
        frontier = [(*order_key(lower), lower, 0)]
        while frontier:
            _, total, _, counts, first_index = heapq.heappop(frontier)
            yield counts
            if total == self.max_total_servers:
                continue
            for j in range(first_index, len(counts)):
                if counts[j] < upper[j]:
                    child = counts[:j] + (counts[j] + 1,) + counts[j + 1:]
                    heapq.heappush(frontier, (*order_key(child), child, j))


def initial_configuration(
    server_types: ServerTypeIndex, constraints: ReplicationConstraints
) -> SystemConfiguration:
    """The minimal admissible configuration (lower-bound corner)."""
    return SystemConfiguration(
        {
            name: constraints.lower_bound(name)
            for name in server_types.names
        }
    )


def configurations_by_cost(
    server_types: ServerTypeIndex, constraints: ReplicationConstraints
) -> Iterator[SystemConfiguration]:
    """All admissible configurations in non-decreasing cost order, lazily.

    Order: ``(cost, total_servers, str(configuration))`` — a total order
    over distinct configurations, identical to the eager sort this
    generator replaced, so consumers see the exact same sequence.  The
    heap holds count tuples (:meth:`ReplicaLattice.by_cost`); a
    configuration is built only for each entry yielded.
    """
    lattice = ReplicaLattice(server_types, constraints)
    for counts in lattice.by_cost():
        yield lattice.configuration(counts)


def per_type_lower_bounds(
    evaluator: "GoalEvaluator",
    goals: "PerformabilityGoals",
    constraints: ReplicationConstraints,
) -> dict[str, int]:
    """Per-type replica lower bounds implied by the goals.

    Both metrics are monotone in the replication degree, so a
    configuration can only be feasible if every type alone satisfies the
    *necessary* conditions: (i) the type's own unavailability must not
    already exceed the system goal (the system is down whenever the type
    is fully down), and (ii) the failure-free waiting time — a lower
    bound on the performability waiting time — must meet the threshold,
    which in particular requires an unsaturated replica pool.  These
    bounds let branch-and-bound skip the infeasible corner of the
    search space without evaluating it.
    """
    from repro.core.availability import (
        ServerPoolAvailability,
        minimum_replicas_for_availability,
    )
    from repro.queueing import mg1_mean_waiting_time

    totals = evaluator.performance.total_request_rates()
    bounds: dict[str, int] = {}
    for i, spec in enumerate(evaluator.server_types.specs):
        bound = constraints.lower_bound(spec.name)
        upper = constraints.upper_bound(spec.name)

        availability_target = min(
            goals.max_unavailability
            if goals.max_unavailability is not None else math.inf,
            goals.type_unavailability_threshold(spec.name),
        )
        if math.isfinite(availability_target) and spec.failure_rate > 0.0:
            single = ServerPoolAvailability(spec, 1, evaluator.repair_policy)
            if single.unavailability > availability_target:
                try:
                    bound = max(
                        bound,
                        minimum_replicas_for_availability(
                            spec, availability_target,
                            policy=evaluator.repair_policy,
                            max_replicas=upper,
                        ),
                    )
                except ValidationError:
                    bound = upper + 1  # provably infeasible within bounds

        waiting_target = goals.waiting_time_threshold(spec.name)
        if math.isfinite(waiting_target) and totals[i] > 0.0:
            count = bound
            while count <= upper:
                waiting = mg1_mean_waiting_time(
                    totals[i] / count,
                    spec.mean_service_time,
                    spec.second_moment_service_time,
                )
                if waiting <= waiting_target:
                    break
                count += 1
            bound = count
        bounds[spec.name] = bound
    return bounds
