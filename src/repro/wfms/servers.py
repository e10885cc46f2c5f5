"""Simulated servers: FCFS replicas with failures and repairs.

Each server replica is a single FCFS station (matching the M/G/1
abstraction of Section 4.4) that can *fail*: a failure preempts the
request in service (it is re-served in full after repair — retry
semantics) and halts the queue until the repair completes.  Failure and
repair processes are injected per replica with the type's
``lambda_x`` / ``mu_x`` rates, mirroring the availability model of
Section 5.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from repro.core.model_types import ServerTypeSpec
from repro.exceptions import ValidationError
from repro.monitor.audit import AuditTrail
from repro.sim.distributions import Distribution, Exponential
from repro.sim.engine import EventHandle, Simulator
from repro.sim.statistics import RunningStats, TimeWeightedStats


def _ignore(*_values: float) -> None:
    """A statistics update after :meth:`Server.stop_measuring`."""


@dataclass
class ServerStatistics:
    """Measurement collectors of one server replica."""

    waiting_times: RunningStats = field(default_factory=RunningStats)
    service_times: RunningStats = field(default_factory=RunningStats)
    busy: TimeWeightedStats = field(
        default_factory=lambda: TimeWeightedStats(0.0)
    )
    up: TimeWeightedStats = field(
        default_factory=lambda: TimeWeightedStats(1.0)
    )

    @property
    def completed_requests(self) -> int:
        """Requests served to completion: one waiting time each."""
        return self.waiting_times.count


class Server:
    """One replica of a server type: FCFS queue, one service unit.

    Requests travel as ``(submitted at, instance id)`` pairs.  A
    request reaching an idle running replica starts without passing
    the queue; a completion updates the statistics through bound
    methods, appends its audit row (a
    :class:`~repro.monitor.audit.ServiceRequestRecord` field tuple) and
    starts the next queued request.
    """

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        spec: ServerTypeSpec,
        service_distribution: Distribution,
        rng: random.Random,
        trail: AuditTrail | None = None,
    ) -> None:
        self.simulator = simulator
        self.name = name
        self.spec = spec
        self.service_distribution = service_distribution
        # Service times are drawn on every request: compile the sampler
        # once instead of re-resolving distribution parameters per draw
        # (the closure consumes the rng identically to ``sample``).
        self._sample_service = service_distribution.sampler(rng)
        self._schedule = simulator.schedule
        self._rng = rng
        self._append_row = (
            trail.service_request_rows.append if trail is not None else None
        )
        self._queue: deque[tuple[float, int]] = deque()
        #: The request in service, ``(submitted at, instance id)``.
        self._current: tuple[float, int] | None = None
        self._completion: EventHandle | None = None
        self.is_up = True
        #: The pool routing to this replica; it counts the replicas down.
        self._pool = None
        self._bind_statistics(
            ServerStatistics(
                busy=TimeWeightedStats(0.0, simulator.now),
                up=TimeWeightedStats(1.0, simulator.now),
            )
        )

    def _bind_statistics(self, statistics: ServerStatistics) -> None:
        self.statistics = statistics
        self._busy_update = statistics.busy.update
        self._add_waiting = statistics.waiting_times.add
        self._add_service = statistics.service_times.add

    def stop_measuring(self) -> None:
        """Freeze the waiting, service and busy statistics as they are.

        The run calls this at the window's end, after its last reading:
        the replica keeps serving (and recording trail rows) through the
        drain, but none of these statistics, nor ``completed_requests``,
        counts the drain's requests.
        """
        self._busy_update = self._add_waiting = self._add_service = _ignore

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Requests waiting (excluding the one in service)."""
        return len(self._queue)

    @property
    def is_busy(self) -> bool:
        """Whether a request is currently in service."""
        return self._current is not None

    def submit(self, submitted_at: float, instance_id: int) -> None:
        """Accept a request that instance ``instance_id`` submitted.

        Service starts at once when the replica is idle and up; else
        the request queues.  ``submitted_at`` is when the request was
        first routed, so a parked or preempted request keeps its wait.
        """
        # An idle running replica has an empty queue: start right away.
        if self._current is not None or not self.is_up:
            self._queue.append((submitted_at, instance_id))
            return
        now = self.simulator.now
        self._current = (submitted_at, instance_id)
        self._busy_update(1.0, now)
        service_time = self._sample_service()
        self._completion = self._schedule(
            service_time, self._complete,
            submitted_at, instance_id, now, service_time,
        )

    def _complete(
        self,
        submitted_at: float,
        instance_id: int,
        started_at: float,
        service_time: float,
    ) -> None:
        now = self.simulator.now
        self._busy_update(0.0, now)
        self._add_waiting(started_at - submitted_at)
        self._add_service(service_time)
        append_row = self._append_row
        if append_row is not None:
            append_row((
                self.spec.name, self.name,
                submitted_at, started_at, now, instance_id,
            ))
        self._current = None
        self._completion = None
        if self._queue:
            # A pending completion means the replica is up.
            self.submit(*self._queue.popleft())

    # ------------------------------------------------------------------
    # Failure / repair
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Take the replica down; the request in service is re-queued."""
        if not self.is_up:
            return
        self.is_up = False
        if self._pool is not None:
            self._pool._down += 1
        now = self.simulator.now
        self.statistics.up.update(0.0, now)
        if self._completion is not None:
            self._completion.cancel()
            self._completion = None
        if self._current is not None:
            # Retry semantics: the preempted request returns to the head
            # of the queue and is served from scratch after the repair.
            self._queue.appendleft(self._current)
            self._current = None
            self._busy_update(0.0, now)

    def repair(self) -> None:
        """Bring the replica back up and resume service."""
        if self.is_up:
            return
        self.is_up = True
        if self._pool is not None:
            self._pool._down -= 1
        self.statistics.up.update(1.0, self.simulator.now)
        if self._queue:
            self.submit(*self._queue.popleft())

    def reset_statistics(self) -> None:
        """Drop warm-up measurements; time-weighted stats restart now."""
        now = self.simulator.now
        self._bind_statistics(
            ServerStatistics(
                busy=TimeWeightedStats(
                    1.0 if self.is_busy else 0.0, now
                ),
                up=TimeWeightedStats(1.0 if self.is_up else 0.0, now),
            )
        )


class FailureInjector:
    """Drives the failure/repair process of one server replica.

    Times to failure are exponential with the spec's ``lambda_x`` (only
    while the server is up, matching the availability CTMC in which only
    running replicas fail); repair durations are exponential with mean
    ``1/mu_x``.
    """

    def __init__(
        self,
        simulator: Simulator,
        server: Server,
        rng: random.Random,
        on_failure=None,
        on_repair=None,
    ) -> None:
        spec = server.spec
        if spec.failure_rate <= 0.0:
            raise ValidationError(
                f"{server.name}: failure injection needs a positive "
                "failure rate"
            )
        self.simulator = simulator
        self.server = server
        self._rng = rng
        self._time_to_failure = Exponential(1.0 / spec.failure_rate)
        self._repair_distribution = Exponential(spec.mean_time_to_repair)
        self._sample_time_to_failure = self._time_to_failure.sampler(rng)
        self._sample_repair = self._repair_distribution.sampler(rng)
        self._on_failure = on_failure
        self._on_repair = on_repair

    def start(self) -> None:
        """Arm the first failure timer."""
        self._schedule_failure()

    def _schedule_failure(self) -> None:
        delay = self._sample_time_to_failure()
        self.simulator.post(delay, self._fire_failure)

    def _fire_failure(self) -> None:
        self.server.fail()
        if self._on_failure is not None:
            self._on_failure(self.server)
        repair_time = self._sample_repair()
        self.simulator.post(repair_time, self._fire_repair)

    def _fire_repair(self) -> None:
        self.server.repair()
        if self._on_repair is not None:
            self._on_repair(self.server)
        self._schedule_failure()
