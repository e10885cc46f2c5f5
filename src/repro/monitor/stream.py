"""Streaming calibration: audit records in, one at a time, estimates out.

The paper's Section 7 tool loop (monitor -> calibrate -> evaluate ->
recommend) derives model parameters "from audit trails of previous
workflow executions" (§7.1) and wants them from a *running* system.
This module is the one calibrator of that loop: a
:class:`StreamingCalibrator` consumes audit rows (or
:class:`~repro.monitor.audit.StateVisitRecord` /
:class:`~repro.monitor.audit.ServiceRequestRecord` /
:class:`~repro.monitor.audit.InstanceRecord` objects) one at a time and
maintains the sufficient statistics of every estimate:

* online transition counts (maximum-likelihood probabilities on query);
* Welford residence-time, turnaround, and service-time moments
  (:class:`~repro.sim.statistics.RunningStats`);
* cumulative and *windowed* arrival-rate estimation (a sliding window
  of instance completions, for drift-sensitive rate tracking).

Each record category updates its own accumulators, so a whole trail
and a live feed of the same records (in per-category order) give the
same estimates, bit for bit: ``repro monitor``,
``batch_recommendation`` and ``repro serve`` all calibrate through
:meth:`StreamingCalibrator.observe_row`.  ``tests/monitor/test_stream.py``
checks the estimates against an independent whole-trail oracle.

The estimator outputs are plain dictionaries and floats
(model-agnostic, in the spirit of the probabilistic-workflow-net line
of work), so any backend — the CTMC pipeline, a future workflow-net
evaluator, or the drift detectors in :mod:`repro.monitor.drift` — can
consume them.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Iterable

from repro import obs
from repro.core.workflow_model import WorkflowDefinition, WorkflowState
from repro.exceptions import ValidationError
from repro.monitor.audit import (
    INSTANCE,
    SERVICE_REQUEST,
    STATE_VISIT,
    TERMINATION,
    AuditRecord,
    AuditTrail,
    record_row,
)
from repro.sim.statistics import RunningStats

__all__ = ["ServiceTimeEstimate", "StreamingCalibrator"]

#: Schema identifier of :meth:`StreamingCalibrator.document`.
SCHEMA = "repro.monitor.stream/v1"


def entry(mapping: dict, key: Any, factory: Callable[[], Any]) -> Any:
    """``mapping[key]``, inserted from ``factory()`` on first use.

    Unlike ``mapping.setdefault(key, factory())`` it builds nothing for
    a key that is already present.  The streaming calibrator and the
    drift monitor build their accumulators with it.
    """
    value = mapping.get(key)
    if value is None:
        value = mapping[key] = factory()
    return value


def check_positive_finite(name: str, value: float) -> None:
    """Raise :class:`~repro.exceptions.ValidationError` unless ``value``
    is positive and at most the largest float.

    The check of every sliding window and of every observation period a
    document or model uses, given or defaulted to the observed span
    (which overflows to ``inf`` for timestamps about 3.4e308 apart);
    written so that NaN fails it.
    """
    if not 0.0 < value <= sys.float_info.max:
        raise ValidationError(
            f"{name} must be positive and finite, got {value!r}"
        )


@dataclass(frozen=True)
class ServiceTimeEstimate:
    """Estimated service-time moments of one server type."""

    server_type: str
    sample_count: int
    mean: float
    second_moment: float
    mean_waiting_time: float


class StreamingCalibrator:
    """The Section 7.1 estimators, updated one audit record at a time.

    Feed rows via :meth:`observe_rows` (records via
    :meth:`replay_records`, a whole trail via :meth:`replay`); query
    estimates at any time.  A query raises
    :class:`~repro.exceptions.ValidationError` while nothing it needs
    has been observed.

    ``window`` (positive and finite) bounds the sliding completion-time
    window used by :meth:`windowed_arrival_rate` (in simulation time
    units).
    """

    def __init__(self, window: float = 1_000.0) -> None:
        check_positive_finite("window", window)
        self.window = window
        self.records_seen = 0
        # workflow type -> state -> successor -> count, all insertion
        # ordered by first observation.
        self._departures: dict[str, dict[str, dict[str, int]]] = {}
        # workflow type -> state -> residence-time accumulator.
        self._residence: dict[str, dict[str, RunningStats]] = {}
        # workflow type -> turnaround accumulator over completions.
        self._turnaround: dict[str, RunningStats] = {}
        # workflow type -> completion count (the cumulative arrivals).
        self._completions: dict[str, int] = {}
        # workflow type -> recent completion times (windowed rate).
        self._completion_times: dict[str, deque[float]] = {}
        # server type -> service/waiting accumulators, insertion ordered
        # by first request.
        self._service: dict[str, RunningStats] = {}
        self._waiting: dict[str, RunningStats] = {}
        # instance id -> server type -> request count (load vectors).
        self._instance_requests: dict[int, dict[str, int]] = {}
        # workflow type -> ids of completed instances.
        self._completed_ids: dict[str, set[int]] = {}
        # Observed time span (for the default observation period).
        self._first_timestamp: float | None = None
        self._last_timestamp: float | None = None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def observe_row(self, kind: str, row: tuple) -> None:
        """Consume one validated audit row: the Section 7.1 updates.

        ``row`` holds a record's fields in record order (as
        :func:`~repro.monitor.persistence.parse_record_row` returns
        them); ``kind`` names its record type.  A state visit updates
        transition counts and residence-time moments, a service request
        service-time/waiting moments and per-instance loads, an
        instance turnaround moments and (windowed) arrival counts.
        Counts no ``monitor.stream.records``: the batch methods
        (:meth:`observe_rows` and the record adapters) do, once each.
        """
        if kind == STATE_VISIT:
            _, workflow_type, state, start, end, next_state = row
            successors = entry(
                entry(self._departures, workflow_type, dict), state, dict
            )
            successors[next_state] = successors.get(next_state, 0) + 1
            entry(
                entry(self._residence, workflow_type, dict),
                state,
                RunningStats,
            ).add(end - start)
        elif kind == SERVICE_REQUEST:
            server_type, _, start, started_at, end, instance_id = row
            entry(self._service, server_type, RunningStats).add(
                end - started_at
            )
            entry(self._waiting, server_type, RunningStats).add(
                started_at - start
            )
            if instance_id >= 0:
                counts = entry(self._instance_requests, instance_id, dict)
                counts[server_type] = counts.get(server_type, 0) + 1
        elif kind == INSTANCE:
            instance_id, workflow_type, start, end = row
            entry(self._turnaround, workflow_type, RunningStats).add(
                end - start
            )
            self._completions[workflow_type] = (
                self._completions.get(workflow_type, 0) + 1
            )
            times = entry(self._completion_times, workflow_type, deque)
            times.append(end)
            cutoff = end - self.window
            while times and times[0] <= cutoff:
                times.popleft()
            entry(self._completed_ids, workflow_type, set).add(instance_id)
        else:
            raise ValidationError(f"unknown audit record kind {kind!r}")
        first = self._first_timestamp
        if first is None or start < first:
            self._first_timestamp = start
        last = self._last_timestamp
        if last is None or end > last:
            self._last_timestamp = end
        self.records_seen += 1

    def observe_rows(self, rows: Iterable[tuple[str, tuple]]) -> int:
        """Consume ``(kind, row)`` pairs; returns how many.

        Counts them in ``monitor.stream.records`` once, also when a row
        raises midway (then the rows consumed before it).
        """
        before = self.records_seen
        observe_row = self.observe_row
        try:
            for kind, row in rows:
                observe_row(kind, row)
        finally:
            count = self.records_seen - before
            if count:
                obs.count("monitor.stream.records", count)
        return count

    def replay(self, trail: AuditTrail) -> None:
        """Feed a whole trail: state visits, then service requests, then
        instances, each category in trail order.

        The categories update disjoint accumulators, so any interleaving
        that preserves per-category order — e.g. a live feed or a JSONL
        file — gives the same estimates, bit for bit.
        """
        self.replay_records(
            chain(trail.state_visits, trail.service_requests, trail.instances)
        )

    def replay_records(self, records: Iterable[AuditRecord]) -> int:
        """Feed an arbitrary record stream; returns the record count.

        The record companion of :meth:`observe_rows`, typically fed from
        :func:`repro.monitor.persistence.iter_trail_records`.
        """
        return self.observe_rows(map(record_row, records))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def workflow_types(self) -> frozenset[str]:
        """All workflow type names observed so far."""
        return frozenset(self._departures) | frozenset(self._completions)

    def server_types(self) -> frozenset[str]:
        """All server type names observed so far."""
        return frozenset(self._service)

    @property
    def observed_span(self) -> float:
        """Width of the observed time window (0 before any record)."""
        if self._first_timestamp is None or self._last_timestamp is None:
            return 0.0
        return self._last_timestamp - self._first_timestamp

    @property
    def completed_instances(self) -> int:
        """Completed instances observed so far, over all workflow types."""
        return sum(self._completions.values())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def transition_probabilities(
        self, workflow_type: str
    ) -> dict[tuple[str, str], float]:
        """Maximum-likelihood transition probabilities observed so far.

        For every observed state, the probability of a successor is its
        observed frequency among departures from that state.
        Transitions into the termination marker are omitted (the model
        layer adds the absorbing transition itself).
        """
        departures = self._departures.get(workflow_type)
        if not departures:
            raise ValidationError(
                f"no state visits of workflow type {workflow_type!r} "
                f"observed"
            )
        probabilities: dict[tuple[str, str], float] = {}
        for state, successors in departures.items():
            total = sum(successors.values())
            for next_state, count in successors.items():
                if next_state == TERMINATION:
                    continue
                probabilities[(state, next_state)] = count / total
        return probabilities

    def residence_times(self, workflow_type: str) -> dict[str, float]:
        """Sample-mean residence time per execution state so far."""
        stats = self._residence.get(workflow_type)
        if not stats:
            raise ValidationError(
                f"no state visits of workflow type {workflow_type!r} "
                f"observed"
            )
        return {state: collector.mean for state, collector in stats.items()}

    def turnaround_time(self, workflow_type: str) -> float:
        """Sample-mean turnaround time of completed instances so far."""
        stats = self._turnaround.get(workflow_type)
        if stats is None or not stats.count:
            raise ValidationError(
                f"no completed instances of workflow type "
                f"{workflow_type!r}"
            )
        return stats.mean

    def arrival_rate(
        self, workflow_type: str, observation_period: float
    ) -> float:
        """Completed arrivals per time unit over a fixed period."""
        if not observation_period > 0.0:
            raise ValidationError("observation period must be positive")
        return self._completions.get(workflow_type, 0) / observation_period

    def windowed_arrival_rate(self, workflow_type: str) -> float:
        """Completions per time unit inside the sliding window.

        The window ends at the newest completion seen for the type;
        returns 0 before any completion.  This is the estimator the
        drift detectors watch — a rate shift shows up within one window
        instead of being averaged away over the whole history.
        """
        times = self._completion_times.get(workflow_type)
        if not times:
            return 0.0
        newest = times[-1]
        cutoff = newest - self.window
        while times and times[0] <= cutoff:
            times.popleft()
        span = min(self.window, self.observed_span) or self.window
        return len(times) / span

    def service_times(self) -> dict[str, ServiceTimeEstimate]:
        """First two service-time moments per server type so far."""
        return {
            server_type: ServiceTimeEstimate(
                server_type=server_type,
                sample_count=collector.count,
                mean=collector.mean,
                second_moment=collector.second_moment,
                mean_waiting_time=self._waiting[server_type].mean,
            )
            for server_type, collector in self._service.items()
        }

    def requests_per_instance(self, workflow_type: str) -> dict[str, float]:
        """Estimate the load vector ``r_{x,t}`` from monitoring data (§4.2).

        "In practice, the entries of the load matrix have to be
        determined by collecting appropriate runtime statistics" — the
        mean number of service requests per *completed* instance of the
        workflow type, per server type.  Requests without instance
        attribution are ignored.
        """
        completed = self._completed_ids.get(workflow_type)
        if not completed:
            raise ValidationError(
                f"no completed instances of workflow type "
                f"{workflow_type!r}"
            )
        counts: dict[str, int] = {}
        for instance_id, per_type in self._instance_requests.items():
            if instance_id not in completed:
                continue
            for server_type, count in per_type.items():
                counts[server_type] = counts.get(server_type, 0) + count
        return {
            server_type: count / len(completed)
            for server_type, count in counts.items()
        }

    def flat_workflow(
        self,
        workflow_type: str,
        initial_state: str,
        reference: WorkflowDefinition | None = None,
    ) -> WorkflowDefinition:
        """Reconstruct a flat workflow definition from the stream.

        States observed in the stream become routing states carrying the
        estimated residence times (which *include* any subworkflow
        runtimes, so the reconstruction is behaviourally flat);
        transition probabilities are the observed frequencies.  When a
        ``reference`` definition is given, its activity attachments are
        preserved for states whose activities are known, so that load
        matrices survive recalibration.
        """
        probabilities = self.transition_probabilities(workflow_type)
        residence = self.residence_times(workflow_type)
        state_names = sorted(
            set(residence)
            | {target for (_, target) in probabilities}
        )
        if initial_state not in state_names:
            raise ValidationError(
                f"initial state {initial_state!r} never observed in trail"
            )
        states = []
        for name in state_names:
            activity = None
            if reference is not None:
                try:
                    activity = reference.state(name).activity
                except ValidationError:
                    activity = None
            duration = residence.get(name)
            if duration is None or duration <= 0.0:
                duration = 1e-6  # observed only as a target; near-instant
            states.append(
                WorkflowState(
                    name=name, activity=activity, mean_duration=duration
                )
            )
        return WorkflowDefinition(
            name=workflow_type,
            states=tuple(states),
            transitions=probabilities,
            initial_state=initial_state,
        )

    # ------------------------------------------------------------------
    # Snapshot state (service warm restart)
    # ------------------------------------------------------------------
    def export_state(self) -> dict[str, Any]:
        """JSON-serializable snapshot of every accumulator, exactly.

        The snapshot is a copy: records observed after the export leave
        it unchanged, so a search can restore it later on another
        thread.  Dictionaries are exported in insertion order (the order
        of every query result) and floats survive the JSON round-trip
        bit-for-bit, so a calibrator rebuilt by :meth:`restore_state`
        continues the stream exactly where this one stopped: feeding the
        remaining records produces estimates bitwise identical to never
        having snapshotted at all.  This is what lets the recommendation
        service snapshot on shutdown and warm-restart without replaying
        the whole audit history.
        """
        return {
            "schema": SCHEMA,
            "window": self.window,
            "records_seen": self.records_seen,
            "departures": {
                name: {
                    state: dict(successors)
                    for state, successors in per_state.items()
                }
                for name, per_state in self._departures.items()
            },
            "residence": {
                name: {
                    state: stats.export_state()
                    for state, stats in per_state.items()
                }
                for name, per_state in self._residence.items()
            },
            "turnaround": {
                name: stats.export_state()
                for name, stats in self._turnaround.items()
            },
            "completions": dict(self._completions),
            "completion_times": {
                name: list(times)
                for name, times in self._completion_times.items()
            },
            "service": {
                name: stats.export_state()
                for name, stats in self._service.items()
            },
            "waiting": {
                name: stats.export_state()
                for name, stats in self._waiting.items()
            },
            "instance_requests": {
                str(instance_id): dict(counts)
                for instance_id, counts in self._instance_requests.items()
            },
            "completed_ids": {
                name: sorted(ids)
                for name, ids in self._completed_ids.items()
            },
            "first_timestamp": self._first_timestamp,
            "last_timestamp": self._last_timestamp,
        }

    @classmethod
    def restore_state(cls, state: dict[str, Any]) -> "StreamingCalibrator":
        """Rebuild a calibrator from :meth:`export_state` output."""
        if state.get("schema") != SCHEMA:
            raise ValidationError(
                f"unknown calibrator snapshot schema {state.get('schema')!r}"
            )
        calibrator = cls(window=float(state["window"]))
        calibrator.records_seen = int(state["records_seen"])
        calibrator._departures = {
            name: {
                visited: {
                    successor: int(count)
                    for successor, count in successors.items()
                }
                for visited, successors in per_state.items()
            }
            for name, per_state in state["departures"].items()
        }
        calibrator._residence = {
            name: {
                visited: RunningStats.restore_state(stats)
                for visited, stats in per_state.items()
            }
            for name, per_state in state["residence"].items()
        }
        calibrator._turnaround = {
            name: RunningStats.restore_state(stats)
            for name, stats in state["turnaround"].items()
        }
        calibrator._completions = {
            name: int(count) for name, count in state["completions"].items()
        }
        calibrator._completion_times = {
            name: deque(float(value) for value in times)
            for name, times in state["completion_times"].items()
        }
        calibrator._service = {
            name: RunningStats.restore_state(stats)
            for name, stats in state["service"].items()
        }
        calibrator._waiting = {
            name: RunningStats.restore_state(stats)
            for name, stats in state["waiting"].items()
        }
        calibrator._instance_requests = {
            int(instance_id): {
                server: int(count) for server, count in counts.items()
            }
            for instance_id, counts in state["instance_requests"].items()
        }
        calibrator._completed_ids = {
            name: set(int(value) for value in ids)
            for name, ids in state["completed_ids"].items()
        }
        first = state["first_timestamp"]
        last = state["last_timestamp"]
        calibrator._first_timestamp = None if first is None else float(first)
        calibrator._last_timestamp = None if last is None else float(last)
        return calibrator

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def document(
        self, observation_period: float | None = None
    ) -> dict[str, Any]:
        """JSON-serializable snapshot of every current estimate.

        ``observation_period`` defaults to the observed time span; it
        feeds the cumulative arrival-rate estimates and must be positive
        and finite, except that a default span of 0 (no two distinct
        timestamps yet) leaves the arrival rates ``None``.  Quantities
        with no observations yet are ``None`` rather than errors — a
        monitoring endpoint reports what it has.
        """
        if observation_period is None:
            observation_period = self.observed_span
            if observation_period:
                check_positive_finite(
                    "observation period", observation_period
                )
        else:
            check_positive_finite("observation period", observation_period)
        workflows: dict[str, Any] = {}
        for name in sorted(self.workflow_types()):
            stats = self._turnaround.get(name)
            entry: dict[str, Any] = {
                "completed_instances": self._completions.get(name, 0),
                "turnaround_time": (
                    stats.mean if stats is not None and stats.count else None
                ),
                "arrival_rate": (
                    self.arrival_rate(name, observation_period)
                    if observation_period > 0.0
                    else None
                ),
                "windowed_arrival_rate": self.windowed_arrival_rate(name),
            }
            try:
                entry["transition_probabilities"] = {
                    f"{source}->{target}": probability
                    for (source, target), probability in sorted(
                        self.transition_probabilities(name).items()
                    )
                }
                entry["residence_times"] = dict(
                    sorted(self.residence_times(name).items())
                )
            except ValidationError:
                entry["transition_probabilities"] = {}
                entry["residence_times"] = {}
            try:
                entry["requests_per_instance"] = dict(
                    sorted(self.requests_per_instance(name).items())
                )
            except ValidationError:
                entry["requests_per_instance"] = {}
            workflows[name] = entry
        servers = {
            name: {
                "sample_count": estimate.sample_count,
                "mean_service_time": estimate.mean,
                "second_moment_service_time": estimate.second_moment,
                "mean_waiting_time": estimate.mean_waiting_time,
            }
            for name, estimate in sorted(self.service_times().items())
        }
        return {
            "schema": SCHEMA,
            "records_seen": self.records_seen,
            "observation_period": observation_period,
            "window": self.window,
            "workflow_types": workflows,
            "server_types": servers,
        }
