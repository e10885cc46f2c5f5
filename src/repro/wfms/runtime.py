"""The simulated distributed WFMS.

This is the measurement substrate standing in for the real products and
prototypes the authors benchmarked: a discrete-event simulation of the
architectural model of Section 2.  Workflow instances arrive as Poisson
processes, execute their state charts through the interpreter of
:mod:`repro.spec.interpreter` (probabilistic branch resolution realizes
exactly the annotated branching distribution), and every activity issues
its Figure-1-style service requests to the replicated server pools, where
they queue, get served, and are recorded into the audit trail.  Replicas
fail and are repaired with the Section 5 rates.

The run produces a :class:`~repro.wfms.measurement.WFMSMeasurementReport`
directly comparable with the analytic predictions, plus (unless
``record_trail=False``) an :class:`~repro.monitor.audit.AuditTrail` the
calibration component can re-estimate model parameters from.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Mapping

from repro import obs
from repro.core.model_types import ServerTypeIndex
from repro.core.performance import SystemConfiguration
from repro.exceptions import ValidationError
from repro.monitor.audit import TERMINATION, AuditTrail
from repro.sim.distributions import (
    Deterministic,
    Distribution,
    Erlang,
    Exponential,
    distribution_for_moments,
)
from repro.sim.engine import Simulator
from repro.sim.fastdraw import FastRng
from repro.sim.seeding import derive_rng
from repro.sim.statistics import RunningStats, TimeWeightedStats
from repro.spec.interpreter import (
    ActiveState,
    InterpreterListener,
    ProbabilisticResolver,
    StateChartInterpreter,
    StatePath,
)
from repro.spec.statechart import StateChart
from repro.spec.translator import (
    DEFAULT_ROUTING_DURATION,
    ActivityRegistry,
)
from repro.wfms.measurement import (
    ServerTypeMeasurement,
    WFMSMeasurementReport,
    WorkflowTypeMeasurement,
    pooled_ci95,
    pooled_mean,
)
from repro.wfms.fastsink import FastServer, FastServerPool
from repro.wfms.routing import RoutingPolicy, ServerPool
from repro.wfms.servers import FailureInjector, Server

#: Valid values of the ``rng_mode`` simulation parameter.
RNG_MODES = ("exact", "fast")


class DurationSampling(enum.Enum):
    """Distribution family for activity/state durations.

    ``EXPONENTIAL`` matches the CTMC's residence-time assumption exactly;
    the other families probe the analytic model's robustness against the
    Markov assumption being violated.
    """

    EXPONENTIAL = "exponential"
    DETERMINISTIC = "deterministic"
    ERLANG_2 = "erlang2"


@dataclass(frozen=True)
class SimulatedWorkflowType:
    """One workflow type offered to the simulated WFMS."""

    chart: StateChart
    activities: ActivityRegistry
    arrival_rate: float

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0.0:
            raise ValidationError(
                f"workflow {self.chart.name}: arrival rate must be positive"
            )


class SimulatedWFMS:
    """A running, replicated, failure-prone WFMS in simulation.

    ``record_trail=False`` builds no audit trail: the servers get no
    trail and the instances append no visit or instance rows, so the
    report's trail stays empty while every simulated event and every
    measurement stay the same.  Campaigns, which keep only the
    measurements, run this way.  Server statistics (waiting, service
    and busy time) end at the measurement window's end either way.
    """

    def __init__(
        self,
        server_types: ServerTypeIndex,
        configuration: SystemConfiguration,
        workflow_types: list[SimulatedWorkflowType],
        seed: int = 0,
        routing_policy: RoutingPolicy = RoutingPolicy.HASH,
        duration_sampling: DurationSampling = DurationSampling.EXPONENTIAL,
        inject_failures: bool = True,
        default_routing_duration: float = DEFAULT_ROUTING_DURATION,
        organization=None,
        activity_roles: Mapping[str, str] | None = None,
        worklist_policy=None,
        rng_mode: str = "exact",
        record_trail: bool = True,
    ) -> None:
        if not workflow_types:
            raise ValidationError("at least one workflow type is required")
        names = [wft.chart.name for wft in workflow_types]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate workflow types in {names}")
        if rng_mode not in RNG_MODES:
            raise ValidationError(
                f"rng_mode must be one of {RNG_MODES}, got {rng_mode!r}"
            )
        if rng_mode == "fast" and organization is not None:
            raise ValidationError(
                "rng_mode='fast' does not support worklist management; "
                "use the exact mode for organizational experiments"
            )
        self.server_types = server_types
        self.configuration = configuration
        self.workflow_types = list(workflow_types)
        self.duration_sampling = duration_sampling
        self.default_routing_duration = default_routing_duration
        self.rng_mode = rng_mode
        fast = self._fast_mode = rng_mode == "fast"

        self.simulator = Simulator()
        self.trail = AuditTrail()
        server_trail = self.trail if record_trail else None
        self._runtime_type = (
            _RecordingInstanceRuntime if record_trail else _InstanceRuntime
        )
        # Independent random streams keep the comparison across runs with
        # different configurations as tight as possible.  Each stream is
        # seeded from a hash of (seed, stream name) — never seed+offset,
        # which would make replications with adjacent master seeds share
        # identical sub-streams (see repro.sim.seeding).  Fast mode swaps
        # in block-drawing FastRng streams under the same names (service
        # and failure streams become per-replica so the variates a
        # replica consumes are independent of replay flush boundaries).
        self._fast_rngs: list[FastRng] = []
        if fast:

            def fast_rng(*scope) -> FastRng:
                rng = FastRng(seed, *scope)
                self._fast_rngs.append(rng)
                return rng

            self._arrival_rng = fast_rng("arrival")
            self._branch_rng = fast_rng("branch")
            self._duration_rng = fast_rng("duration")
            self._load_rng = fast_rng("load")
            # Bound u01-stream methods for the request-issue hot path.
            load_u01 = self._load_rng.u01_stream()
            self._load_u01_next = load_u01.next
            self._load_u01_take = load_u01.take
        else:
            self._arrival_rng = derive_rng(seed, "arrival")
            self._branch_rng = derive_rng(seed, "branch")
            self._duration_rng = derive_rng(seed, "duration")
            self._service_rng = derive_rng(seed, "service")
            self._failure_rng = derive_rng(seed, "failure")
            self._load_rng = derive_rng(seed, "load")

        self.pools: dict[str, ServerPool | FastServerPool] = {}
        self._injectors: list[FailureInjector] = []
        for spec in server_types.specs:
            count = configuration.count(spec.name)
            if count < 1:
                raise ValidationError(
                    f"configuration must include at least one replica of "
                    f"{spec.name}"
                )
            service_distribution = distribution_for_moments(
                spec.mean_service_time, spec.second_moment_service_time
            )
            if fast:
                servers = [
                    FastServer(
                        simulator=self.simulator,
                        name=f"{spec.name}#{replica}",
                        spec=spec,
                        service_distribution=service_distribution,
                        rng=fast_rng("service", f"{spec.name}#{replica}"),
                        trail=server_trail,
                    )
                    for replica in range(count)
                ]
                pool = FastServerPool(
                    simulator=self.simulator,
                    spec=spec,
                    servers=servers,
                    policy=routing_policy,
                    rng=fast_rng("routing", spec.name),
                )
            else:
                servers = [
                    Server(
                        simulator=self.simulator,
                        name=f"{spec.name}#{replica}",
                        spec=spec,
                        service_distribution=service_distribution,
                        rng=self._service_rng,
                        trail=server_trail,
                    )
                    for replica in range(count)
                ]
                pool = ServerPool(
                    simulator=self.simulator,
                    spec=spec,
                    servers=servers,
                    policy=routing_policy,
                    rng=self._load_rng,
                )
            self.pools[spec.name] = pool
            if inject_failures and spec.failure_rate > 0.0:
                for server in servers:
                    self._injectors.append(
                        FailureInjector(
                            simulator=self.simulator,
                            server=server,
                            rng=(
                                fast_rng("failure", server.name)
                                if fast
                                else self._failure_rng
                            ),
                            on_failure=self._on_server_failure,
                            on_repair=self._on_server_repair,
                        )
                    )

        # Optional worklist management for interactive activities: when
        # an organization is supplied, interactive activities compete for
        # actors instead of completing after their nominal duration —
        # surfacing the human-contention effect the paper's analytic
        # models deliberately exclude.
        self.worklist = None
        if organization is not None:
            from repro.org.worklist import (
                AssignmentPolicy,
                SimulatedWorklist,
            )

            self.worklist = SimulatedWorklist(
                simulator=self.simulator,
                organization=organization,
                activity_roles=activity_roles,
                policy=(worklist_policy if worklist_policy is not None
                        else AssignmentPolicy.LEAST_LOADED),
                rng=derive_rng(seed, "worklist"),
            )

        # Hot-path precomputation: the duration-sampler table (one
        # compiled closure per distinct mean, prepopulated from every
        # activity and chart state so steady-state runs never miss), the
        # per-type request sinks (one dict lookup per activity and type),
        # the shared branch resolver, and the bound arrival sampler.
        self._duration_samplers: dict[float, Callable[[], float]] = {}
        for workflow_type in self.workflow_types:
            for activity in workflow_type.activities.activities.values():
                self._duration_sampler(activity.mean_duration)
            for chart in workflow_type.chart.walk_charts():
                for state in chart.states:
                    if state.mean_duration is not None:
                        self._duration_sampler(state.mean_duration)
        self._duration_sampler(self.default_routing_duration)
        if fast:
            # Direct append handles into each pool's arrival buffers:
            # replay_until() empties the lists with clear(), never
            # replaces them, so the bound methods stay valid.
            self._pool_buffers = {
                name: (
                    pool._pending_times.append,
                    pool._pending_ids.append,
                )
                for name, pool in self.pools.items()
            }
        else:
            # Each request's calendar event calls its pool directly.
            self._pool_arrive = {
                name: pool.arrive for name, pool in self.pools.items()
            }
        self._resolver = ProbabilisticResolver(self._branch_rng)
        self._arrival_expovariate = self._arrival_rng.expovariate

        # Per-event observability is batched: plain-int tallies here,
        # flushed into the obs counters once per run (tracing events
        # stay per-instance but are guarded by one enabled check).
        self._obs_on = obs.is_enabled()
        self._obs_instances_started = 0
        self._obs_instances_completed = 0
        self._obs_requests_submitted = 0
        self._obs_arrivals_flushed = 0
        self._obs_blocks_flushed = 0
        self._obs_variates_flushed = 0

        self._next_instance_id = 0
        self._active_instances = 0
        self._turnarounds: dict[str, RunningStats] = {
            name: RunningStats() for name in names
        }
        self._completed: dict[str, int] = {name: 0 for name in names}
        self._system_up = TimeWeightedStats(1.0, 0.0)
        self._collect_from = 0.0
        self._collect_until = math.inf
        self._tracked_open = 0
        self._draining = False
        self._started = False

    # ------------------------------------------------------------------
    # Failure bookkeeping
    # ------------------------------------------------------------------
    def _on_server_state_change(self, server: Server) -> None:
        pool = self.pools[server.spec.name]
        pool.notify_state_change()
        if not self._draining:
            # The availability window is closed at the end of the
            # measurement period; drain-phase changes only affect routing.
            self._system_up.update(
                1.0 if all(p.any_up for p in self.pools.values()) else 0.0,
                self.simulator.now,
            )

    def _on_server_failure(self, server: Server) -> None:
        if self._obs_on:
            obs.count("wfms.server_failures")
            obs.event(
                "server_failure", t=self.simulator.now, server=server.name
            )
        self._on_server_state_change(server)

    def _on_server_repair(self, server: Server) -> None:
        if self._obs_on:
            obs.count("wfms.server_repairs")
            obs.event(
                "server_repair", t=self.simulator.now, server=server.name
            )
        self._on_server_state_change(server)

    # ------------------------------------------------------------------
    # Workflow arrivals and execution
    # ------------------------------------------------------------------
    def _schedule_arrival(self, workflow_type: SimulatedWorkflowType) -> None:
        delay = self._arrival_expovariate(workflow_type.arrival_rate)
        self.simulator.post(delay, self._arrive, workflow_type)

    def _arrive(self, workflow_type: SimulatedWorkflowType) -> None:
        self._start_instance(workflow_type)
        self._schedule_arrival(workflow_type)

    def _in_window(self, started_at: float) -> bool:
        """Whether an instance started inside the measurement window."""
        return self._collect_from <= started_at < self._collect_until

    def _start_instance(self, workflow_type: SimulatedWorkflowType) -> None:
        instance_id = self._next_instance_id
        self._next_instance_id = instance_id + 1
        self._active_instances += 1
        now = self.simulator.now
        if self._collect_from <= now < self._collect_until:
            self._tracked_open += 1
        self._obs_instances_started += 1
        if self._obs_on:
            obs.event(
                "instance_started",
                t=now,
                instance=instance_id,
                workflow=workflow_type.chart.name,
            )
        self._runtime_type(self, workflow_type, instance_id).start()

    def _duration_sampler(self, mean: float) -> Callable[[], float]:
        """The compiled duration sampler for ``mean`` (built on demand).

        Samplers are keyed by the mean and bound to the duration RNG, so
        the draw stream is identical to constructing a fresh distribution
        per sample — minus the per-sample dataclass allocation.
        """
        sampler = self._duration_samplers.get(mean)
        if sampler is None:
            family = self.duration_sampling
            if family is DurationSampling.EXPONENTIAL:
                distribution: Distribution = Exponential(mean)
            elif family is DurationSampling.DETERMINISTIC:
                distribution = Deterministic(mean)
            else:
                distribution = Erlang(2, mean)
            sampler = distribution.sampler(self._duration_rng)
            self._duration_samplers[mean] = sampler
        return sampler

    def sample_duration(self, mean: float) -> float:
        """Sample a state/activity duration of the configured family."""
        sampler = self._duration_samplers.get(mean)
        if sampler is None:
            sampler = self._duration_sampler(mean)
        return sampler()

    def integer_load(self, expected_requests: float) -> int:
        """Randomized rounding: the mean equals the fractional load."""
        whole = int(math.floor(expected_requests))
        fraction = expected_requests - whole
        if fraction > 0.0 and self._load_rng.random() < fraction:
            whole += 1
        return whole

    # ------------------------------------------------------------------
    # Running and reporting
    # ------------------------------------------------------------------
    #: Safety bound of the drain phase, as a multiple of the measured
    #: duration: a workflow whose turnaround tail exceeds this is broken.
    DRAIN_LIMIT_FACTOR = 50.0

    def run(
        self, duration: float, warmup: float = 0.0
    ) -> WFMSMeasurementReport:
        """Run for ``warmup + duration`` and report the post-warm-up window.

        Instances are counted by *start* time: every instance started
        inside the measurement window is followed to completion (the
        simulation drains past the window end until the cohort is
        complete), so turnaround statistics carry no end-of-run
        censoring bias — long-running instances are never silently
        dropped.  Server utilization, waiting, and availability are
        measured over the window itself: the servers' statistics end at
        the window's end, and the drain's requests are still simulated
        (and recorded in the trail, if any) but counted in no waiting,
        service or busy statistic.
        """
        if duration <= 0.0:
            raise ValidationError("duration must be positive")
        if warmup < 0.0:
            raise ValidationError("warmup must be >= 0")
        if self._started:
            raise ValidationError("this WFMS instance was already run")
        self._started = True
        self._obs_on = obs.is_enabled()
        with obs.span(
            "wfms.run", duration=duration, warmup=warmup
        ) as span:
            try:
                self._collect_from = warmup
                self._collect_until = warmup + duration
                for workflow_type in self.workflow_types:
                    self._schedule_arrival(workflow_type)
                for injector in self._injectors:
                    injector.start()
                if warmup > 0.0:
                    self.simulator.run_until(warmup)
                    self._reset_statistics()
                end = warmup + duration
                self.simulator.run_until(end)
                if self._fast_mode:
                    # Fast mode buffers service requests instead of
                    # simulating them per event: replay the queueing
                    # dynamics up to the window end so the measurement
                    # snapshot below sees the same state the exact mode
                    # would have accumulated event by event.
                    for pool in self.pools.values():
                        pool.replay_until(end)
                # Window-scoped measurements are taken now; the drain
                # below only completes the in-flight instance cohort,
                # so the servers stop updating their statistics.
                server_measurements = self._measure_servers(end)
                for pool in self.pools.values():
                    for server in pool.servers:
                        server.stop_measuring()
                self._system_up.finalize(end)
                system_unavailability = 1.0 - self._system_up.time_average()
                self._drain(duration, end)
                if self._fast_mode:
                    # Complete the drained cohort's requests so the audit
                    # trail covers them (measurements are already taken).
                    for pool in self.pools.values():
                        pool.replay_until(self.simulator.now)
                span.set("events", self.logical_events)
                return self._build_report(
                    duration, warmup, server_measurements,
                    system_unavailability,
                )
            finally:
                self._flush_obs_counters()

    def _flush_obs_counters(self) -> None:
        """Fold the batched per-event tallies into the obs counters."""
        if self._obs_instances_started:
            obs.count(
                "wfms.instances_started", self._obs_instances_started
            )
            self._obs_instances_started = 0
        if self._obs_instances_completed:
            obs.count(
                "wfms.instances_completed", self._obs_instances_completed
            )
            self._obs_instances_completed = 0
        if not self._fast_mode:
            # Exact-mode requests count when their calendar event
            # reaches the pool.
            arrivals = sum(pool.arrivals for pool in self.pools.values())
            self._obs_requests_submitted += (
                arrivals - self._obs_arrivals_flushed
            )
            self._obs_arrivals_flushed = arrivals
        if self._obs_requests_submitted:
            obs.count(
                "wfms.requests_submitted", self._obs_requests_submitted
            )
            self._obs_requests_submitted = 0
        if self._fast_rngs:
            blocks = sum(rng.blocks_drawn for rng in self._fast_rngs)
            variates = sum(
                rng.variates_served for rng in self._fast_rngs
            )
            if blocks > self._obs_blocks_flushed:
                obs.count(
                    "sim.fastdraw.blocks_drawn",
                    blocks - self._obs_blocks_flushed,
                )
                self._obs_blocks_flushed = blocks
            if variates > self._obs_variates_flushed:
                obs.count(
                    "sim.fastdraw.variates_served",
                    variates - self._obs_variates_flushed,
                )
                self._obs_variates_flushed = variates

    @property
    def logical_events(self) -> int:
        """Simulated events including the ones fast mode vectorized away.

        In the exact mode every service request costs two calendar
        events (timed submission, completion), so this equals
        ``simulator.executed_events``.  The fast mode buffers arrivals
        and replays completions outside the calendar; counting each
        routed arrival and each completed request restores the same
        per-request weight, making throughput comparisons across modes
        measure the same workload.
        """
        events = self.simulator.executed_events
        if self._fast_mode:
            for pool in self.pools.values():
                events += pool.arrivals_processed + pool.completed_total
        return events

    def _drain(self, duration: float, end: float) -> None:
        """Simulate past the window until the tracked cohort completes."""
        if self._tracked_open == 0:
            return
        self._draining = True
        deadline = end + self.DRAIN_LIMIT_FACTOR * duration
        chunk = max(duration / 10.0, 1.0)
        with obs.span("wfms.drain", open_instances=self._tracked_open):
            while self._tracked_open > 0:
                if self.simulator.now >= deadline:
                    raise ValidationError(
                        f"{self._tracked_open} instance(s) still running "
                        f"{self.DRAIN_LIMIT_FACTOR:g}x the measured "
                        f"duration past the window end; the workflow "
                        f"does not terminate"
                    )
                self.simulator.run_until(self.simulator.now + chunk)
        self._draining = False

    def _reset_statistics(self) -> None:
        now = self.simulator.now
        for pool in self.pools.values():
            pool.reset_statistics()
        for name in self._turnarounds:
            self._turnarounds[name] = RunningStats()
            self._completed[name] = 0
        self._system_up = TimeWeightedStats(
            1.0 if all(p.any_up for p in self.pools.values()) else 0.0, now
        )
        self.trail.clear()

    def _measure_servers(
        self, now: float
    ) -> dict[str, ServerTypeMeasurement]:
        """Snapshot per-type measurements at the window end ``now``."""
        server_measurements: dict[str, ServerTypeMeasurement] = {}
        for name, pool in self.pools.items():
            counts = [s.statistics.waiting_times.count for s in pool.servers]
            means = [s.statistics.waiting_times.mean for s in pool.servers]
            seconds = [
                s.statistics.waiting_times.second_moment
                for s in pool.servers
            ]
            service_counts = [
                s.statistics.service_times.count for s in pool.servers
            ]
            service_means = [
                s.statistics.service_times.mean for s in pool.servers
            ]
            service_seconds = [
                s.statistics.service_times.second_moment
                for s in pool.servers
            ]
            utilization = pooled_mean(
                [1] * len(pool.servers),
                [s.statistics.busy.time_average(now) for s in pool.servers],
            )
            server_measurements[name] = ServerTypeMeasurement(
                name=name,
                replica_count=len(pool.servers),
                completed_requests=sum(counts),
                mean_waiting_time=pooled_mean(counts, means),
                waiting_time_ci95=pooled_ci95(counts, means, seconds),
                mean_service_time=pooled_mean(service_counts, service_means),
                second_moment_service_time=pooled_mean(
                    service_counts, service_seconds
                ),
                utilization=utilization,
                unavailability=1.0 - pool.availability.time_average(now),
            )
        return server_measurements

    def _build_report(
        self,
        duration: float,
        warmup: float,
        server_measurements: dict[str, ServerTypeMeasurement],
        system_unavailability: float,
    ) -> WFMSMeasurementReport:
        workflow_measurements: dict[str, WorkflowTypeMeasurement] = {}
        for workflow_type in self.workflow_types:
            name = workflow_type.chart.name
            stats = self._turnarounds[name]
            workflow_measurements[name] = WorkflowTypeMeasurement(
                name=name,
                completed_instances=self._completed[name],
                mean_turnaround_time=stats.mean,
                turnaround_ci95=stats.confidence_interval_95(),
                throughput=self._completed[name] / duration,
                turnaround_stats=stats,
            )
        return WFMSMeasurementReport(
            observed_duration=duration,
            warmup_duration=warmup,
            server_types=server_measurements,
            workflow_types=workflow_measurements,
            system_unavailability=system_unavailability,
            trail=self.trail,
            worklist=(
                self.worklist.report() if self.worklist is not None
                else None
            ),
            availability_stats=self._system_up,
        )

    # ------------------------------------------------------------------
    # Instance completion hook
    # ------------------------------------------------------------------
    def _instance_completed(
        self, workflow_name: str, started_at: float, instance_id: int
    ) -> None:
        self._active_instances -= 1
        now = self.simulator.now
        self._obs_instances_completed += 1
        if self._obs_on:
            obs.event(
                "instance_completed",
                t=now,
                instance=instance_id,
                workflow=workflow_name,
                turnaround=now - started_at,
            )
        if self._collect_from <= started_at < self._collect_until:
            self._tracked_open -= 1
            self._turnarounds[workflow_name].add(now - started_at)
            self._completed[workflow_name] += 1


class _InstanceRuntime(InterpreterListener):
    """Drives one workflow instance through the simulation clock."""

    def __init__(
        self,
        wfms: SimulatedWFMS,
        workflow_type: SimulatedWorkflowType,
        instance_id: int,
    ) -> None:
        self.wfms = wfms
        self.workflow_type = workflow_type
        self.instance_id = instance_id
        self.started_at = wfms.simulator.now
        self.interpreter = StateChartInterpreter(
            workflow_type.chart, resolver=wfms._resolver, listener=self
        )

    def start(self) -> None:
        self.interpreter.start()

    # ------------------------------------------------------------------
    # InterpreterListener callbacks
    # ------------------------------------------------------------------
    def on_state_entered(self, active: ActiveState) -> None:
        if active.state.is_composite:
            return  # leaves of the regions drive the composite
        self._process_leaf(active)

    def on_workflow_completed(self) -> None:
        self.wfms._instance_completed(
            self.workflow_type.chart.name, self.started_at, self.instance_id
        )

    # ------------------------------------------------------------------
    def _process_leaf(self, active: ActiveState) -> None:
        state = active.state
        if state.activity is not None:
            activity = self.workflow_type.activities.get(state.activity)
            mean_duration = (
                state.mean_duration
                if state.mean_duration is not None
                else activity.mean_duration
            )
            duration = self.wfms.sample_duration(mean_duration)
            self._issue_requests(activity.loads, duration)
            if activity.interactive and self.wfms.worklist is not None:
                # Actor-contended completion: the state is left when the
                # assigned actor finishes the work item.
                path = active.path
                self.wfms.worklist.submit(
                    activity.name,
                    self.instance_id,
                    duration,
                    on_complete=lambda item, p=path: self._advance(p),
                )
                return
        else:
            mean_duration = (
                state.mean_duration
                if state.mean_duration is not None
                else self.wfms.default_routing_duration
            )
            duration = self.wfms.sample_duration(mean_duration)
        self.wfms.simulator.post(duration, self._advance, active.path)

    def _issue_requests(
        self, loads: Mapping[str, float], duration: float
    ) -> None:
        """Spread the activity's requests uniformly over its duration."""
        wfms = self.wfms
        uniform = wfms._load_rng.uniform
        instance_id = self.instance_id
        if wfms._fast_mode:
            # Fast mode: requests go straight into the pool's arrival
            # buffers with their absolute submission times — no
            # calendar event per request; the pool replays them at the
            # measurement boundaries.  The spread offsets come from the
            # same u01 stream scalar uniform() would consume.
            now = wfms.simulator.now
            buffers = wfms._pool_buffers
            u01 = wfms._load_u01_next
            take = wfms._load_u01_take
            submitted = 0
            for server_type, expected in loads.items():
                # Inlined integer_load (randomized rounding) against
                # the bound u01 stream.
                count = int(expected)
                fraction = expected - count
                if fraction > 0.0 and u01() < fraction:
                    count += 1
                if not count:
                    continue
                try:
                    append_time, append_id = buffers[server_type]
                except KeyError:
                    raise ValidationError(
                        f"unknown server type {server_type!r}"
                    ) from None
                for offset in take(count):
                    append_time(now + offset * duration)
                    append_id(instance_id)
                submitted += count
            wfms._obs_requests_submitted += submitted
            return
        post = wfms.simulator.post
        for server_type, expected in loads.items():
            count = wfms.integer_load(expected)
            if not count:
                continue
            try:
                arrive = wfms._pool_arrive[server_type]
            except KeyError:
                raise ValidationError(
                    f"unknown server type {server_type!r}"
                ) from None
            for _ in range(count):
                post(uniform(0.0, duration), arrive, instance_id)

    def _advance(self, path: StatePath) -> None:
        self.interpreter.advance(path)


class _RecordingInstanceRuntime(_InstanceRuntime):
    """An instance runtime that also writes its audit-trail rows.

    Only instances of the measured cohort feed the trail, so visit rows
    and instance rows describe the same sample.
    """

    def __init__(
        self,
        wfms: SimulatedWFMS,
        workflow_type: SimulatedWorkflowType,
        instance_id: int,
    ) -> None:
        super().__init__(wfms, workflow_type, instance_id)
        # Top-level audit tracking: (state name, entered at).
        self._top_level: tuple[str, float] | None = None

    def on_state_entered(self, active: ActiveState) -> None:
        if len(active.path) == 2:
            self._record_top_level_transition(active.state.name)
        super().on_state_entered(active)

    def on_workflow_completed(self) -> None:
        self._record_top_level_transition(TERMINATION)
        wfms = self.wfms
        if wfms._in_window(self.started_at):
            wfms.trail.instance_rows.append((
                self.instance_id, self.workflow_type.chart.name,
                self.started_at, wfms.simulator.now,
            ))
        super().on_workflow_completed()

    def _record_top_level_transition(self, next_state: str) -> None:
        now = self.wfms.simulator.now
        if (self._top_level is not None
                and self.wfms._in_window(self.started_at)
                and self._top_level[1] >= self.wfms._collect_from):
            state, entered_at = self._top_level
            self.wfms.trail.state_visit_rows.append((
                self.instance_id, self.workflow_type.chart.name, state,
                entered_at, now, next_state,
            ))
        self._top_level = (
            None if next_state == TERMINATION else (next_state, now)
        )
