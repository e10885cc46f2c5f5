"""Vectorized service-request sink for the fast-RNG simulation mode.

In the exact mode every service request is two calendar events (the
timed submission and the completion), which together dominate the event
count — yet server completions never feed back into workflow progress:
requests are fire-and-forget measurement traffic (the workflow advances
on its own duration timers).  The fast mode exploits that one-way
dependence: requests are *buffered* as ``(arrival time, instance id)``
pairs when an activity issues them, and the queueing dynamics — routing,
FCFS service, failure preemption with retry semantics, parked requests
while a whole type is down — are *replayed* deterministically at the
measurement boundaries (warm-up reset, window end, post-drain), with
service times drawn from numpy block streams
(:mod:`repro.sim.fastdraw`) and measurements folded in blocks
(:meth:`~repro.sim.statistics.RunningStats.add_block` /
:meth:`~repro.sim.statistics.TimeWeightedStats.update_block`).

Failure and repair remain ordinary calendar events (they are rare and
they interact with routing and availability tracking); each
:class:`FastServer` records its down windows and the pool records the
up/down transition log the routing replay consumes.  Because failures
are independent of the request flow (the injector arms timers whether
or not the replica is busy), replaying requests after the fact visits
exactly the state the event-driven implementation would have seen.

The replay is *incremental*: requests whose service would start or end
beyond the flushed horizon stay pending (their in-service state carries
across flushes), so statistics at the window end match what per-event
bookkeeping would have measured at that instant.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat

import numpy as np

from repro.core.model_types import ServerTypeSpec
from repro.exceptions import ValidationError
from repro.monitor.audit import AuditTrail
from repro.sim.distributions import Distribution
from repro.sim.engine import Simulator
from repro.sim.fastdraw import FastRng
from repro.sim.statistics import TimeWeightedStats
from repro.wfms.routing import RoutingPolicy
from repro.wfms.servers import ServerStatistics

__all__ = ["FastServer", "FastServerPool"]


class FastServer:
    """Replay state of one FCFS replica in fast-RNG mode.

    Mirrors :class:`repro.wfms.servers.Server` semantics — FCFS, retry
    (preempt-restart with a fresh service draw) on failure, queue halted
    while down — but requests are served by :meth:`serve_until` replay
    instead of calendar events.  Exposes the same ``statistics`` /
    ``is_up`` / ``fail`` / ``repair`` surface the runtime, the failure
    injector, and the measurement pass consume.
    """

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        spec: ServerTypeSpec,
        service_distribution: Distribution,
        rng: FastRng,
        trail: AuditTrail | None = None,
    ) -> None:
        self.simulator = simulator
        self.name = name
        self.spec = spec
        self.service_distribution = service_distribution
        self._sample_service = service_distribution.sampler(rng)
        #: Take-capable block stream for bulk service draws (``None``
        #: for families without one; the bulk path then loops the
        #: scalar sampler).
        self._service_stream = rng.variate_stream(service_distribution)
        self._rng = rng
        #: The trail's service-request rows (``None`` without a trail).
        self._rows = (
            trail.service_request_rows if trail is not None else None
        )
        self.is_up = True
        self.statistics = ServerStatistics(
            busy=TimeWeightedStats(0.0, simulator.now),
            up=TimeWeightedStats(1.0, simulator.now),
        )
        # Replay state ----------------------------------------------------
        #: FIFO of routed-but-unserved requests as parallel arrays
        #: (arrival times / instance ids) consumed from ``_queue_head``;
        #: parallel lists avoid per-request tuple churn in routing and
        #: let the bulk path view the backlog as a 1-D float array.
        self._queue_times: list[float] = []
        self._queue_ids: list[int] = []
        self._queue_head = 0
        #: Earliest time the next service may start.
        self._t_free = simulator.now
        #: Down windows ``[fail time, repair time | None]`` in order.
        self._windows: list[list] = []
        #: First window not yet fully passed by the replay.
        self._window_index = 0
        #: A preemption ran into a still-open window; the repair event
        #: will set ``_t_free`` to the repair time.
        self._open_preempt = False
        #: In-flight attempt ``[arrival, iid, start, service, end]``.
        self._current: list | None = None
        # Measurement buffers (flushed in blocks).
        self._busy_values: list[float] = []
        self._busy_times: list[float] = []
        self._waiting_buffer: list[float] = []
        self._service_buffer: list[float] = []
        #: Whether :meth:`flush_measurements` folds the buffers (until
        #: :meth:`stop_measuring`) or drops them.
        self._measuring = True
        #: Completions since construction (never reset; logical events).
        self.completed_total = 0
        # Wired by the owning pool.
        self._pool: FastServerPool | None = None
        self._pool_index = 0

    # ------------------------------------------------------------------
    # Event-time surface (called by the failure injector)
    # ------------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Requests waiting (excluding the one in service)."""
        return len(self._queue_times) - self._queue_head

    @property
    def is_busy(self) -> bool:
        """Whether a replayed request is currently in service."""
        return self._current is not None

    def fail(self) -> None:
        """Take the replica down; opens a down window for the replay."""
        if not self.is_up:
            return
        self.is_up = False
        now = self.simulator.now
        self.statistics.up.update(0.0, now)
        self._windows.append([now, None])
        if self._pool is not None:
            self._pool._note_transition(now, self._pool_index, False)

    def repair(self) -> None:
        """Bring the replica back up; closes the open down window."""
        if self.is_up:
            return
        self.is_up = True
        now = self.simulator.now
        self.statistics.up.update(1.0, now)
        self._windows[-1][1] = now
        if self._open_preempt:
            # The preempted request restarts from scratch at the repair.
            if now > self._t_free:
                self._t_free = now
            self._open_preempt = False
        if self._pool is not None:
            self._pool._note_transition(now, self._pool_index, True)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def serve_until(self, horizon: float) -> None:
        """Serve queued requests whose dynamics resolve by ``horizon``.

        Attempts that would start or end beyond ``horizon`` (or that are
        blocked on a still-open down window) stay pending and resume on
        the next call — including re-examination against failures that
        were recorded after the attempt was drawn.

        Dispatches to the vectorized Lindley-recursion path when no
        down window intersects the flushed horizon (the common case);
        flushes containing failure dynamics replay request by request.
        """
        if (
            self._open_preempt
            or (
                self._window_index < len(self._windows)
                and self._windows[self._window_index][0] <= horizon
            )
        ):
            self._serve_scalar(horizon)
        else:
            self._serve_bulk(horizon)

    def _serve_bulk(self, horizon: float) -> None:
        """Vectorized FCFS replay — valid only with no windows in range.

        With no failure before ``horizon`` the start/end times follow
        the Lindley recursion ``end_i = max(arrival_i, end_{i-1}) +
        service_i``, which vectorizes as ``end = cumsum(s) +
        running_max(arrival - cumsum(s)_{i-1})``; both ``start`` and
        ``end`` are then non-decreasing, so the served prefix is found
        with two binary searches.  Service times are block-drawn for
        every request that *could* start by the horizon (its arrival is
        in range); draws for requests whose start then lands beyond the
        horizon — the queue backlog at the flush instant, typically a
        handful — are discarded, so a fast-mode run is a deterministic
        function of its seed and run shape.
        """
        current = self._current
        if current is not None:
            end = current[4]
            if end > horizon:
                return  # still in service past this flush
            arrival, instance_id, start, service, end = current
            self._busy_values.append(0.0)
            self._busy_times.append(end)
            self._waiting_buffer.append(start - arrival)
            self._service_buffer.append(service)
            self.completed_total += 1
            if self._rows is not None:
                self._rows.append(
                    (self.spec.name, self.name, arrival, start, end,
                     instance_id)
                )
            self._t_free = end
            self._current = None
        head = self._queue_head
        queue_times = self._queue_times
        if head >= len(queue_times) or queue_times[head] > horizon:
            return
        arrivals = np.asarray(queue_times[head:] if head else queue_times)
        count = int(np.searchsorted(arrivals, horizon, side="right"))
        arrivals = arrivals[:count]
        stream = self._service_stream
        if stream is not None:
            services = np.asarray(stream.take(count))
        else:
            sample = self._sample_service
            services = np.asarray([sample() for _ in range(count)])
        cumulative = np.cumsum(services)
        offsets = arrivals - cumulative + services  # a_i - cumsum_{i-1}
        offsets[0] = max(arrivals[0], self._t_free)
        ends = cumulative + np.maximum.accumulate(offsets)
        # Recompute starts from the recursion definition (max of the
        # arrival and the previous end) rather than as ``ends -
        # services``: the subtraction can round a hair below the
        # arrival, breaking the submitted <= started invariant and the
        # monotonicity of the busy-toggle times.
        previous_ends = np.empty_like(ends)
        previous_ends[0] = self._t_free
        previous_ends[1:] = ends[:-1]
        starts = np.maximum(arrivals, previous_ends)
        completed = int(np.searchsorted(ends, horizon, side="right"))
        if completed:
            done_starts = starts[:completed]
            done_ends = ends[:completed]
            toggle_times = np.empty(2 * completed)
            toggle_times[0::2] = done_starts
            toggle_times[1::2] = done_ends
            self._busy_values.extend((1.0, 0.0) * completed)
            self._busy_times.extend(toggle_times.tolist())
            self._waiting_buffer.extend(
                (done_starts - arrivals[:completed]).tolist()
            )
            self._service_buffer.extend(services[:completed].tolist())
            self.completed_total += completed
            if self._rows is not None:
                self._rows.extend(
                    zip(
                        repeat(self.spec.name),
                        repeat(self.name),
                        arrivals[:completed].tolist(),
                        done_starts.tolist(),
                        done_ends.tolist(),
                        self._queue_ids[head:head + completed],
                    )
                )
            self._t_free = float(done_ends[-1])
        consumed = completed
        if completed < count and starts[completed] <= horizon:
            # The next request enters service before the horizon but
            # completes beyond it: it becomes the pending attempt.
            start = float(starts[completed])
            self._busy_values.append(1.0)
            self._busy_times.append(start)
            self._current = [
                float(arrivals[completed]),
                self._queue_ids[head + completed],
                start,
                float(services[completed]),
                float(ends[completed]),
            ]
            consumed += 1
        self._queue_head = head + consumed

    def _serve_scalar(self, horizon: float) -> None:
        """Request-by-request replay handling failure windows."""
        queue_times = self._queue_times
        queue_ids = self._queue_ids
        head = self._queue_head
        windows = self._windows
        window_index = self._window_index
        t_free = self._t_free
        current = self._current
        sample = self._sample_service
        busy_values = self._busy_values
        busy_times = self._busy_times
        waiting = self._waiting_buffer
        services = self._service_buffer
        completed = 0

        while True:
            if current is None:
                if head >= len(queue_times):
                    break
                arrival = queue_times[head]
                instance_id = queue_ids[head]
                start = t_free if t_free > arrival else arrival
                # Skip closed windows that ended at or before the start.
                while window_index < len(windows):
                    repair = windows[window_index][1]
                    if repair is None or repair > start:
                        break
                    window_index += 1
                if (
                    window_index < len(windows)
                    and windows[window_index][0] <= start
                ):
                    repair = windows[window_index][1]
                    if repair is None:
                        break  # blocked on an outage with no repair yet
                    start = repair
                    window_index += 1
                    continue  # the next window may also contain `start`
                if start > horizon:
                    break  # service begins beyond the flushed horizon
                head += 1
                service = sample()
                busy_values.append(1.0)
                busy_times.append(start)
                current = [arrival, instance_id, start, service,
                           start + service]
            arrival, instance_id, start, service, end = current
            if (
                window_index < len(windows)
                and windows[window_index][0] < end
                and windows[window_index][0] <= horizon
            ):
                # Preempted: partial service is lost (retry semantics),
                # the request returns to the queue head.
                fail_time, repair = windows[window_index]
                busy_values.append(0.0)
                busy_times.append(fail_time)
                # Return the request to the queue head: back up the head
                # pointer when possible (its slot still holds the same
                # values), otherwise prepend (an earlier flush already
                # compacted the consumed prefix away).
                if head:
                    head -= 1
                    queue_times[head] = arrival
                    queue_ids[head] = instance_id
                else:
                    queue_times.insert(0, arrival)
                    queue_ids.insert(0, instance_id)
                current = None
                if repair is None:
                    self._open_preempt = True
                    break  # resumes once the repair event fires
                if repair > t_free:
                    t_free = repair
                window_index += 1
                continue
            if end > horizon:
                break  # completion resolves beyond the flushed horizon
            busy_values.append(0.0)
            busy_times.append(end)
            waiting.append(start - arrival)
            services.append(service)
            completed += 1
            if self._rows is not None:
                self._rows.append(
                    (self.spec.name, self.name, arrival, start, end,
                     instance_id)
                )
            t_free = end
            current = None

        self._queue_head = head
        self._window_index = window_index
        self._t_free = t_free
        self._current = current
        self.completed_total += completed

    def flush_measurements(self) -> None:
        """Fold the buffered measurements into the statistics collectors.

        After :meth:`stop_measuring` the buffers are dropped instead.
        """
        head = self._queue_head
        if head:
            # Compact the consumed queue prefix once per flush.
            del self._queue_times[:head]
            del self._queue_ids[:head]
            self._queue_head = 0
        if self._measuring:
            if self._busy_values:
                self.statistics.busy.update_block(
                    self._busy_values, self._busy_times
                )
            if self._waiting_buffer:
                self.statistics.waiting_times.add_block(self._waiting_buffer)
                self.statistics.service_times.add_block(self._service_buffer)
        self._clear_buffers()

    def stop_measuring(self) -> None:
        """Freeze the waiting, service and busy statistics as they are.

        The run calls this at the window's end, after its last reading:
        the replay keeps serving (and recording trail rows) through the
        drain, but none of these statistics, nor ``completed_requests``,
        counts the drain's requests.
        """
        self._measuring = False

    def reset_statistics(self) -> None:
        """Drop warm-up measurements; replay state carries across."""
        now = self.simulator.now
        self.statistics = ServerStatistics(
            busy=TimeWeightedStats(
                1.0 if self._current is not None else 0.0, now
            ),
            up=TimeWeightedStats(1.0 if self.is_up else 0.0, now),
        )
        self._clear_buffers()

    def _clear_buffers(self) -> None:
        self._busy_values.clear()
        self._busy_times.clear()
        self._waiting_buffer.clear()
        self._service_buffer.clear()


class FastServerPool:
    """Routing replay over the replicas of one server type (fast mode).

    Arrivals are buffered in ``_pending_times`` / ``_pending_ids``
    (the simulated WFMS appends to them as activities issue requests)
    and routed in time order by :meth:`replay_until`, interleaved with
    the recorded up/down transitions so every routing decision sees
    exactly the replica state the event-driven router would have seen
    at that arrival time.  Policy semantics mirror
    :class:`repro.wfms.routing.ServerPool._choose`: hash with ring
    failover, round-robin over the up replicas, uniformly random up
    replica, and parking while the whole type is down (parked requests
    drain, oldest first, at the next repair transition).
    """

    def __init__(
        self,
        simulator: Simulator,
        spec: ServerTypeSpec,
        servers: list[FastServer],
        policy: RoutingPolicy = RoutingPolicy.HASH,
        rng: FastRng | None = None,
    ) -> None:
        if not servers:
            raise ValidationError(
                f"pool of {spec.name} needs at least one server"
            )
        self.simulator = simulator
        self.spec = spec
        self.servers = list(servers)
        self.policy = policy
        self._rng = rng
        self._round_robin_position = 0
        self.availability = TimeWeightedStats(1.0, simulator.now)
        for index, server in enumerate(self.servers):
            server._pool = self
            server._pool_index = index
        # Replay state ----------------------------------------------------
        #: Routing-time view of replica up/down (advanced by the sweep).
        self._route_up = [True] * len(self.servers)
        #: Up/down transitions ``(time, replica index, up)`` to sweep.
        self._transitions: deque[tuple[float, int, bool]] = deque()
        #: Unsorted arrivals appended since the last replay.
        self._pending_times: list[float] = []
        self._pending_ids: list[int] = []
        #: Sorted leftover arrivals beyond the last replay horizon.
        self._sorted_times: np.ndarray | None = None
        self._sorted_ids: np.ndarray | None = None
        self._sorted_position = 0
        self._parked: deque[tuple[float, int]] = deque()
        #: Arrivals routed or parked so far (logical submission events).
        self.arrivals_processed = 0

    # ------------------------------------------------------------------
    # Event-time surface
    # ------------------------------------------------------------------
    @property
    def any_up(self) -> bool:
        """Whether at least one replica is running (event-time view)."""
        return any(server.is_up for server in self.servers)

    @property
    def up_count(self) -> int:
        """Number of replicas currently up (event-time view)."""
        return sum(1 for server in self.servers if server.is_up)

    @property
    def completed_total(self) -> int:
        """Requests completed across all replicas since construction."""
        return sum(server.completed_total for server in self.servers)

    def notify_state_change(self) -> None:
        """Track pool availability after a failure or repair event.

        Parked-request draining — the other half of the event-driven
        :meth:`~repro.wfms.routing.ServerPool.notify_state_change` —
        happens inside :meth:`replay_until`, where it interleaves
        correctly with buffered arrivals.
        """
        self.availability.update(
            1.0 if self.any_up else 0.0, self.simulator.now
        )

    def _note_transition(self, time: float, index: int, up: bool) -> None:
        """Record a replica transition for the routing sweep."""
        self._transitions.append((time, index, up))

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def _route(self, time: float, instance_id: int) -> None:
        """Route one arrival against the routing-time replica view."""
        up = self._route_up
        servers = self.servers
        policy = self.policy
        if policy is RoutingPolicy.HASH:
            count = len(servers)
            preferred = instance_id % count
            for offset in range(count):
                index = (preferred + offset) % count
                if up[index]:
                    server = servers[index]
                    server._queue_times.append(time)
                    server._queue_ids.append(instance_id)
                    return
            self._parked.append((time, instance_id))
            return
        if policy is RoutingPolicy.ROUND_ROBIN:
            up_count = 0
            for flag in up:
                if flag:
                    up_count += 1
            if not up_count:
                self._parked.append((time, instance_id))
                return
            self._round_robin_position += 1
            remaining = self._round_robin_position % up_count
            for index, flag in enumerate(up):
                if flag:
                    if not remaining:
                        server = servers[index]
                        server._queue_times.append(time)
                        server._queue_ids.append(instance_id)
                        return
                    remaining -= 1
            return  # pragma: no cover - unreachable, up_count > 0
        up_indices = [index for index, flag in enumerate(up) if flag]
        if not up_indices:
            self._parked.append((time, instance_id))
            return
        assert self._rng is not None
        server = servers[self._rng.choice(up_indices)]
        server._queue_times.append(time)
        server._queue_ids.append(instance_id)

    def _route_block(self, times: list, ids: list) -> None:
        """Route a time-ordered arrival block under one fixed up view.

        Round-robin distributes the block cyclically over the up
        replicas with strided slices (one queue extend per replica,
        same assignment as per-arrival :meth:`_route` calls); hash with
        every replica up partitions by ``instance_id %% count``.  The
        remaining cases — random routing (sequential RNG draws) and
        hash with a replica down (ring failover) — fall back to the
        per-arrival router.
        """
        servers = self.servers
        up = self._route_up
        policy = self.policy
        if policy is RoutingPolicy.ROUND_ROBIN:
            up_indices = [i for i, flag in enumerate(up) if flag]
            if not up_indices:
                self._parked.extend(zip(times, ids))
                return
            replicas = len(up_indices)
            position = self._round_robin_position
            if replicas == 1:
                server = servers[up_indices[0]]
                server._queue_times.extend(times)
                server._queue_ids.extend(ids)
            else:
                for slot, index in enumerate(up_indices):
                    first = (slot - position - 1) % replicas
                    chunk = times[first::replicas]
                    if chunk:
                        server = servers[index]
                        server._queue_times.extend(chunk)
                        server._queue_ids.extend(ids[first::replicas])
            self._round_robin_position = position + len(times)
            return
        if policy is RoutingPolicy.HASH and all(up):
            count = len(servers)
            if count == 1:
                server = servers[0]
                server._queue_times.extend(times)
                server._queue_ids.extend(ids)
                return
            id_array = np.asarray(ids, dtype=np.int64)
            time_array = np.asarray(times)
            keys = id_array % count
            for index in range(count):
                selected = np.flatnonzero(keys == index)
                if selected.size:
                    server = servers[index]
                    server._queue_times.extend(
                        time_array[selected].tolist()
                    )
                    server._queue_ids.extend(
                        id_array[selected].tolist()
                    )
            return
        route = self._route
        for time, instance_id in zip(times, ids):
            route(time, instance_id)

    def replay_until(self, horizon: float) -> None:
        """Route and serve everything that resolves by ``horizon``.

        Routes buffered arrivals with time <= ``horizon`` in time order
        (transitions first on simultaneous timestamps, matching the
        event queue's repair-before-arrival ordering), drains parked
        requests at up transitions, serves every replica up to
        ``horizon``, and flushes the measurement buffers.
        """
        times = self._sorted_times
        position = self._sorted_position
        if self._pending_times:
            pending_times = np.array(self._pending_times, dtype=float)
            pending_ids = np.array(self._pending_ids, dtype=np.int64)
            self._pending_times.clear()
            self._pending_ids.clear()
            if times is not None and position < len(times):
                pending_times = np.concatenate(
                    [times[position:], pending_times]
                )
                pending_ids = np.concatenate(
                    [self._sorted_ids[position:], pending_ids]
                )
            order = np.argsort(pending_times, kind="stable")
            times = pending_times[order]
            self._sorted_times = times
            self._sorted_ids = pending_ids[order]
            self._sorted_position = position = 0
        transitions = self._transitions
        if times is not None and position < len(times):
            ids = self._sorted_ids
            end = position + int(
                np.searchsorted(times[position:], horizon, side="right")
            )
            arrival_times = times[position:end].tolist()
            arrival_ids = ids[position:end].tolist()
            self._sorted_position = end
            route = self._route
            cursor = 0
            while transitions:
                transition_time, index, up = transitions[0]
                if transition_time > horizon:
                    break
                while (
                    cursor < len(arrival_times)
                    and arrival_times[cursor] < transition_time
                ):
                    route(arrival_times[cursor], arrival_ids[cursor])
                    cursor += 1
                transitions.popleft()
                self._route_up[index] = up
                if up:
                    parked = self._parked
                    while parked and any(self._route_up):
                        route(*parked.popleft())
            self.arrivals_processed += len(arrival_times)
            if cursor:
                arrival_times = arrival_times[cursor:]
                arrival_ids = arrival_ids[cursor:]
            if arrival_times:
                self._route_block(arrival_times, arrival_ids)
        else:
            # No arrivals in range: still advance the transition view.
            while transitions and transitions[0][0] <= horizon:
                _, index, up = transitions.popleft()
                self._route_up[index] = up
                if up:
                    parked = self._parked
                    while parked and any(self._route_up):
                        self._route(*parked.popleft())
        for server in self.servers:
            server.serve_until(horizon)
            server.flush_measurements()

    def reset_statistics(self) -> None:
        """Replay to now, then drop warm-up measurements."""
        now = self.simulator.now
        self.replay_until(now)
        self.availability = TimeWeightedStats(
            1.0 if self.any_up else 0.0, now
        )
        for server in self.servers:
            server.reset_statistics()
