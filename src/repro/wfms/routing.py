"""Request routing across the replicas of a server type (Section 4.4).

The paper assumes service requests are spread uniformly across the
replicas of a type, "by assigning work to servers in a round-robin or
random (typically hashing-based) manner", with assignments typically made
per workflow instance for locality.  All three policies are implemented;
the pool falls back to any running replica when the preferred one is down
(the paper's online failover), and parks requests when the whole type is
down.
"""

from __future__ import annotations

import enum
import random
from collections import deque

from repro.core.model_types import ServerTypeSpec
from repro.exceptions import ValidationError
from repro.sim.engine import Simulator
from repro.sim.statistics import TimeWeightedStats
from repro.wfms.servers import Server


class RoutingPolicy(enum.Enum):
    """How new requests are assigned to replicas."""

    #: Cycle through the replicas per request.
    ROUND_ROBIN = "round_robin"
    #: Uniformly random replica per request.
    RANDOM = "random"
    #: Hash of the workflow instance id — all requests of one instance
    #: prefer the same replica (the paper's locality-preserving policy).
    HASH = "hash"


class ServerPool:
    """All replicas of one server type plus the routing logic."""

    def __init__(
        self,
        simulator: Simulator,
        spec: ServerTypeSpec,
        servers: list[Server],
        policy: RoutingPolicy = RoutingPolicy.HASH,
        rng: random.Random | None = None,
    ) -> None:
        if not servers:
            raise ValidationError(
                f"pool of {spec.name} needs at least one server"
            )
        self.simulator = simulator
        self.spec = spec
        self.servers = list(servers)
        self.policy = policy
        self._rng = rng if rng is not None else random.Random()
        self._round_robin_position = 0
        #: Requests waiting for any replica, ``(submitted at, instance id)``.
        self._parked: deque[tuple[float, int]] = deque()
        #: Replicas down, kept by their ``fail`` and ``repair``.
        self._down = 0
        for server in self.servers:
            server._pool = self
            self._down += not server.is_up
        #: Requests routed through :meth:`arrive` so far.
        self.arrivals = 0
        self.availability = TimeWeightedStats(1.0, simulator.now)

    # ------------------------------------------------------------------
    @property
    def any_up(self) -> bool:
        """Whether at least one replica is running."""
        return self._down < len(self.servers)

    @property
    def up_count(self) -> int:
        """Number of replicas currently up."""
        return len(self.servers) - self._down

    def arrive(self, instance_id: int) -> None:
        """Route a request that instance ``instance_id`` submits now.

        The pool's one entry for requests: the simulated WFMS posts
        this bound method as the calendar event of each service
        request it issues.
        """
        self.arrivals += 1
        now = self.simulator.now
        if self._down:
            self._route(now, instance_id)
            return
        # Every replica up: each policy's choice is one index (the same
        # one the general search of _choose finds).
        servers = self.servers
        policy = self.policy
        if policy is RoutingPolicy.ROUND_ROBIN:
            position = self._round_robin_position + 1
            self._round_robin_position = position
            servers[position % len(servers)].submit(now, instance_id)
        elif policy is RoutingPolicy.HASH:
            servers[instance_id % len(servers)].submit(now, instance_id)
        else:
            self._rng.choice(servers).submit(now, instance_id)

    def _route(self, submitted_at: float, instance_id: int) -> None:
        server = self._choose(instance_id)
        if server is None:
            self._parked.append((submitted_at, instance_id))
        else:
            server.submit(submitted_at, instance_id)

    def _choose(self, instance_id: int) -> Server | None:
        servers = self.servers
        policy = self.policy
        if policy is RoutingPolicy.HASH:
            # Prefer the instance's home replica; fail over to the next
            # running one in ring order.
            count = len(servers)
            preferred = instance_id % count
            for offset in range(count):
                server = servers[(preferred + offset) % count]
                if server.is_up:
                    return server
            return None
        if policy is RoutingPolicy.ROUND_ROBIN:
            up_count = len(servers) - self._down
            if not up_count:
                return None
            self._round_robin_position += 1
            remaining = self._round_robin_position % up_count
            for server in servers:
                if server.is_up:
                    if not remaining:
                        return server
                    remaining -= 1
            return None  # pragma: no cover - unreachable, up_count > 0
        up_servers = [server for server in servers if server.is_up]
        if not up_servers:
            return None
        return self._rng.choice(up_servers)

    # ------------------------------------------------------------------
    # Failure bookkeeping
    # ------------------------------------------------------------------
    def notify_state_change(self) -> None:
        """Update availability tracking and flush parked requests.

        Called by the failure injectors after every repair (and usable
        after failures); parked requests are replayed through the router
        as soon as a replica is running again.
        """
        self.availability.update(
            1.0 if self.any_up else 0.0, self.simulator.now
        )
        while self._parked and self.any_up:
            self._route(*self._parked.popleft())

    def reset_statistics(self) -> None:
        """Drop warm-up measurements on the pool and all replicas."""
        self.availability = TimeWeightedStats(
            1.0 if self.any_up else 0.0, self.simulator.now
        )
        for server in self.servers:
            server.reset_statistics()
