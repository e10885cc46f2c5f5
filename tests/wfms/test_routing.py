"""Tests for request routing across replicas."""

import random

import pytest

from repro.core.model_types import ServerTypeSpec
from repro.exceptions import ValidationError
from repro.monitor.audit import AuditTrail
from repro.sim.distributions import Deterministic
from repro.sim.engine import Simulator
from repro.wfms.routing import RoutingPolicy, ServerPool
from repro.wfms.servers import Server


def make_pool(simulator, count=3, policy=RoutingPolicy.HASH, trail=None):
    spec = ServerTypeSpec(
        "srv", mean_service_time=1.0, failure_rate=0.01, repair_rate=0.5
    )
    servers = [
        Server(
            simulator, f"srv#{i}", spec, Deterministic(1.0),
            rng=random.Random(i), trail=trail,
        )
        for i in range(count)
    ]
    return ServerPool(
        simulator, spec, servers, policy=policy, rng=random.Random(42)
    )


class TestRoutingPolicies:
    def test_hash_policy_is_sticky_per_instance(self):
        simulator = Simulator()
        pool = make_pool(simulator, count=3, policy=RoutingPolicy.HASH)
        for _ in range(5):
            pool.arrive(7)
        simulator.run()
        served = [s.statistics.completed_requests for s in pool.servers]
        assert served[7 % 3] == 5
        assert sum(served) == 5

    def test_round_robin_spreads_evenly(self):
        simulator = Simulator()
        pool = make_pool(simulator, count=3, policy=RoutingPolicy.ROUND_ROBIN)
        for i in range(9):
            pool.arrive(i)
        simulator.run()
        served = [s.statistics.completed_requests for s in pool.servers]
        assert served == [3, 3, 3]

    def test_random_uses_all_replicas(self):
        simulator = Simulator()
        pool = make_pool(simulator, count=3, policy=RoutingPolicy.RANDOM)
        for i in range(300):
            pool.arrive(i)
        simulator.run()
        served = [s.statistics.completed_requests for s in pool.servers]
        assert all(count > 50 for count in served)
        assert sum(served) == 300


def replicas_by_instance(simulator, trail):
    """Serve everything submitted; map instance id -> replica index."""
    simulator.run()
    return {
        record.instance_id: int(record.server_name.split("#")[1])
        for record in trail.service_requests
    }


class TestChoiceAcrossFailures:
    """With every replica up a pool picks its replica by index; after a
    failure it searches the running ones.  Both must agree."""

    def test_round_robin_shares_one_cycle(self):
        simulator, trail = Simulator(), AuditTrail()
        pool = make_pool(
            simulator, count=3, policy=RoutingPolicy.ROUND_ROBIN,
            trail=trail,
        )
        for instance_id in range(3):
            pool.arrive(instance_id)
        pool.servers[0].fail()
        pool.arrive(3)  # position 4 of running [1, 2] -> 1
        pool.arrive(4)  # position 5 -> 2
        pool.servers[0].repair()
        pool.arrive(5)  # position 6 of all three -> 0
        pool.arrive(6)  # position 7 -> 1
        assert replicas_by_instance(simulator, trail) == {
            0: 1, 1: 2, 2: 0, 3: 1, 4: 2, 5: 0, 6: 1,
        }

    def test_hash_home_replica_and_ring_failover(self):
        simulator, trail = Simulator(), AuditTrail()
        pool = make_pool(simulator, count=3, trail=trail)
        for instance_id in range(3):
            pool.arrive(instance_id)
        pool.servers[1].fail()
        pool.arrive(4)  # home 1 is down -> 2
        pool.arrive(5)  # home 2
        pool.servers[1].repair()
        pool.arrive(7)  # home 1 again
        assert replicas_by_instance(simulator, trail) == {
            0: 0, 1: 1, 2: 2, 4: 2, 5: 2, 7: 1,
        }

    def test_random_draws_one_choice_over_running_replicas(self):
        simulator, trail = Simulator(), AuditTrail()
        pool = make_pool(
            simulator, count=3, policy=RoutingPolicy.RANDOM, trail=trail,
        )
        reference = random.Random(42)
        expected = {}
        for instance_id in range(20):
            pool.arrive(instance_id)
            expected[instance_id] = reference.choice([0, 1, 2])
        pool.servers[1].fail()
        for instance_id in range(20, 40):
            pool.arrive(instance_id)
            expected[instance_id] = reference.choice([0, 2])
        pool.servers[1].repair()
        for instance_id in range(40, 60):
            pool.arrive(instance_id)
            expected[instance_id] = reference.choice([0, 1, 2])
        assert replicas_by_instance(simulator, trail) == expected

    def test_arrivals_counted_also_when_parked(self):
        simulator = Simulator()
        pool = make_pool(simulator, count=2)
        pool.arrive(0)
        for server in pool.servers:
            server.fail()
        pool.arrive(1)
        assert pool.arrivals == 2


class TestFailover:
    def test_hash_fails_over_to_next_up_replica(self):
        simulator = Simulator()
        pool = make_pool(simulator, count=3, policy=RoutingPolicy.HASH)
        home = 7 % 3
        pool.servers[home].fail()
        pool.arrive(7)
        simulator.run()
        fallback = (home + 1) % 3
        assert pool.servers[fallback].statistics.completed_requests == 1

    def test_requests_parked_when_all_down(self):
        simulator = Simulator()
        pool = make_pool(simulator, count=2)
        for server in pool.servers:
            server.fail()
        pool.arrive(0)
        simulator.run()
        assert not pool.any_up
        assert sum(
            s.statistics.completed_requests for s in pool.servers
        ) == 0

    def test_parked_requests_flushed_on_repair(self):
        simulator = Simulator()
        pool = make_pool(simulator, count=2)
        for server in pool.servers:
            server.fail()
        pool.arrive(0)
        pool.arrive(0)
        pool.servers[0].repair()
        pool.notify_state_change()
        simulator.run()
        assert pool.servers[0].statistics.completed_requests == 2

    def test_availability_time_average(self):
        simulator = Simulator()
        pool = make_pool(simulator, count=1)

        def down():
            pool.servers[0].fail()
            pool.notify_state_change()

        def up():
            pool.servers[0].repair()
            pool.notify_state_change()

        simulator.schedule(1.0, down)
        simulator.schedule(2.0, up)
        simulator.schedule(4.0, lambda: None)
        simulator.run()
        assert pool.availability.time_average(simulator.now) == pytest.approx(
            0.75
        )


class TestPoolBasics:
    def test_up_count(self):
        simulator = Simulator()
        pool = make_pool(simulator, count=3)
        assert pool.up_count == 3
        pool.servers[0].fail()
        assert pool.up_count == 2

    def test_empty_pool_rejected(self):
        simulator = Simulator()
        spec = ServerTypeSpec("srv", 1.0)
        with pytest.raises(ValidationError):
            ServerPool(simulator, spec, [])

    def test_reset_statistics(self):
        simulator = Simulator()
        pool = make_pool(simulator, count=2)
        pool.arrive(0)
        simulator.run()
        pool.reset_statistics()
        assert all(
            s.statistics.completed_requests == 0 for s in pool.servers
        )
