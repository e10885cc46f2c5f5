"""Tests for the simulated server replicas."""

import random

import pytest

from repro.core.model_types import ServerTypeSpec
from repro.monitor.audit import AuditTrail
from repro.sim.distributions import Deterministic, Exponential
from repro.sim.engine import Simulator
from repro.wfms.servers import FailureInjector, Server


def make_server(simulator, service_time=1.0, trail=None, name="srv#0"):
    spec = ServerTypeSpec(
        "srv", mean_service_time=service_time,
        failure_rate=0.01, repair_rate=0.5,
    )
    return Server(
        simulator=simulator,
        name=name,
        spec=spec,
        service_distribution=Deterministic(service_time),
        rng=random.Random(0),
        trail=trail,
    )


class TestFCFSService:
    def test_single_request_served_immediately(self):
        simulator = Simulator()
        server = make_server(simulator)
        server.submit(simulator.now, 0)
        simulator.run()
        assert server.statistics.completed_requests == 1
        assert server.statistics.waiting_times.mean == 0.0
        assert simulator.now == pytest.approx(1.0)

    def test_queueing_waiting_times(self):
        simulator = Simulator()
        server = make_server(simulator, service_time=2.0)
        server.submit(simulator.now, 0)
        server.submit(simulator.now, 0)
        server.submit(simulator.now, 0)
        simulator.run()
        # Waits: 0, 2, 4 -> mean 2.
        assert server.statistics.waiting_times.mean == pytest.approx(2.0)
        assert server.statistics.completed_requests == 3

    def test_utilization_tracking(self):
        simulator = Simulator()
        server = make_server(simulator, service_time=1.0)
        server.submit(simulator.now, 0)
        simulator.run()
        simulator.schedule(1.0, lambda: None)  # idle period
        simulator.run()
        busy = server.statistics.busy.time_average(simulator.now)
        assert busy == pytest.approx(0.5)

    def test_audit_records_emitted(self):
        simulator = Simulator()
        trail = AuditTrail()
        server = make_server(simulator, trail=trail)
        server.submit(simulator.now, 0)
        simulator.run()
        assert len(trail.service_requests) == 1
        record = trail.service_requests[0]
        assert record.service_time == pytest.approx(1.0)
        assert record.server_name == "srv#0"


class TestFailures:
    def test_failure_preempts_and_retries(self):
        simulator = Simulator()
        server = make_server(simulator, service_time=2.0)
        server.submit(simulator.now, 0)
        simulator.schedule(1.0, server.fail)
        simulator.schedule(3.0, server.repair)
        simulator.run()
        # Preempted at t=1, repaired at t=3, re-served fully: done at 5.
        assert server.statistics.completed_requests == 1
        assert simulator.now == pytest.approx(5.0)

    def test_queue_held_while_down(self):
        simulator = Simulator()
        server = make_server(simulator)
        server.fail()
        server.submit(simulator.now, 0)
        simulator.run()
        assert server.statistics.completed_requests == 0
        assert server.queue_length == 1
        server.repair()
        simulator.run()
        assert server.statistics.completed_requests == 1

    def test_up_time_tracking(self):
        simulator = Simulator()
        server = make_server(simulator)
        simulator.schedule(1.0, server.fail)
        simulator.schedule(3.0, server.repair)
        simulator.schedule(4.0, lambda: None)
        simulator.run()
        up = server.statistics.up.time_average(simulator.now)
        assert up == pytest.approx(0.5)

    def test_fail_and_repair_idempotent(self):
        simulator = Simulator()
        server = make_server(simulator)
        server.fail()
        server.fail()
        assert not server.is_up
        server.repair()
        server.repair()
        assert server.is_up

    def test_reset_statistics_preserves_state(self):
        simulator = Simulator()
        server = make_server(simulator)
        server.submit(simulator.now, 0)
        simulator.run()
        server.reset_statistics()
        assert server.statistics.completed_requests == 0
        assert server.is_up


class TestFailureInjector:
    def test_injector_produces_failures_and_repairs(self):
        simulator = Simulator()
        spec = ServerTypeSpec(
            "srv", 1.0, failure_rate=0.1, repair_rate=1.0
        )
        server = Server(
            simulator, "srv#0", spec, Exponential(1.0),
            rng=random.Random(1),
        )
        failures, repairs = [], []
        injector = FailureInjector(
            simulator, server, random.Random(2),
            on_failure=lambda s: failures.append(simulator.now),
            on_repair=lambda s: repairs.append(simulator.now),
        )
        injector.start()
        simulator.run_until(2000.0)
        assert len(failures) > 100
        assert abs(len(failures) - len(repairs)) <= 1
        # Long-run availability close to mu / (lambda + mu) = 1/1.1^-1...
        up = server.statistics.up.time_average(simulator.now)
        assert up == pytest.approx(spec.single_server_availability, abs=0.05)

    def test_requires_positive_failure_rate(self):
        simulator = Simulator()
        spec = ServerTypeSpec("srv", 1.0)  # failure-free
        server = Server(
            simulator, "srv#0", spec, Exponential(1.0),
            rng=random.Random(1),
        )
        with pytest.raises(Exception):
            FailureInjector(simulator, server, random.Random(2))
