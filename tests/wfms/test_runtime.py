"""Tests for the simulated WFMS runtime."""

import pytest

from repro.core.model_types import ActivitySpec, ServerTypeIndex, ServerTypeSpec
from repro.core.performance import SystemConfiguration
from repro.exceptions import ValidationError
from repro.spec.events import ECARule
from repro.spec.statechart import ChartState, ChartTransition, StateChart
from repro.spec.translator import ActivityRegistry
from repro.wfms import (
    DurationSampling,
    RoutingPolicy,
    SimulatedWFMS,
    SimulatedWorkflowType,
)


def server_types(failure_rate=0.0):
    kwargs = {}
    if failure_rate:
        kwargs = {"failure_rate": failure_rate, "repair_rate": 0.5}
    return ServerTypeIndex(
        [
            ServerTypeSpec("engine", mean_service_time=0.02, **kwargs),
            ServerTypeSpec("app", mean_service_time=0.05, **kwargs),
        ]
    )


def simple_workflow_type(arrival_rate=0.5, duration=2.0):
    activities = ActivityRegistry(
        {
            "work": ActivitySpec(
                "work", duration, loads={"engine": 2.0, "app": 1.0}
            )
        }
    )
    chart = StateChart(
        "simple",
        (ChartState("work", activity="work"),
         ChartState("done", mean_duration=0.01)),
        (ChartTransition("work", "done", ECARule("work_DONE")),),
        "work",
    )
    return SimulatedWorkflowType(chart, activities, arrival_rate)


def build_wfms(counts=(1, 1), seed=0, failure_rate=0.0, **kwargs):
    types = server_types(failure_rate)
    configuration = SystemConfiguration(
        {"engine": counts[0], "app": counts[1]}
    )
    return SimulatedWFMS(
        server_types=types,
        configuration=configuration,
        workflow_types=[simple_workflow_type()],
        seed=seed,
        inject_failures=failure_rate > 0.0,
        **kwargs,
    )


class TestBasicRun:
    def test_instances_complete(self):
        report = build_wfms().run(duration=2000.0)
        measurement = report.workflow_types["simple"]
        assert measurement.completed_instances > 500
        assert measurement.throughput == pytest.approx(0.5, rel=0.15)

    def test_turnaround_matches_state_durations(self):
        report = build_wfms().run(duration=3000.0)
        measurement = report.workflow_types["simple"]
        assert measurement.mean_turnaround_time == pytest.approx(
            2.01, rel=0.1
        )

    def test_requests_flow_to_both_types(self):
        report = build_wfms().run(duration=1000.0)
        assert report.server_types["engine"].completed_requests > 0
        assert report.server_types["app"].completed_requests > 0
        # Load ratio 2:1 per instance.
        ratio = (
            report.server_types["engine"].completed_requests
            / report.server_types["app"].completed_requests
        )
        assert ratio == pytest.approx(2.0, rel=0.15)

    def test_utilization_matches_analytic_value(self):
        report = build_wfms().run(duration=4000.0, warmup=200.0)
        # engine: 0.5 arrivals * 2 requests * 0.02 = 0.02 utilization.
        assert report.server_types["engine"].utilization == pytest.approx(
            0.02, rel=0.25
        )

    def test_audit_trail_recorded(self):
        report = build_wfms().run(duration=500.0)
        assert report.trail.instances
        assert report.trail.state_visits
        assert report.trail.service_requests
        assert {
            record.workflow_type for record in report.trail.instances
        } == {"simple"}

    def test_report_formatting(self):
        report = build_wfms().run(duration=200.0)
        text = report.format_text()
        assert "simple" in text and "engine" in text


class TestDeterminism:
    def test_same_seed_same_results(self):
        first = build_wfms(seed=11).run(duration=500.0)
        second = build_wfms(seed=11).run(duration=500.0)
        assert (
            first.workflow_types["simple"].completed_instances
            == second.workflow_types["simple"].completed_instances
        )
        assert first.server_types["engine"].mean_waiting_time == (
            second.server_types["engine"].mean_waiting_time
        )

    def test_different_seed_different_results(self):
        first = build_wfms(seed=1).run(duration=500.0)
        second = build_wfms(seed=2).run(duration=500.0)
        assert first.server_types["engine"].mean_waiting_time != (
            second.server_types["engine"].mean_waiting_time
        )

    def test_adjacent_seeds_uncorrelated(self):
        """Regression for the additive seeding hazard: streams were seeded
        ``seed + 0 .. seed + 6``, so run ``seed`` and run ``seed + 1``
        shared six of their seven sub-streams and their measurements were
        heavily correlated.  With hashed derivation, adjacent-seed runs
        must look like independent replications: every arrival sequence
        differs and no per-run statistic repeats.
        """
        reports = {
            seed: build_wfms(seed=seed).run(duration=500.0)
            for seed in (0, 1, 2)
        }
        arrivals = {
            seed: tuple(
                record.submitted_at
                for record in report.trail.service_requests[:50]
            )
            for seed, report in reports.items()
        }
        waits = {
            seed: report.server_types["engine"].mean_waiting_time
            for seed, report in reports.items()
        }
        turnarounds = {
            seed: report.workflow_types["simple"].mean_turnaround_time
            for seed, report in reports.items()
        }
        assert len(set(arrivals.values())) == 3
        assert len(set(waits.values())) == 3
        assert len(set(turnarounds.values())) == 3


class TestWarmup:
    def test_warmup_removes_early_measurements(self):
        report = build_wfms().run(duration=1000.0, warmup=500.0)
        assert report.warmup_duration == 500.0
        for record in report.trail.instances:
            assert record.started_at >= 500.0

    def test_cannot_run_twice(self):
        wfms = build_wfms()
        wfms.run(duration=100.0)
        with pytest.raises(ValidationError):
            wfms.run(duration=100.0)


class TestFailures:
    def test_unavailability_measured(self):
        report = build_wfms(
            counts=(1, 1), failure_rate=0.05, seed=5
        ).run(duration=5000.0)
        # Each type down fraction ~ 0.05/(0.05+0.5) = 0.0909; system
        # unavailability a bit less than the sum of the two.
        assert 0.05 < report.system_unavailability < 0.30
        assert report.server_types["engine"].unavailability > 0.0

    def test_replication_reduces_unavailability(self):
        single = build_wfms(
            counts=(1, 1), failure_rate=0.05, seed=9
        ).run(duration=5000.0)
        double = build_wfms(
            counts=(3, 3), failure_rate=0.05, seed=9
        ).run(duration=5000.0)
        assert (
            double.system_unavailability < single.system_unavailability
        )


class TestOptions:
    def test_duration_sampling_families(self):
        for family in DurationSampling:
            report = build_wfms(
                seed=3, duration_sampling=family
            ).run(duration=800.0)
            assert report.workflow_types["simple"].mean_turnaround_time == (
                pytest.approx(2.01, rel=0.2)
            )

    def test_routing_policies_all_work(self):
        for policy in RoutingPolicy:
            report = build_wfms(
                counts=(2, 2), seed=4, routing_policy=policy
            ).run(duration=500.0)
            assert report.workflow_types["simple"].completed_instances > 100

    def test_zero_replica_configuration_rejected(self):
        with pytest.raises(ValidationError):
            build_wfms(counts=(0, 1))

    def test_duplicate_workflow_types_rejected(self):
        types = server_types()
        with pytest.raises(ValidationError):
            SimulatedWFMS(
                types,
                SystemConfiguration({"engine": 1, "app": 1}),
                [simple_workflow_type(), simple_workflow_type()],
            )

    @pytest.mark.parametrize("rng_mode", ["exact", "fast"])
    def test_load_on_unknown_server_type_rejected(self, rng_mode):
        activities = ActivityRegistry(
            {"work": ActivitySpec("work", 2.0, loads={"bogus": 1.0})}
        )
        chart = StateChart(
            "simple", (ChartState("work", activity="work"),), (), "work"
        )
        wfms = SimulatedWFMS(
            server_types=server_types(),
            configuration=SystemConfiguration({"engine": 1, "app": 1}),
            workflow_types=[SimulatedWorkflowType(chart, activities, 0.5)],
            rng_mode=rng_mode,
        )
        with pytest.raises(ValidationError, match="unknown server type"):
            wfms.run(duration=100.0)
