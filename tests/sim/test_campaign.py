"""Tests for the replicated simulation-campaign runner."""

import dataclasses
import json
import math

import pytest

from repro.core.model_types import (
    ActivitySpec,
    ServerTypeIndex,
    ServerTypeSpec,
)
from repro.core.performance import SystemConfiguration
from repro.exceptions import ValidationError
from repro.sim.campaign import (
    CampaignPlan,
    MetricEstimate,
    run_campaign,
    run_replication,
)
from repro.spec.events import ECARule
from repro.spec.statechart import ChartState, ChartTransition, StateChart
from repro.spec.translator import ActivityRegistry
from repro.wfms import RoutingPolicy, SimulatedWorkflowType

from .test_golden_campaign import make_plan as make_golden_plan


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


def make_plan(replications=3, base_seed=9, failure_rate=0.0, **kwargs):
    return CampaignPlan(
        server_types=server_types(failure_rate),
        configuration=SystemConfiguration({"engine": 1, "app": 1}),
        workflow_types=(simple_workflow_type(),),
        duration=200.0,
        warmup=20.0,
        replications=replications,
        base_seed=base_seed,
        inject_failures=failure_rate > 0.0,
        **kwargs,
    )


class TestCampaignPlan:
    def test_seed_derivation_is_deterministic_and_distinct(self):
        plan = make_plan(replications=8)
        seeds = [plan.seed_for(index) for index in range(8)]
        assert seeds == [plan.seed_for(index) for index in range(8)]
        assert len(set(seeds)) == 8

    def test_seed_out_of_range_rejected(self):
        plan = make_plan(replications=2)
        with pytest.raises(ValidationError):
            plan.seed_for(2)
        with pytest.raises(ValidationError):
            plan.seed_for(-1)

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValidationError):
            make_plan(replications=0)
        with pytest.raises(ValidationError):
            CampaignPlan(
                server_types=server_types(),
                configuration=SystemConfiguration({"engine": 1, "app": 1}),
                workflow_types=(),
                duration=100.0,
            )
        with pytest.raises(ValidationError):
            CampaignPlan(
                server_types=server_types(),
                configuration=SystemConfiguration({"engine": 1, "app": 1}),
                workflow_types=(simple_workflow_type(),),
                duration=-1.0,
            )

    def test_different_base_seeds_different_replication_seeds(self):
        a = make_plan(base_seed=1)
        b = make_plan(base_seed=2)
        assert a.seed_for(0) != b.seed_for(0)


class TestMetricEstimate:
    def test_single_value_has_vacuous_interval(self):
        estimate = MetricEstimate.from_values([3.0])
        assert estimate.mean == 3.0
        assert math.isinf(estimate.half_width)
        # A vacuous interval contains everything: no confidence claim.
        assert estimate.contains(1e9)

    def test_t_interval_from_known_values(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        estimate = MetricEstimate.from_values(values)
        assert estimate.mean == pytest.approx(3.0)
        assert estimate.n == 5
        # t(0.975, 4) = 2.7764; std = sqrt(2.5).
        expected = 2.7764451052 * math.sqrt(2.5) / math.sqrt(5)
        assert estimate.half_width == pytest.approx(expected, rel=1e-6)
        assert estimate.contains(3.0)
        assert not estimate.contains(3.0 + expected + 1e-9)

    def test_document_round_trips_through_json(self):
        estimate = MetricEstimate.from_values([1.0, 2.0])
        document = json.loads(json.dumps(estimate.to_document()))
        assert document["n"] == 2
        assert document["mean"] == pytest.approx(1.5)


class TestCampaignDeterminism:
    def test_serial_rerun_byte_identical(self):
        first = run_campaign(make_plan(), workers=1)
        second = run_campaign(make_plan(), workers=1)
        assert json.dumps(first.to_document(), sort_keys=True) == (
            json.dumps(second.to_document(), sort_keys=True)
        )

    def test_parallel_identical_to_serial(self):
        """Acceptance criterion: the aggregate document is byte-identical
        for any worker count, because replications are seed-determined
        and aggregation happens in replication order.
        """
        serial = run_campaign(make_plan(), workers=1)
        parallel = run_campaign(make_plan(), workers=2)
        assert json.dumps(serial.to_document(), sort_keys=True) == (
            json.dumps(parallel.to_document(), sort_keys=True)
        )

    def test_different_base_seed_changes_document(self):
        first = run_campaign(make_plan(base_seed=1))
        second = run_campaign(make_plan(base_seed=2))
        assert json.dumps(first.to_document()) != (
            json.dumps(second.to_document())
        )


class TestCampaignAggregation:
    def test_aggregates_cover_all_replications(self):
        plan = make_plan(replications=4)
        result = run_campaign(plan)
        assert len(result.replications) == 4
        assert [r.index for r in result.replications] == [0, 1, 2, 3]
        aggregate = result.workflow_types["simple"]
        assert aggregate.total_completed == sum(
            r.report.workflow_types["simple"].completed_instances
            for r in result.replications
        )
        # The event-level pool merges every replication's turnarounds.
        assert aggregate.pooled_turnaround.count == (
            aggregate.total_completed
        )
        assert aggregate.turnaround.n == 4
        assert not math.isinf(aggregate.turnaround.half_width)

    def test_campaign_strips_trails_but_run_replication_keeps_them(self):
        plan = make_plan(replications=2)
        result = run_campaign(plan)
        for replication in result.replications:
            assert not replication.report.trail.instances
        full_report = run_replication(plan, 0)
        assert full_report.trail.instances
        assert full_report.trail.service_requests

    def test_replication_reports_match_single_runs(self):
        plan = make_plan(replications=2)
        result = run_campaign(plan)
        solo = plan.build_wfms(1).run(
            duration=plan.duration, warmup=plan.warmup
        )
        via_campaign = result.replications[1].report
        assert via_campaign.workflow_types["simple"].mean_turnaround_time == (
            solo.workflow_types["simple"].mean_turnaround_time
        )
        assert via_campaign.server_types["app"].utilization == (
            solo.server_types["app"].utilization
        )

    def test_failure_campaign_pools_unavailability(self):
        result = run_campaign(
            make_plan(replications=3, failure_rate=0.05)
        )
        estimate = result.system_unavailability
        assert estimate.n == 3
        assert 0.0 < estimate.mean < 1.0
        assert 0.0 < result.pooled_system_unavailability < 1.0

    def test_workers_must_be_positive(self):
        with pytest.raises(ValidationError):
            run_campaign(make_plan(), workers=0)

    def test_format_text_mentions_every_metric_group(self):
        result = run_campaign(make_plan(replications=2))
        text = result.format_text()
        assert "replications" in text
        assert "simple" in text
        assert "engine" in text and "app" in text


class TestTrailFreeReplications:
    """A replication without an audit trail simulates the same run."""

    @pytest.mark.parametrize("rng_mode", ["exact", "fast"])
    @pytest.mark.parametrize(
        "policy", list(RoutingPolicy), ids=lambda policy: policy.value
    )
    def test_same_reports_and_events_without_the_trail(
        self, rng_mode, policy
    ):
        plan = dataclasses.replace(
            make_golden_plan(policy), rng_mode=rng_mode
        )
        for index in range(plan.replications):
            free = plan.build_wfms(index)
            free_report = free.run(duration=plan.duration, warmup=plan.warmup)
            kept = plan.build_wfms(index, record_trail=True)
            kept_report = kept.run(duration=plan.duration, warmup=plan.warmup)
            assert repr(free_report) == repr(kept_report)
            assert free.logical_events == kept.logical_events
            trail = free_report.trail
            assert not trail.state_visits
            assert not trail.service_requests
            assert not trail.instances
            assert kept_report.trail.instances
            assert kept_report.trail.service_requests

    @pytest.mark.parametrize("rng_mode", ["exact", "fast"])
    @pytest.mark.parametrize(
        "policy", list(RoutingPolicy), ids=lambda policy: policy.value
    )
    def test_server_statistics_end_at_the_window(self, rng_mode, policy):
        # The drain past the window end completes requests too; none of
        # them may reach the statistics the report was read from.
        plan = dataclasses.replace(
            make_golden_plan(policy), rng_mode=rng_mode
        )
        for index in range(plan.replications):
            wfms = plan.build_wfms(index)
            report = wfms.run(duration=plan.duration, warmup=plan.warmup)
            for name, pool in wfms.pools.items():
                counted = sum(
                    server.statistics.waiting_times.count
                    for server in pool.servers
                )
                assert counted == report.server_types[name].completed_requests
