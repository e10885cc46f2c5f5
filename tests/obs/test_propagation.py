"""Tests for cross-process observability snapshot export and merging."""

import pytest

from repro import obs
from repro.core.model_types import (
    ActivitySpec,
    ServerTypeIndex,
    ServerTypeSpec,
)
from repro.core.performance import SystemConfiguration
from repro.exceptions import ValidationError
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import Tracer
from repro.sim.campaign import CampaignPlan, run_campaign
from repro.spec.events import ECARule
from repro.spec.statechart import ChartState, ChartTransition, StateChart
from repro.spec.translator import ActivityRegistry
from repro.wfms import SimulatedWorkflowType


class TestMetricStateMerging:
    def test_counters_add(self):
        left = Counter("c", "help")
        left.inc(3.0)
        right = Counter("c", "help")
        right.inc(4.0)
        left.merge_state(right.export_state())
        assert left.value == 7.0

    def test_gauges_take_the_maximum(self):
        left = Gauge("g")
        left.set(5.0)
        right = Gauge("g")
        right.set(3.0)
        left.merge_state(right.export_state())
        assert left.value == 5.0
        right.merge_state(left.export_state())
        assert right.value == 5.0

    def test_histograms_merge_bucket_wise(self):
        left = Histogram("h", buckets=(1.0, 10.0, 100.0))
        right = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0):
            left.observe(value)
        for value in (5.0, 500.0):
            right.observe(value)
        left.merge_state(right.export_state())
        assert left.count == 5
        assert left.sum == pytest.approx(560.5)
        assert dict(left.cumulative_buckets()) == {1.0: 1, 10.0: 3, 100.0: 4}

    def test_histogram_boundary_mismatch_rejected(self):
        left = Histogram("h", buckets=(1.0, 2.0))
        right = Histogram("h", buckets=(1.0, 3.0))
        with pytest.raises(ValidationError):
            left.merge_state(right.export_state())

    def test_merge_is_order_independent(self):
        snapshots = []
        for value in (2.0, 7.0, 1.0):
            registry = MetricsRegistry()
            registry.inc("jobs", value)
            registry.set_max("depth", value)
            registry.observe("sizes", value)
            snapshots.append(registry.export_snapshot())
        forward = MetricsRegistry()
        for snapshot in snapshots:
            forward.merge_snapshot(snapshot)
        backward = MetricsRegistry()
        for snapshot in reversed(snapshots):
            backward.merge_snapshot(snapshot)
        assert forward.snapshot() == backward.snapshot()


class TestRegistrySnapshots:
    def test_zero_metrics_are_skipped(self):
        registry = MetricsRegistry()
        registry.counter("silent")
        registry.gauge("flat")
        registry.histogram("empty")
        registry.inc("loud", 2.0)
        assert set(registry.export_snapshot()) == {"loud"}

    def test_merge_creates_missing_metrics_with_help_and_kind(self):
        source = MetricsRegistry()
        source.inc("new.counter", 3.0)
        source.histogram("new.hist", "sizes", buckets=(1.0, 2.0)).observe(1.5)
        target = MetricsRegistry()
        assert target.merge_snapshot(source.export_snapshot()) == 2
        assert target.counter("new.counter").value == 3.0
        assert target.histogram("new.hist").count == 1

    def test_merge_bypasses_the_enable_switch(self):
        source = MetricsRegistry()
        source.inc("jobs", 2.0)
        target = MetricsRegistry(enabled=False)
        target.merge_snapshot(source.export_snapshot())
        assert target.counter("jobs").value == 2.0

    def test_unknown_kind_rejected(self):
        target = MetricsRegistry()
        with pytest.raises(ValidationError):
            target.merge_snapshot({"odd": {"kind": "summary", "help": ""}})


class TestTracerSnapshots:
    def test_span_summaries_fold_across_processes(self):
        worker = Tracer()
        with worker.span("solve"):
            pass
        with worker.span("solve"):
            pass
        parent = Tracer()
        with parent.span("solve"):
            pass
        parent.merge_snapshot(worker.export_snapshot())
        summary = parent.span_summary()
        assert summary["solve"]["count"] == 3

    def test_events_ride_along(self):
        worker = Tracer()
        worker.event("worker.done", index=3)
        parent = Tracer()
        parent.merge_snapshot(worker.export_snapshot())
        assert any(
            event.get("event") == "worker.done"
            for event in parent.events
        )

    def test_merged_summary_survives_reset_only_until_reset(self):
        worker = Tracer()
        with worker.span("solve"):
            pass
        parent = Tracer()
        parent.merge_snapshot(worker.export_snapshot())
        parent.reset()
        assert parent.span_summary() == {}


def _plan(replications: int) -> CampaignPlan:
    server_types = ServerTypeIndex(
        [
            ServerTypeSpec(
                "engine", mean_service_time=0.02,
                failure_rate=0.05, repair_rate=0.5,
            ),
            ServerTypeSpec(
                "app", mean_service_time=0.05,
                failure_rate=0.05, repair_rate=0.5,
            ),
        ]
    )
    activities = ActivityRegistry(
        {
            "work": ActivitySpec(
                "work", 2.0, loads={"engine": 2.0, "app": 1.0}
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
    return CampaignPlan(
        server_types=server_types,
        configuration=SystemConfiguration({"engine": 1, "app": 1}),
        workflow_types=(SimulatedWorkflowType(chart, activities, 0.5),),
        duration=120.0,
        warmup=10.0,
        replications=replications,
        base_seed=17,
        inject_failures=True,
    )


def _counter_totals() -> dict[str, float]:
    return {
        name: state["value"]
        for name, state in obs.registry().export_snapshot().items()
        if state["kind"] == "counter" and name != "obs.snapshots_merged"
    }


class TestCampaignPropagation:
    def test_parallel_counters_match_serial(self):
        # The tentpole contract: an instrumented parallel campaign
        # reports the same counter totals as the serial run.
        plan = _plan(replications=4)
        totals = {}
        for workers in (1, 4):
            obs.reset()
            obs.enable()
            try:
                run_campaign(plan, workers=workers)
                totals[workers] = _counter_totals()
            finally:
                obs.disable()
                obs.reset()
        assert totals[1] == totals[4]
        assert totals[1]["sim.events_executed"] > 0
        assert totals[1]["wfms.instances_completed"] > 0

    @pytest.mark.parametrize("workers", [1, 4])
    def test_replications_completed_counts_every_replication(self, workers):
        # Regression: the counter must equal the replication count for
        # serial and parallel runs alike.
        plan = _plan(replications=4)
        obs.reset()
        obs.enable()
        try:
            run_campaign(plan, workers=workers)
            counted = obs.registry().counter(
                "campaign.replications_completed"
            ).value
        finally:
            obs.disable()
            obs.reset()
        assert counted == 4

    def test_unobserved_parallel_campaign_ships_no_snapshots(self):
        plan = _plan(replications=2)
        result = run_campaign(plan, workers=2)
        assert all(
            replication.obs_snapshot is None
            for replication in result.replications
        )

    def test_snapshots_are_stripped_before_aggregation(self):
        plan = _plan(replications=2)
        obs.reset()
        obs.enable()
        try:
            result = run_campaign(plan, workers=2)
        finally:
            obs.disable()
            obs.reset()
        assert all(
            replication.obs_snapshot is None
            for replication in result.replications
        )


class TestModuleLevelSnapshot:
    def test_round_trip_through_the_default_instances(self):
        obs.reset()
        obs.enable()
        try:
            obs.count("linalg.direct.solves", 2.0)
            snapshot = obs.export_snapshot()
            before = obs.registry().counter("linalg.direct.solves").value
            assert obs.merge_snapshot(snapshot) == 1
            after = obs.registry().counter("linalg.direct.solves").value
            assert after == before * 2
            assert obs.registry().counter(
                "obs.snapshots_merged"
            ).value == 1.0
        finally:
            obs.disable()
            obs.reset()

    def test_merge_none_is_a_no_op(self):
        assert obs.merge_snapshot(None) == 0
