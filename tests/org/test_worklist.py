"""Tests for worklist management and actor contention."""

import random

import pytest

from repro.exceptions import ValidationError
from repro.org.model import Actor, Organization
from repro.org.worklist import (
    AssignmentPolicy,
    SimulatedWorklist,
)
from repro.sim.engine import Simulator


def make_worklist(
    actor_count=2,
    policy=AssignmentPolicy.LEAST_LOADED,
    roles=None,
    activity_roles=None,
    efficiencies=None,
):
    simulator = Simulator()
    actors = []
    for i in range(actor_count):
        actors.append(
            Actor(
                f"actor{i}",
                roles=frozenset(roles or ()),
                efficiency=(efficiencies or {}).get(i, 1.0),
            )
        )
    worklist = SimulatedWorklist(
        simulator,
        Organization(actors),
        activity_roles=activity_roles,
        policy=policy,
        rng=random.Random(1),
    )
    return simulator, worklist


class TestProcessing:
    def test_single_item_completes_after_duration(self):
        simulator, worklist = make_worklist(1)
        completed = []
        worklist.submit("review", 1, 5.0, completed.append)
        simulator.run()
        assert len(completed) == 1
        assert simulator.now == pytest.approx(5.0)
        assert completed[0].waiting_time == 0.0

    def test_actor_processes_sequentially(self):
        simulator, worklist = make_worklist(1)
        completed = []
        for i in range(3):
            worklist.submit("review", i, 2.0, completed.append)
        simulator.run()
        assert simulator.now == pytest.approx(6.0)
        # Waits: 0, 2, 4.
        waits = sorted(item.waiting_time for item in completed)
        assert waits == pytest.approx([0.0, 2.0, 4.0])

    def test_efficiency_scales_processing(self):
        simulator, worklist = make_worklist(
            1, efficiencies={0: 2.0}
        )
        done = []
        worklist.submit("review", 1, 4.0, done.append)
        simulator.run()
        assert simulator.now == pytest.approx(2.0)

    def test_nonpositive_duration_rejected(self):
        _, worklist = make_worklist(1)
        with pytest.raises(ValidationError):
            worklist.submit("review", 1, 0.0, lambda item: None)


class TestAssignment:
    def test_least_loaded_spreads_items(self):
        simulator, worklist = make_worklist(2)
        for i in range(4):
            worklist.submit("review", i, 10.0, lambda item: None)
        assert worklist.open_items("actor0") == 2
        assert worklist.open_items("actor1") == 2

    def test_round_robin_cycles(self):
        simulator, worklist = make_worklist(
            3, policy=AssignmentPolicy.ROUND_ROBIN
        )
        for i in range(6):
            worklist.submit("review", i, 10.0, lambda item: None)
        assert all(
            worklist.open_items(f"actor{i}") == 2 for i in range(3)
        )

    def test_random_uses_multiple_actors(self):
        simulator, worklist = make_worklist(
            3, policy=AssignmentPolicy.RANDOM
        )
        for i in range(60):
            worklist.submit("review", i, 1000.0, lambda item: None)
        loads = [worklist.open_items(f"actor{i}") for i in range(3)]
        assert all(load > 5 for load in loads)

    def test_role_restriction(self):
        simulator = Simulator()
        organization = Organization(
            [
                Actor("clerk1", roles=frozenset({"clerk"})),
                Actor("boss", roles=frozenset({"manager"})),
            ]
        )
        worklist = SimulatedWorklist(
            simulator, organization,
            activity_roles={"Approve": "manager"},
        )
        item = worklist.submit("Approve", 1, 1.0, lambda item: None)
        assert item.assigned_actor == "boss"

    def test_missing_role_rejected(self):
        simulator, worklist = make_worklist(
            2, activity_roles={"Approve": "manager"}
        )
        with pytest.raises(ValidationError, match="no actor holds role"):
            worklist.submit("Approve", 1, 1.0, lambda item: None)

    def test_unknown_actor_query_rejected(self):
        _, worklist = make_worklist(1)
        with pytest.raises(ValidationError):
            worklist.open_items("ghost")


class TestReporting:
    def test_report_contents(self):
        simulator, worklist = make_worklist(2)
        for i in range(4):
            worklist.submit("review", i, 2.0, lambda item: None)
        simulator.run()
        simulator.schedule(4.0, lambda: None)
        simulator.run()
        report = worklist.report()
        assert report.waiting_samples == 4
        assert set(report.actors) == {"actor0", "actor1"}
        total = sum(m.completed_items for m in report.actors.values())
        assert total == 4
        assert "Worklist" in report.format_text()
        # Each actor worked 4 of 8 time units.
        for measurement in report.actors.values():
            assert measurement.utilization == pytest.approx(0.5)


class TestWFMSIntegration:
    def _run(self, actor_count):
        from repro.core.model_types import (
            ActivitySpec,
            ServerTypeIndex,
            ServerTypeSpec,
        )
        from repro.core.performance import SystemConfiguration
        from repro.spec.events import ECARule
        from repro.spec.statechart import (
            ChartState,
            ChartTransition,
            StateChart,
        )
        from repro.spec.translator import ActivityRegistry
        from repro.wfms import SimulatedWFMS, SimulatedWorkflowType

        types = ServerTypeIndex([ServerTypeSpec("engine", 0.01)])
        activities = ActivityRegistry(
            {
                "Review": ActivitySpec(
                    "Review", 5.0, loads={"engine": 1.0},
                    interactive=True,
                )
            }
        )
        chart = StateChart(
            "wf",
            (ChartState("Review", activity="Review"),
             ChartState("done", mean_duration=0.01)),
            (ChartTransition("Review", "done", ECARule("Review_DONE")),),
            "Review",
        )
        organization = Organization(
            [Actor(f"actor{i}") for i in range(actor_count)]
        )
        wfms = SimulatedWFMS(
            types,
            SystemConfiguration({"engine": 1}),
            [SimulatedWorkflowType(chart, activities, 0.5)],
            seed=9,
            inject_failures=False,
            organization=organization,
        )
        return wfms.run(duration=3000.0, warmup=200.0)

    def test_actor_contention_inflates_turnaround(self):
        # Offered interactive load: 0.5/min * 5 min = 2.5 busy actors.
        scarce = self._run(actor_count=3)
        plentiful = self._run(actor_count=12)
        scarce_turnaround = scarce.workflow_types["wf"].mean_turnaround_time
        plentiful_turnaround = (
            plentiful.workflow_types["wf"].mean_turnaround_time
        )
        # With plenty of actors the CTMC's ~5 min holds; with 3 actors
        # (utilization ~0.83) worklist queueing inflates it visibly.
        assert plentiful_turnaround == pytest.approx(5.0, rel=0.15)
        assert scarce_turnaround > plentiful_turnaround * 1.2

    def test_worklist_report_attached(self):
        report = self._run(actor_count=3)
        assert report.worklist is not None
        assert report.worklist.waiting_samples > 0
        assert "Worklist" in report.format_text()
