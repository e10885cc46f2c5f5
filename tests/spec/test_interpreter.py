"""Tests for the executable state-chart interpreter."""

import random
from collections import Counter

import pytest

from repro.exceptions import ModelError, ValidationError
from repro.spec.events import ECARule, Not, SetCondition, Var
from repro.spec.interpreter import (
    ActiveState,
    GuardedResolver,
    InterpreterListener,
    ProbabilisticResolver,
    StateChartInterpreter,
)
from repro.spec.statechart import ChartState, ChartTransition, StateChart


def linear_chart():
    return StateChart(
        "lin",
        (ChartState("a", activity="a"), ChartState("b", activity="b"),
         ChartState("end", mean_duration=0.1)),
        (ChartTransition("a", "b", ECARule("a_DONE")),
         ChartTransition("b", "end", ECARule("b_DONE"))),
        "a",
    )


def branching_chart():
    return StateChart(
        "branch",
        (ChartState("decide", activity="decide"),
         ChartState("yes", activity="yes"),
         ChartState("no", activity="no"),
         ChartState("end", mean_duration=0.1)),
        (ChartTransition("decide", "yes", ECARule(guard=Var("Approved")),
                         0.7),
         ChartTransition("decide", "no",
                         ECARule(guard=Not(Var("Approved"))), 0.3),
         ChartTransition("yes", "end"),
         ChartTransition("no", "end")),
        "decide",
    )


def parallel_chart():
    left = StateChart(
        "left",
        (ChartState("l1", activity="l1"), ChartState("l2", activity="l2")),
        (ChartTransition("l1", "l2"),),
        "l1",
    )
    right = StateChart("right", (ChartState("r1", activity="r1"),), (), "r1")
    return StateChart(
        "par",
        (ChartState("fork", regions=(left, right)),
         ChartState("end", mean_duration=0.1)),
        (ChartTransition("fork", "end"),),
        "fork",
    )


class RecordingListener(InterpreterListener):
    def __init__(self):
        self.entered = []
        self.exited = []
        self.activities = []
        self.completed = False

    def on_state_entered(self, active: ActiveState):
        self.entered.append(active.path)

    def on_state_exited(self, active: ActiveState):
        self.exited.append(active.path)

    def on_activity_started(self, activity_name, path):
        self.activities.append(activity_name)

    def on_workflow_completed(self):
        self.completed = True


class TestLinearExecution:
    def test_run_to_completion_visits_in_order(self):
        interpreter = StateChartInterpreter(linear_chart())
        interpreter.start()
        assert interpreter.run_to_completion() == ["a", "b", "end"]
        assert interpreter.is_completed

    def test_listener_callbacks(self):
        listener = RecordingListener()
        interpreter = StateChartInterpreter(
            linear_chart(), listener=listener
        )
        interpreter.start()
        interpreter.run_to_completion()
        assert listener.completed
        assert listener.activities == ["a", "b"]
        assert ("lin", "a") in listener.entered

    def test_completion_condition_set(self):
        interpreter = StateChartInterpreter(linear_chart())
        interpreter.start()
        leaf = interpreter.active_states()[0]
        interpreter.advance(leaf.path)
        assert interpreter.environment.get("a_DONE") is True

    def test_manual_stepping(self):
        interpreter = StateChartInterpreter(linear_chart())
        interpreter.start()
        assert [a.state.name for a in interpreter.active_states()] == ["a"]
        interpreter.advance(("lin", "a"))
        assert [a.state.name for a in interpreter.active_states()] == ["b"]


class TestBranching:
    def test_guarded_resolver_follows_conditions(self):
        interpreter = StateChartInterpreter(
            branching_chart(), resolver=GuardedResolver()
        )
        interpreter.start()
        interpreter.set_condition("Approved", True)
        trace = interpreter.run_to_completion()
        assert "yes" in trace and "no" not in trace

    def test_guarded_resolver_negative_branch(self):
        interpreter = StateChartInterpreter(
            branching_chart(), resolver=GuardedResolver()
        )
        interpreter.start()
        trace = interpreter.run_to_completion()
        assert "no" in trace

    def test_probabilistic_resolver_frequencies(self):
        counts = Counter()
        rng = random.Random(99)
        for _ in range(2000):
            interpreter = StateChartInterpreter(
                branching_chart(), resolver=ProbabilisticResolver(rng)
            )
            interpreter.start()
            trace = interpreter.run_to_completion()
            counts["yes" if "yes" in trace else "no"] += 1
        assert counts["yes"] / 2000 == pytest.approx(0.7, abs=0.04)

    def test_probabilistic_resolver_requires_annotations(self):
        chart = StateChart(
            "w",
            (ChartState("a", activity="a"), ChartState("b", activity="b"),
             ChartState("c", activity="c"),
             ChartState("end", mean_duration=0.1)),
            (ChartTransition("a", "b"), ChartTransition("a", "c"),
             ChartTransition("b", "end"), ChartTransition("c", "end")),
            "a",
        )
        interpreter = StateChartInterpreter(
            chart, resolver=ProbabilisticResolver(random.Random(1))
        )
        interpreter.start()
        with pytest.raises(ModelError, match="probability"):
            interpreter.advance(("w", "a"))

    def test_guarded_resolver_no_enabled_transition(self):
        chart = StateChart(
            "w",
            (ChartState("a", activity="a"),
             ChartState("end", mean_duration=0.1)),
            (ChartTransition("a", "end", ECARule(guard=Var("NeverSet"))),),
            "a",
        )
        interpreter = StateChartInterpreter(chart, resolver=GuardedResolver())
        interpreter.start()
        with pytest.raises(ModelError, match="no outgoing transition"):
            interpreter.advance(("w", "a"))


class TestParallelism:
    def test_regions_start_together(self):
        interpreter = StateChartInterpreter(parallel_chart())
        interpreter.start()
        names = sorted(a.state.name for a in interpreter.active_states())
        assert names == ["l1", "r1"]

    def test_join_waits_for_all_regions(self):
        interpreter = StateChartInterpreter(parallel_chart())
        interpreter.start()
        interpreter.advance(("par", "fork", "right", "r1"))
        # Right region done, left still running: composite not left yet.
        names = [a.state.name for a in interpreter.active_states()]
        assert names == ["l1"]
        interpreter.advance(("par", "fork", "left", "l1"))
        interpreter.advance(("par", "fork", "left", "l2"))
        names = [a.state.name for a in interpreter.active_states()]
        assert names == ["end"]

    def test_full_parallel_run(self):
        interpreter = StateChartInterpreter(parallel_chart())
        interpreter.start()
        trace = interpreter.run_to_completion()
        assert set(trace) == {"l1", "l2", "r1", "end"}
        assert interpreter.is_completed

    def test_paths_disambiguate_regions(self):
        interpreter = StateChartInterpreter(parallel_chart())
        interpreter.start()
        paths = {a.path for a in interpreter.active_states()}
        assert ("par", "fork", "left", "l1") in paths
        assert ("par", "fork", "right", "r1") in paths


class TestTransitionActions:
    def test_actions_execute_on_fire(self):
        chart = StateChart(
            "w",
            (ChartState("a", activity="a"),
             ChartState("end", mean_duration=0.1)),
            (ChartTransition(
                "a", "end",
                ECARule(actions=(SetCondition("Archived", True),)),
            ),),
            "a",
        )
        interpreter = StateChartInterpreter(chart)
        interpreter.start()
        interpreter.run_to_completion()
        assert interpreter.environment.get("Archived") is True

    def test_entry_actions_set_conditions(self):
        entered = ChartState(
            "a",
            mean_duration=1.0,
            entry_actions=(SetCondition("Entered", True),),
        )
        chart = StateChart("w", (entered,), (), "a")
        interpreter = StateChartInterpreter(chart)
        interpreter.start()
        assert interpreter.environment.get("Entered") is True


class TestLifecycleErrors:
    def test_double_start_rejected(self):
        interpreter = StateChartInterpreter(linear_chart())
        interpreter.start()
        with pytest.raises(ModelError):
            interpreter.start()

    def test_advance_before_start_rejected(self):
        interpreter = StateChartInterpreter(linear_chart())
        with pytest.raises(ModelError):
            interpreter.advance(("lin", "a"))

    def test_advance_wrong_path_rejected(self):
        interpreter = StateChartInterpreter(linear_chart())
        interpreter.start()
        with pytest.raises(ValidationError, match="no active leaf"):
            interpreter.advance(("lin", "b"))

    def test_advance_after_completion_rejected(self):
        interpreter = StateChartInterpreter(linear_chart())
        interpreter.start()
        interpreter.run_to_completion()
        with pytest.raises(ModelError):
            interpreter.advance(("lin", "a"))
