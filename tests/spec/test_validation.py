"""Tests for state-chart validation."""

import pytest

from repro.exceptions import ValidationError
from repro.spec.events import SetCondition, Var
from repro.spec.statechart import ChartState, ChartTransition, StateChart
from repro.spec.validation import (
    IssueLevel,
    ensure_valid,
    validate_chart,
)


def errors_of(chart):
    return [
        issue for issue in validate_chart(chart)
        if issue.level is IssueLevel.ERROR
    ]


def warnings_of(chart):
    return [
        issue for issue in validate_chart(chart)
        if issue.level is IssueLevel.WARNING
    ]


def chart_without_validation(states, transitions, initial):
    return StateChart(
        name="test",
        states=tuple(states),
        transitions=tuple(transitions),
        initial_state=initial,
    )


class TestFinalStateChecks:
    def test_no_final_state_is_error(self):
        chart = chart_without_validation(
            [ChartState("a", mean_duration=1.0),
             ChartState("b", mean_duration=1.0)],
            [ChartTransition("a", "b"), ChartTransition("b", "a")],
            "a",
        )
        assert any("no final state" in issue.message
                   for issue in errors_of(chart))

    def test_multiple_final_states_is_error(self):
        chart = chart_without_validation(
            [ChartState("a", mean_duration=1.0),
             ChartState("b", mean_duration=1.0),
             ChartState("c", mean_duration=1.0)],
            [ChartTransition("a", "b", probability=0.5),
             ChartTransition("a", "c", probability=0.5)],
            "a",
        )
        assert any("multiple final states" in issue.message
                   for issue in errors_of(chart))


class TestReachabilityChecks:
    def test_unreachable_state_is_error(self):
        chart = chart_without_validation(
            [ChartState("a", mean_duration=1.0),
             ChartState("b", mean_duration=1.0),
             ChartState("island", mean_duration=1.0)],
            [ChartTransition("a", "b"), ChartTransition("island", "b")],
            "a",
        )
        assert any("unreachable" in issue.message
                   for issue in errors_of(chart))

    def test_trap_cycle_is_error(self):
        chart = chart_without_validation(
            [ChartState("a", mean_duration=1.0),
             ChartState("x", mean_duration=1.0),
             ChartState("y", mean_duration=1.0),
             ChartState("end", mean_duration=1.0)],
            [ChartTransition("a", "x", probability=0.5),
             ChartTransition("a", "end", probability=0.5),
             ChartTransition("x", "y"),
             ChartTransition("y", "x")],
            "a",
        )
        assert any("never terminate" in issue.message
                   for issue in errors_of(chart))


class TestProbabilityChecks:
    def test_partial_annotation_is_error(self):
        chart = chart_without_validation(
            [ChartState("a", mean_duration=1.0),
             ChartState("b", mean_duration=1.0),
             ChartState("c", mean_duration=1.0)],
            [ChartTransition("a", "b", probability=0.5),
             ChartTransition("a", "c"),
             ChartTransition("b", "c")],
            "a",
        )
        assert any("only some outgoing" in issue.message
                   for issue in errors_of(chart))

    def test_probabilities_not_summing_is_error(self):
        chart = chart_without_validation(
            [ChartState("a", mean_duration=1.0),
             ChartState("b", mean_duration=1.0),
             ChartState("c", mean_duration=1.0)],
            [ChartTransition("a", "b", probability=0.3),
             ChartTransition("a", "c", probability=0.3),
             ChartTransition("b", "c")],
            "a",
        )
        assert any("sum to" in issue.message for issue in errors_of(chart))

    def test_unannotated_branch_is_warning(self):
        chart = chart_without_validation(
            [ChartState("a", mean_duration=1.0),
             ChartState("b", mean_duration=1.0),
             ChartState("c", mean_duration=1.0)],
            [ChartTransition("a", "b"),
             ChartTransition("a", "c"),
             ChartTransition("b", "c")],
            "a",
        )
        assert any("without probability annotations" in issue.message
                   for issue in warnings_of(chart))


class TestConditionUsage:
    def test_unset_guard_variable_is_warning(self):
        # A chart reading a variable no action ever sets.
        from repro.spec.events import ECARule
        chart = chart_without_validation(
            [ChartState("a", mean_duration=1.0),
             ChartState("b", mean_duration=1.0)],
            [ChartTransition("a", "b", rule=ECARule(guard=Var("External")))],
            "a",
        )
        assert any("never set" in issue.message
                   for issue in warnings_of(chart))

    def test_done_conditions_are_exempt(self):
        from repro.spec.events import ECARule
        chart = chart_without_validation(
            [ChartState("a", activity="x"),
             ChartState("b", mean_duration=1.0)],
            [ChartTransition("a", "b", rule=ECARule(guard=Var("x_DONE")))],
            "a",
        )
        assert not warnings_of(chart)

    def test_set_variable_not_warned(self):
        from repro.spec.events import ECARule
        chart = chart_without_validation(
            [ChartState(
                "a", mean_duration=1.0,
                entry_actions=(SetCondition("Flag", True),),
            ),
             ChartState("b", mean_duration=1.0)],
            [ChartTransition("a", "b", rule=ECARule(guard=Var("Flag")))],
            "a",
        )
        assert not warnings_of(chart)


class TestEnsureValid:
    def test_raises_on_error(self):
        chart = chart_without_validation(
            [ChartState("a", mean_duration=1.0),
             ChartState("b", mean_duration=1.0)],
            [ChartTransition("a", "b"), ChartTransition("b", "a")],
            "a",
        )
        with pytest.raises(ValidationError, match="invalid state chart"):
            ensure_valid(chart)

    def test_passes_warnings(self):
        # Warnings alone must not block.
        chart = chart_without_validation(
            [ChartState("a", mean_duration=1.0),
             ChartState("b", mean_duration=1.0),
             ChartState("c", mean_duration=1.0)],
            [ChartTransition("a", "b"),
             ChartTransition("a", "c"),
             ChartTransition("b", "c")],
            "a",
        )
        ensure_valid(chart)

    def test_validates_nested_regions(self):
        bad_inner = chart_without_validation(
            [ChartState("x", mean_duration=1.0),
             ChartState("y", mean_duration=1.0)],
            [ChartTransition("x", "y"), ChartTransition("y", "x")],
            "x",
        )
        outer = StateChart(
            "outer",
            (ChartState("host", regions=(bad_inner,)),
             ChartState("end", mean_duration=1.0)),
            (ChartTransition("host", "end"),),
            "host",
        )
        with pytest.raises(ValidationError):
            ensure_valid(outer)
