"""Tests for the state-chart structures."""

import pytest

from repro.exceptions import ValidationError
from repro.spec.events import StartActivity
from repro.spec.statechart import ChartState, ChartTransition, StateChart


def linear_chart(name="lin"):
    return StateChart(
        name=name,
        states=(
            ChartState("a", activity="act_a"),
            ChartState("b", activity="act_b"),
        ),
        transitions=(ChartTransition("a", "b"),),
        initial_state="a",
    )


class TestChartState:
    def test_activity_shorthand_expands_to_entry_action(self):
        state = ChartState("s", activity="Check")
        actions = state.all_entry_actions
        assert actions[0] == StartActivity("Check")

    def test_activity_and_regions_exclusive(self):
        with pytest.raises(ValidationError):
            ChartState("s", activity="x", regions=(linear_chart(),))

    def test_orthogonality_flags(self):
        nested = ChartState("s", regions=(linear_chart("r1"),))
        parallel = ChartState(
            "p", regions=(linear_chart("r1"), linear_chart("r2"))
        )
        assert nested.is_composite and not nested.is_orthogonal
        assert parallel.is_composite and parallel.is_orthogonal

    def test_composite_duration_rejected(self):
        with pytest.raises(ValidationError):
            ChartState("s", regions=(linear_chart(),), mean_duration=1.0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValidationError):
            ChartState("s", mean_duration=-1.0)


class TestChartTransition:
    def test_probability_bounds(self):
        with pytest.raises(ValidationError):
            ChartTransition("a", "b", probability=0.0)
        with pytest.raises(ValidationError):
            ChartTransition("a", "b", probability=1.2)
        ChartTransition("a", "b", probability=1.0)  # boundary allowed

    def test_rendering_includes_annotation(self):
        text = str(ChartTransition("a", "b", probability=0.5))
        assert "@0.5" in text


class TestStateChart:
    def test_lookup_helpers(self):
        chart = linear_chart()
        assert chart.state("a").activity == "act_a"
        assert [t.target for t in chart.outgoing("a")] == ["b"]
        assert [t.source for t in chart.incoming("b")] == ["a"]

    def test_final_state_detection(self):
        chart = linear_chart()
        assert chart.final_states == ("b",)
        assert chart.final_state == "b"

    def test_multiple_finals_raise_on_single_accessor(self):
        chart = StateChart(
            name="w",
            states=(
                ChartState("a", activity="x"),
                ChartState("b", mean_duration=1.0),
                ChartState("c", mean_duration=1.0),
            ),
            transitions=(
                ChartTransition("a", "b", probability=0.5),
                ChartTransition("a", "c", probability=0.5),
            ),
            initial_state="a",
        )
        assert set(chart.final_states) == {"b", "c"}
        with pytest.raises(ValidationError):
            _ = chart.final_state

    def test_unknown_endpoints_rejected(self):
        with pytest.raises(ValidationError):
            StateChart(
                name="w",
                states=(ChartState("a", mean_duration=1.0),),
                transitions=(ChartTransition("a", "zz"),),
                initial_state="a",
            )

    def test_duplicate_state_names_rejected(self):
        with pytest.raises(ValidationError):
            StateChart(
                name="w",
                states=(
                    ChartState("a", mean_duration=1.0),
                    ChartState("a", mean_duration=2.0),
                ),
                transitions=(),
                initial_state="a",
            )

    def test_unknown_initial_rejected(self):
        with pytest.raises(ValidationError):
            StateChart(
                name="w",
                states=(ChartState("a", mean_duration=1.0),),
                transitions=(),
                initial_state="zz",
            )

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            StateChart("", (ChartState("a", mean_duration=1.0),), (), "a")

    def test_walk_charts_depth_first(self):
        inner = linear_chart("inner")
        outer = StateChart(
            name="outer",
            states=(
                ChartState("host", regions=(inner,)),
                ChartState("end", mean_duration=1.0),
            ),
            transitions=(ChartTransition("host", "end"),),
            initial_state="host",
        )
        names = [chart.name for chart in outer.walk_charts()]
        assert names == ["outer", "inner"]

    def test_activities_collected_recursively(self):
        inner = linear_chart("inner")
        outer = StateChart(
            name="outer",
            states=(
                ChartState("host", regions=(inner,)),
                ChartState("solo", activity="act_solo"),
            ),
            transitions=(ChartTransition("host", "solo"),),
            initial_state="host",
        )
        assert outer.activities() == {"act_a", "act_b", "act_solo"}
