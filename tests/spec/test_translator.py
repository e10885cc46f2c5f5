"""Tests for the state-chart -> model translation (Section 3.2)."""

import pytest

from repro.core.model_types import ActivitySpec
from repro.exceptions import ValidationError
from repro.spec.events import ECARule
from repro.spec.statechart import ChartState, ChartTransition, StateChart
from repro.spec.translator import (
    DEFAULT_ROUTING_DURATION,
    ActivityRegistry,
    definition_to_chart,
    translate_chart,
)


@pytest.fixture
def registry():
    return ActivityRegistry(
        {
            "A": ActivitySpec("A", 2.0, loads={"srv": 1.0}),
            "B": ActivitySpec("B", 3.0, loads={"srv": 2.0}),
        }
    )


class TestActivityRegistry:
    def test_lookup(self, registry):
        assert registry.get("A").mean_duration == 2.0
        assert "A" in registry
        assert "Z" not in registry

    def test_unknown_activity_rejected(self, registry):
        with pytest.raises(ValidationError, match="unknown activity"):
            registry.get("Z")

    def test_key_name_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ActivityRegistry({"X": ActivitySpec("Y", 1.0)})


class TestTranslateChart:
    def test_linear_chart(self, registry):
        chart = StateChart(
            "w",
            (ChartState("A", activity="A"), ChartState("B", activity="B")),
            (ChartTransition("A", "B", ECARule("A_DONE")),),
            "A",
        )
        definition = translate_chart(chart, registry)
        assert definition.state_names == ("A", "B")
        assert definition.transitions == {("A", "B"): 1.0}
        assert definition.state("A").activity.name == "A"

    def test_branching_probabilities_collected(self, registry):
        chart = StateChart(
            "w",
            (ChartState("A", activity="A"), ChartState("B", activity="B"),
             ChartState("exit", mean_duration=0.1)),
            (ChartTransition("A", "B", probability=0.7),
             ChartTransition("A", "exit", probability=0.3),
             ChartTransition("B", "exit")),
            "A",
        )
        definition = translate_chart(chart, registry)
        assert definition.transitions[("A", "B")] == pytest.approx(0.7)
        assert definition.transitions[("A", "exit")] == pytest.approx(0.3)

    def test_parallel_edges_merged(self, registry):
        # Two ECA rules for different business cases between the same
        # state pair collapse into one CTMC transition.
        chart = StateChart(
            "w",
            (ChartState("A", activity="A"),
             ChartState("exit", mean_duration=0.1)),
            (ChartTransition("A", "exit", ECARule("A_DONE"), 0.6),
             ChartTransition("A", "exit", ECARule("Abort"), 0.4)),
            "A",
        )
        definition = translate_chart(chart, registry)
        assert definition.transitions[("A", "exit")] == pytest.approx(1.0)

    def test_missing_probability_annotation_rejected(self, registry):
        chart = StateChart(
            "w",
            (ChartState("A", activity="A"), ChartState("B", activity="B"),
             ChartState("exit", mean_duration=0.1)),
            (ChartTransition("A", "B"), ChartTransition("A", "exit"),
             ChartTransition("B", "exit")),
            "A",
        )
        with pytest.raises(ValidationError, match="probability annotations"):
            translate_chart(chart, registry)

    def test_routing_state_gets_default_duration(self, registry):
        # A routing state declared without an explicit duration falls
        # back to the translator's default.
        chart = StateChart(
            name="w",
            states=(
                ChartState("A", activity="A"),
                ChartState("exit"),  # no duration specified
            ),
            transitions=(ChartTransition("A", "exit"),),
            initial_state="A",
        )
        definition = translate_chart(chart, registry)
        assert definition.state("exit").mean_duration == pytest.approx(
            DEFAULT_ROUTING_DURATION
        )

    def test_composite_state_becomes_subworkflow(self, registry):
        inner = StateChart("inner", (ChartState("B", activity="B"),), (), "B")
        chart = StateChart(
            "w",
            (ChartState("A", activity="A"),
             ChartState("host", regions=(inner,))),
            (ChartTransition("A", "host", ECARule("A_DONE")),),
            "A",
        )
        definition = translate_chart(chart, registry)
        host = definition.state("host")
        assert host.is_subworkflow_state
        assert host.subworkflows[0].name == "inner"
        assert host.subworkflows[0].state("B").activity.name == "B"

    def test_orthogonal_regions_stay_parallel(self, registry):
        region1 = StateChart("r1", (ChartState("A", activity="A"),), (), "A")
        region2 = StateChart("r2", (ChartState("B", activity="B"),), (), "B")
        chart = StateChart(
            "w", (ChartState("par", regions=(region1, region2)),), (), "par"
        )
        definition = translate_chart(chart, registry)
        assert len(definition.state("par").subworkflows) == 2

    def test_invalid_chart_rejected(self, registry):
        looping = StateChart(
            name="w",
            states=(
                ChartState("A", activity="A"),
                ChartState("B", activity="B"),
            ),
            transitions=(
                ChartTransition("A", "B"),
                ChartTransition("B", "A"),
            ),
            initial_state="A",
        )
        with pytest.raises(ValidationError):
            translate_chart(looping, registry)

    def test_unregistered_activity_rejected(self, registry):
        chart = StateChart(
            "w", (ChartState("Unknown", activity="Unknown"),), (), "Unknown"
        )
        with pytest.raises(ValidationError, match="unknown activity"):
            translate_chart(chart, registry)

    def test_bad_default_duration_rejected(self, registry):
        chart = StateChart("w", (ChartState("A", activity="A"),), (), "A")
        with pytest.raises(ValidationError):
            translate_chart(chart, registry, default_routing_duration=0.0)


class TestDefinitionToChart:
    def test_round_trip_preserves_definition(self, registry):
        chart = StateChart(
            "w",
            (ChartState("A", activity="A"), ChartState("B", activity="B"),
             ChartState("exit", mean_duration=0.1)),
            (ChartTransition("A", "B", probability=0.7),
             ChartTransition("A", "exit", probability=0.3),
             ChartTransition("B", "exit")),
            "A",
        )
        definition = translate_chart(chart, registry)
        rebuilt_chart, rebuilt_registry = definition_to_chart(definition)
        round_tripped = translate_chart(rebuilt_chart, rebuilt_registry)
        assert round_tripped.state_names == definition.state_names
        assert round_tripped.transitions == definition.transitions
        for state in definition.states:
            rebuilt = round_tripped.state(state.name)
            assert rebuilt.mean_duration == state.mean_duration
            if state.activity is not None:
                assert rebuilt.activity == state.activity

    def test_round_trip_of_the_paper_workflow(self):
        # The e-commerce example exercises nested subworkflows too.
        from repro.workflows import ecommerce_workflow

        definition = ecommerce_workflow()
        assert any(s.is_subworkflow_state for s in definition.states)
        chart, rebuilt_registry = definition_to_chart(definition)
        round_tripped = translate_chart(chart, rebuilt_registry)
        assert round_tripped.state_names == definition.state_names
        assert round_tripped.transitions == definition.transitions

    def test_registry_collects_nested_activities(self):
        from repro.workflows import ecommerce_workflow

        definition = ecommerce_workflow()
        _, rebuilt_registry = definition_to_chart(definition)
        # Activities referenced only inside subworkflows are present.
        for state in definition.states:
            for sub in state.subworkflows:
                for inner in sub.states:
                    if inner.activity is not None:
                        assert inner.activity.name in rebuilt_registry

    def test_conflicting_activity_definitions_rejected(self):
        from repro.core.model_types import ActivitySpec
        from repro.core.workflow_model import (
            WorkflowDefinition,
            WorkflowState,
        )

        definition = WorkflowDefinition(
            name="w",
            states=(
                WorkflowState("A", activity=ActivitySpec("X", 1.0)),
                WorkflowState("B", activity=ActivitySpec("X", 2.0)),
                WorkflowState("exit", mean_duration=0.1),
            ),
            transitions={("A", "B"): 1.0, ("B", "exit"): 1.0},
            initial_state="A",
        )
        with pytest.raises(ValidationError, match="conflicting"):
            definition_to_chart(definition)
