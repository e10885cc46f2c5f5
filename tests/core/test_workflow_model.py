"""Tests for workflow definitions and their CTMC translation (Section 3)."""

import numpy as np
import pytest

from repro.core.model_types import ActivitySpec, ServerTypeIndex, ServerTypeSpec
from repro.core.workflow_model import (
    ABSORBING_STATE_NAME,
    WorkflowDefinition,
    WorkflowState,
    build_workflow_ctmc,
)
from repro.exceptions import ModelError, ValidationError


@pytest.fixture
def server_types():
    return ServerTypeIndex(
        [ServerTypeSpec("comm", 0.1), ServerTypeSpec("engine", 0.2)]
    )


def make_activity(name, duration=1.0, comm=2.0, engine=3.0):
    return ActivitySpec(
        name, mean_duration=duration, loads={"comm": comm, "engine": engine}
    )


def two_step_workflow(duration_a=2.0, duration_b=4.0):
    return WorkflowDefinition(
        name="two-step",
        states=(
            WorkflowState("a", activity=make_activity("a", duration_a)),
            WorkflowState("b", activity=make_activity("b", duration_b)),
        ),
        transitions={("a", "b"): 1.0},
        initial_state="a",
    )


class TestWorkflowState:
    def test_activity_and_subworkflows_exclusive(self):
        child = two_step_workflow()
        with pytest.raises(ValidationError):
            WorkflowState(
                "bad", activity=make_activity("x"), subworkflows=(child,)
            )

    def test_routing_state_requires_duration(self):
        with pytest.raises(ValidationError):
            WorkflowState("route")

    def test_subworkflow_duration_cannot_be_overridden(self):
        child = two_step_workflow()
        with pytest.raises(ValidationError):
            WorkflowState("s", subworkflows=(child,), mean_duration=5.0)

    def test_duration_must_be_positive(self):
        with pytest.raises(ValidationError):
            WorkflowState("route", mean_duration=0.0)


class TestWorkflowDefinition:
    def test_final_state_detected(self):
        assert two_step_workflow().final_state == "b"

    def test_multiple_finals_rejected(self):
        with pytest.raises(ValidationError, match="final state"):
            WorkflowDefinition(
                name="w",
                states=(
                    WorkflowState("a", mean_duration=1.0),
                    WorkflowState("b", mean_duration=1.0),
                    WorkflowState("c", mean_duration=1.0),
                ),
                transitions={("a", "b"): 0.5, ("a", "c"): 0.5},
                initial_state="a",
            )

    def test_outgoing_probabilities_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum to"):
            WorkflowDefinition(
                name="w",
                states=(
                    WorkflowState("a", mean_duration=1.0),
                    WorkflowState("b", mean_duration=1.0),
                ),
                transitions={("a", "b"): 0.9},
                initial_state="a",
            )

    def test_unknown_transition_endpoint_rejected(self):
        with pytest.raises(ValidationError, match="unknown states"):
            WorkflowDefinition(
                name="w",
                states=(WorkflowState("a", mean_duration=1.0),),
                transitions={("a", "zz"): 1.0},
                initial_state="a",
            )

    def test_duplicate_state_names_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            WorkflowDefinition(
                name="w",
                states=(
                    WorkflowState("a", mean_duration=1.0),
                    WorkflowState("a", mean_duration=2.0),
                ),
                transitions={},
                initial_state="a",
            )

    def test_outgoing_lookup(self):
        workflow = two_step_workflow()
        assert workflow.outgoing("a") == {"b": 1.0}
        assert workflow.outgoing("b") == {}


class TestBuildWorkflowCTMC:
    def test_absorbing_state_appended(self, server_types):
        model = build_workflow_ctmc(two_step_workflow(), server_types)
        assert model.state_names[-1] == ABSORBING_STATE_NAME
        assert model.chain.num_states == 3

    def test_turnaround_of_linear_chain(self, server_types):
        model = build_workflow_ctmc(
            two_step_workflow(2.0, 4.0), server_types
        )
        assert model.turnaround_time() == pytest.approx(6.0)

    def test_load_matrix_columns(self, server_types):
        model = build_workflow_ctmc(two_step_workflow(), server_types)
        # Rows ordered (comm, engine); both states load (2, 3).
        np.testing.assert_allclose(model.load_matrix[:, 0], [2.0, 3.0])
        np.testing.assert_allclose(model.load_matrix[:, 2], [0.0, 0.0])

    def test_requests_per_instance(self, server_types):
        model = build_workflow_ctmc(two_step_workflow(), server_types)
        np.testing.assert_allclose(
            model.requests_per_instance(), [4.0, 6.0]
        )

    def test_series_method_close_to_exact(self, server_types):
        model = build_workflow_ctmc(two_step_workflow(), server_types)
        np.testing.assert_allclose(
            model.requests_per_instance(method="series", confidence=0.99999),
            model.requests_per_instance(method="fundamental"),
            rtol=1e-3,
        )

    def test_expected_visits_excludes_absorbing(self, server_types):
        model = build_workflow_ctmc(two_step_workflow(), server_types)
        visits = model.expected_visits()
        assert set(visits) == {"a", "b"}
        assert visits["a"] == pytest.approx(1.0)

    def test_routing_state_has_no_load(self, server_types):
        workflow = WorkflowDefinition(
            name="w",
            states=(
                WorkflowState("a", activity=make_activity("a")),
                WorkflowState("exit", mean_duration=0.5),
            ),
            transitions={("a", "exit"): 1.0},
            initial_state="a",
        )
        model = build_workflow_ctmc(workflow, server_types)
        np.testing.assert_allclose(model.load_matrix[:, 1], [0.0, 0.0])

    def test_duration_override_on_activity_state(self, server_types):
        workflow = WorkflowDefinition(
            name="w",
            states=(
                WorkflowState(
                    "a", activity=make_activity("a", 1.0), mean_duration=9.0
                ),
            ),
            transitions={},
            initial_state="a",
        )
        model = build_workflow_ctmc(workflow, server_types)
        assert model.turnaround_time() == pytest.approx(9.0)

    def test_unknown_server_type_in_activity_rejected(self, server_types):
        activity = ActivitySpec("a", 1.0, loads={"mainframe": 1.0})
        workflow = WorkflowDefinition(
            name="w",
            states=(WorkflowState("a", activity=activity),),
            transitions={},
            initial_state="a",
        )
        with pytest.raises(ModelError, match="unknown server"):
            build_workflow_ctmc(workflow, server_types)

    def test_self_loop_folded_into_residence(self, server_types):
        workflow = WorkflowDefinition(
            name="w",
            states=(
                WorkflowState("retry", activity=make_activity("retry", 2.0)),
                WorkflowState("done", mean_duration=0.5),
            ),
            transitions={
                ("retry", "retry"): 0.25,
                ("retry", "done"): 0.75,
            },
            initial_state="retry",
        )
        model = build_workflow_ctmc(workflow, server_types)
        assert model.turnaround_time() == pytest.approx(2.0 / 0.75 + 0.5)


class TestSubworkflows:
    def test_parallel_children_residence_is_max(self, server_types):
        fast = two_step_workflow(1.0, 1.0)  # turnaround 2
        slow = WorkflowDefinition(
            name="slow",
            states=(
                WorkflowState("x", activity=make_activity("x", 7.0)),
            ),
            transitions={},
            initial_state="x",
        )
        parent = WorkflowDefinition(
            name="parent",
            states=(
                WorkflowState("par", subworkflows=(fast, slow)),
                WorkflowState("end", mean_duration=1.0),
            ),
            transitions={("par", "end"): 1.0},
            initial_state="par",
        )
        model = build_workflow_ctmc(parent, server_types)
        assert model.turnaround_time() == pytest.approx(7.0 + 1.0)

    def test_parallel_children_load_is_sum(self, server_types):
        fast = two_step_workflow()  # loads (4, 6)
        slow = WorkflowDefinition(
            name="slow",
            states=(
                WorkflowState("x", activity=make_activity("x", 7.0)),
            ),
            transitions={},
            initial_state="x",
        )  # loads (2, 3)
        parent = WorkflowDefinition(
            name="parent",
            states=(WorkflowState("par", subworkflows=(fast, slow)),),
            transitions={},
            initial_state="par",
        )
        model = build_workflow_ctmc(parent, server_types)
        np.testing.assert_allclose(
            model.requests_per_instance(), [6.0, 9.0]
        )

    def test_nested_two_levels(self, server_types):
        inner = two_step_workflow(1.0, 1.0)
        middle = WorkflowDefinition(
            name="middle",
            states=(WorkflowState("m", subworkflows=(inner,)),),
            transitions={},
            initial_state="m",
        )
        outer = WorkflowDefinition(
            name="outer",
            states=(WorkflowState("o", subworkflows=(middle,)),),
            transitions={},
            initial_state="o",
        )
        model = build_workflow_ctmc(outer, server_types)
        assert model.turnaround_time() == pytest.approx(2.0)
        np.testing.assert_allclose(
            model.requests_per_instance(), [4.0, 6.0]
        )
