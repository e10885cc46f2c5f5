"""Tests for JSON (de)serialization round trips."""

import json
import math

import pytest

from repro.core.model_types import ServerRole, ServerTypeSpec
from repro.core.workflow_model import build_workflow_ctmc
from repro.exceptions import ValidationError
from repro.io import (
    Project,
    load_project,
    project_from_dict,
    project_to_dict,
    save_project,
    server_type_from_dict,
    server_type_to_dict,
    workflow_from_dict,
    workflow_to_dict,
)
from repro.workflows import (
    ecommerce_workflow,
    loan_workflow,
    order_processing_workflow,
    standard_server_types,
    extended_server_types,
)


class TestServerTypeRoundTrip:
    def test_full_round_trip(self):
        spec = ServerTypeSpec(
            "app", 0.3, second_moment_service_time=0.2,
            failure_rate=0.01, repair_rate=0.5, cost=2.0,
            role=ServerRole.APPLICATION_SERVER,
        )
        restored = server_type_from_dict(server_type_to_dict(spec))
        assert restored == spec

    def test_failure_free_round_trip(self):
        spec = ServerTypeSpec("x", 1.0)
        restored = server_type_from_dict(server_type_to_dict(spec))
        assert restored.failure_rate == 0.0
        assert math.isinf(restored.repair_rate)

    def test_missing_keys_rejected(self):
        with pytest.raises(ValidationError, match="missing keys"):
            server_type_from_dict({"name": "x"})

    def test_json_serializable(self):
        spec = ServerTypeSpec("x", 1.0, failure_rate=0.1, repair_rate=1.0)
        json.dumps(server_type_to_dict(spec))


class TestWorkflowRoundTrip:
    @pytest.mark.parametrize(
        "factory", [ecommerce_workflow, order_processing_workflow]
    )
    def test_round_trip_preserves_analysis(self, factory):
        types = standard_server_types()
        original = factory()
        restored = workflow_from_dict(workflow_to_dict(original))
        original_model = build_workflow_ctmc(original, types)
        restored_model = build_workflow_ctmc(restored, types)
        assert restored_model.turnaround_time() == pytest.approx(
            original_model.turnaround_time()
        )
        assert list(restored_model.requests_per_instance()) == pytest.approx(
            list(original_model.requests_per_instance())
        )

    def test_nested_subworkflows_survive(self):
        restored = workflow_from_dict(workflow_to_dict(ecommerce_workflow()))
        shipment = restored.state("Shipment_S")
        assert shipment.is_subworkflow_state
        assert {child.name for child in shipment.subworkflows} == {
            "Notify_SC", "Delivery_SC",
        }

    def test_extended_landscape_workflow(self):
        types = extended_server_types()
        restored = workflow_from_dict(workflow_to_dict(loan_workflow()))
        model = build_workflow_ctmc(restored, types)
        assert model.turnaround_time() > 0.0

    def test_json_serializable(self):
        json.dumps(workflow_to_dict(ecommerce_workflow()))

    def test_invalid_payload_validated_by_model(self):
        data = workflow_to_dict(order_processing_workflow())
        data["initial_state"] = "nope"
        with pytest.raises(ValidationError):
            workflow_from_dict(data)


class TestActivityAndStateRoundTrip:
    def test_activity_round_trip(self):
        from repro.core.model_types import ActivitySpec
        from repro.io import activity_from_dict, activity_to_dict

        spec = ActivitySpec(
            "Review", 12.5, loads={"engine": 3.0}, interactive=True
        )
        restored = activity_from_dict(activity_to_dict(spec))
        assert restored == spec

    def test_workflow_state_round_trip(self):
        from repro.core.model_types import ActivitySpec
        from repro.core.workflow_model import WorkflowState
        from repro.io import (
            workflow_state_from_dict,
            workflow_state_to_dict,
        )

        state = WorkflowState(
            "s",
            activity=ActivitySpec("a", 1.0, loads={"x": 2.0}),
            mean_duration=3.0,
        )
        restored = workflow_state_from_dict(workflow_state_to_dict(state))
        assert restored == state

    def test_routing_state_round_trip(self):
        from repro.core.workflow_model import WorkflowState
        from repro.io import (
            workflow_state_from_dict,
            workflow_state_to_dict,
        )

        state = WorkflowState("exit", mean_duration=0.1)
        restored = workflow_state_from_dict(workflow_state_to_dict(state))
        assert restored == state

    def test_server_types_list_round_trip(self):
        from repro.io import server_types_from_list, server_types_to_list

        index = standard_server_types()
        restored = server_types_from_list(server_types_to_list(index))
        assert restored == index


class TestProject:
    def _project(self):
        return Project(
            server_types=standard_server_types(),
            workflows=(ecommerce_workflow(), order_processing_workflow()),
            arrival_rates={"EP": 0.4, "OrderProcessing": 0.2},
        )

    def test_round_trip(self):
        project = self._project()
        restored = project_from_dict(project_to_dict(project))
        assert restored.arrival_rates == project.arrival_rates
        assert [w.name for w in restored.workflows] == [
            "EP", "OrderProcessing",
        ]
        assert restored.server_types == project.server_types

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "project.json"
        save_project(self._project(), path)
        restored = load_project(path)
        assert restored.arrival_rates["EP"] == 0.4

    def test_workload_uses_rates(self):
        workload = self._project().workload()
        assert workload.total_arrival_rate == pytest.approx(0.6)

    def test_unknown_rate_rejected(self):
        with pytest.raises(ValidationError, match="unknown workflows"):
            Project(
                server_types=standard_server_types(),
                workflows=(ecommerce_workflow(),),
                arrival_rates={"Ghost": 1.0},
            )

    def test_duplicate_workflow_names_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            Project(
                server_types=standard_server_types(),
                workflows=(ecommerce_workflow(), ecommerce_workflow()),
            )

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_project(tmp_path / "nope.json")

    def test_corrupt_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="invalid JSON"):
            load_project(path)
