"""JSON (de)serialization of model objects.

A configuration-tool deployment needs its inputs — server landscape,
workflow definitions, arrival rates — as data, not code.  This module
round-trips the model layer through plain JSON-compatible dictionaries:
server types, activities and (nested) workflow definitions, plus a
``Project`` bundle tying a whole study together for the command-line
interface.

All ``*_from_dict`` functions validate through the model constructors,
so a hand-edited file fails with the same errors as bad code would.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.core.model_types import (
    ActivitySpec,
    ServerRole,
    ServerTypeIndex,
    ServerTypeSpec,
)
from repro.core.performance import Workload, WorkloadItem
from repro.core.workflow_model import WorkflowDefinition, WorkflowState
from repro.exceptions import ValidationError


# ----------------------------------------------------------------------
# Server types
# ----------------------------------------------------------------------
def server_type_to_dict(spec: ServerTypeSpec) -> dict[str, Any]:
    """Serialize one server type."""
    result: dict[str, Any] = {
        "name": spec.name,
        "mean_service_time": spec.mean_service_time,
        "second_moment_service_time": spec.second_moment_service_time,
        "cost": spec.cost,
        "role": spec.role.value,
    }
    if spec.failure_rate > 0.0:
        result["failure_rate"] = spec.failure_rate
    if math.isfinite(spec.repair_rate):
        result["repair_rate"] = spec.repair_rate
    return result


def server_type_from_dict(data: Mapping[str, Any]) -> ServerTypeSpec:
    """Deserialize one server type."""
    _require_keys(data, {"name", "mean_service_time"}, "server type")
    return ServerTypeSpec(
        name=data["name"],
        mean_service_time=float(data["mean_service_time"]),
        second_moment_service_time=(
            float(data["second_moment_service_time"])
            if "second_moment_service_time" in data
            and data["second_moment_service_time"] is not None
            else None
        ),
        failure_rate=float(data.get("failure_rate", 0.0)),
        repair_rate=float(data.get("repair_rate", math.inf)),
        cost=float(data.get("cost", 1.0)),
        role=ServerRole(data.get("role", ServerRole.OTHER.value)),
    )


def server_types_to_list(index: ServerTypeIndex) -> list[dict[str, Any]]:
    """Serialize a server type index (order-preserving)."""
    return [server_type_to_dict(spec) for spec in index.specs]


def server_types_from_list(items: list) -> ServerTypeIndex:
    """Deserialize a server type index."""
    return ServerTypeIndex(
        server_type_from_dict(item) for item in items
    )


# ----------------------------------------------------------------------
# Activities and workflows
# ----------------------------------------------------------------------
def activity_to_dict(spec: ActivitySpec) -> dict[str, Any]:
    """Serialize one activity type."""
    return {
        "name": spec.name,
        "mean_duration": spec.mean_duration,
        "loads": dict(spec.loads),
        "interactive": spec.interactive,
    }


def activity_from_dict(data: Mapping[str, Any]) -> ActivitySpec:
    """Deserialize one activity type."""
    _require_keys(data, {"name", "mean_duration"}, "activity")
    return ActivitySpec(
        name=data["name"],
        mean_duration=float(data["mean_duration"]),
        loads={
            str(key): float(value)
            for key, value in dict(data.get("loads", {})).items()
        },
        interactive=bool(data.get("interactive", False)),
    )


def workflow_state_to_dict(state: WorkflowState) -> dict[str, Any]:
    """Serialize one workflow state (recursively for subworkflows)."""
    result: dict[str, Any] = {"name": state.name}
    if state.activity is not None:
        result["activity"] = activity_to_dict(state.activity)
    if state.subworkflows:
        result["subworkflows"] = [
            workflow_to_dict(child) for child in state.subworkflows
        ]
    if state.mean_duration is not None:
        result["mean_duration"] = state.mean_duration
    return result


def workflow_state_from_dict(data: Mapping[str, Any]) -> WorkflowState:
    """Deserialize one workflow state."""
    _require_keys(data, {"name"}, "workflow state")
    return WorkflowState(
        name=data["name"],
        activity=(
            activity_from_dict(data["activity"])
            if data.get("activity") is not None
            else None
        ),
        subworkflows=tuple(
            workflow_from_dict(child)
            for child in data.get("subworkflows", [])
        ),
        mean_duration=(
            float(data["mean_duration"])
            if data.get("mean_duration") is not None
            else None
        ),
    )


def workflow_to_dict(definition: WorkflowDefinition) -> dict[str, Any]:
    """Serialize a workflow definition (recursively)."""
    return {
        "name": definition.name,
        "initial_state": definition.initial_state,
        "states": [
            workflow_state_to_dict(state) for state in definition.states
        ],
        "transitions": [
            {"source": source, "target": target, "probability": probability}
            for (source, target), probability
            in sorted(definition.transitions.items())
        ],
    }


def workflow_from_dict(data: Mapping[str, Any]) -> WorkflowDefinition:
    """Deserialize a workflow definition."""
    _require_keys(
        data, {"name", "initial_state", "states", "transitions"}, "workflow"
    )
    transitions: dict[tuple[str, str], float] = {}
    for item in data["transitions"]:
        _require_keys(
            item, {"source", "target", "probability"}, "transition"
        )
        transitions[(item["source"], item["target"])] = float(
            item["probability"]
        )
    return WorkflowDefinition(
        name=data["name"],
        states=tuple(
            workflow_state_from_dict(state) for state in data["states"]
        ),
        transitions=transitions,
        initial_state=data["initial_state"],
    )


# ----------------------------------------------------------------------
# Project bundles
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Project:
    """A complete configuration study: landscape, workflows, rates.

    The JSON on-disk format of the command-line interface.
    """

    server_types: ServerTypeIndex
    workflows: tuple[WorkflowDefinition, ...]
    arrival_rates: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [workflow.name for workflow in self.workflows]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate workflow names in {names}")
        unknown = set(self.arrival_rates) - set(names)
        if unknown:
            raise ValidationError(
                f"arrival rates for unknown workflows: {sorted(unknown)}"
            )

    def workload(self) -> Workload:
        """The project's workload (workflows with positive rates)."""
        items = [
            WorkloadItem(workflow, self.arrival_rates.get(workflow.name, 0.0))
            for workflow in self.workflows
        ]
        return Workload(items)


def project_to_dict(project: Project) -> dict[str, Any]:
    """Serialize a project bundle."""
    return {
        "server_types": server_types_to_list(project.server_types),
        "workflows": [
            workflow_to_dict(workflow) for workflow in project.workflows
        ],
        "arrival_rates": dict(sorted(project.arrival_rates.items())),
    }


def project_from_dict(data: Mapping[str, Any]) -> Project:
    """Deserialize a project bundle."""
    _require_keys(data, {"server_types", "workflows"}, "project")
    return Project(
        server_types=server_types_from_list(data["server_types"]),
        workflows=tuple(
            workflow_from_dict(workflow) for workflow in data["workflows"]
        ),
        arrival_rates={
            str(name): float(rate)
            for name, rate in dict(data.get("arrival_rates", {})).items()
        },
    )


def save_project(project: Project, path: str | Path) -> None:
    """Write a project bundle as pretty-printed JSON."""
    Path(path).write_text(
        json.dumps(project_to_dict(project), indent=2, sort_keys=True)
        + "\n"
    )


def load_project(path: str | Path) -> Project:
    """Read a project bundle from JSON."""
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ValidationError(f"project file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON in {path}: {exc}") from exc
    return project_from_dict(data)


def _require_keys(
    data: Mapping[str, Any], keys: set[str], what: str
) -> None:
    missing = keys - set(data)
    if missing:
        raise ValidationError(
            f"{what} record is missing keys: {sorted(missing)}"
        )
