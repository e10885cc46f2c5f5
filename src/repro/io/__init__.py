"""JSON import/export: model objects, projects, WfCommons."""

from repro.io.serialization import (
    Project,
    activity_from_dict,
    activity_to_dict,
    load_project,
    project_from_dict,
    project_to_dict,
    save_project,
    server_type_from_dict,
    server_type_to_dict,
    server_types_from_list,
    server_types_to_list,
    workflow_from_dict,
    workflow_state_from_dict,
    workflow_state_to_dict,
    workflow_to_dict,
)
from repro.io.wfcommons import wfcommons_to_spec

__all__ = [
    "Project",
    "activity_from_dict",
    "activity_to_dict",
    "load_project",
    "project_from_dict",
    "project_to_dict",
    "save_project",
    "server_type_from_dict",
    "server_type_to_dict",
    "server_types_from_list",
    "server_types_to_list",
    "wfcommons_to_spec",
    "workflow_from_dict",
    "workflow_state_from_dict",
    "workflow_state_to_dict",
    "workflow_to_dict",
]
