"""Importer for the WfCommons JSON instance format.

WfCommons (arXiv 2105.14352) publishes real and synthetic scientific
workflow *instances* as JSON documents: a DAG of tasks with runtimes and
parent/child dependencies.  This module maps such an instance onto a
:class:`~repro.scenarios.spec.WorkflowSpec` so real workflow traces flow
through the same pipeline as the bundled examples — lowering to state
charts, CTMC assessment, configuration search, and simulation — without
special-casing.

Two schema generations are understood:

* the original WorkflowHub/WfCommons layout — ``workflow.tasks`` (or
  ``workflow.jobs``) with per-task ``runtime``/``runtimeInSeconds`` and
  inline ``parents``/``children``;
* the current WfFormat — ``workflow.specification.tasks`` for the DAG
  plus ``workflow.execution.tasks`` for measured ``runtimeInSeconds``.

Mapping.  The paper's model is block-structured (hierarchical fork/join)
rather than general DAG, so the importer applies *level synchronization*:
tasks are grouped by their longest-path depth, and the DAG becomes a
sequence of levels, each a parallel composite over the level's tasks.
This is a conservative approximation — a task may wait for the whole
previous level instead of just its own parents — so the assessed
turnaround upper-bounds the DAG's critical path.  All tasks are mapped to
automated activities (engine/application/communication request counts of
Figure 1) on the standard landscape unless a landscape is supplied.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.exceptions import ValidationError

#: Runtimes at or below zero are clamped to this (minutes); chart states
#: and activities require strictly positive durations.
MIN_DURATION = 1e-3


def _task_runtime(task: Mapping[str, Any]) -> float | None:
    for key in ("runtimeInSeconds", "runtime"):
        if task.get(key) is not None:
            return float(task[key])
    return None


def _normalize_tasks(
    workflow: Mapping[str, Any]
) -> list[dict[str, Any]]:
    """Extract ``(name, runtime, parents)`` rows from either schema."""
    specification = workflow.get("specification")
    if isinstance(specification, Mapping) and specification.get("tasks"):
        # Current WfFormat: structure and measurements live apart.
        runtimes: dict[str, float] = {}
        execution = workflow.get("execution")
        if isinstance(execution, Mapping):
            for task in execution.get("tasks", []):
                runtime = _task_runtime(task)
                if runtime is not None:
                    runtimes[str(task.get("id"))] = runtime
        rows = []
        for task in specification["tasks"]:
            identity = str(task.get("id", task.get("name")))
            rows.append({
                "name": identity,
                "runtime": runtimes.get(identity, _task_runtime(task)),
                "parents": [str(p) for p in task.get("parents", [])],
            })
        return rows
    tasks = workflow.get("tasks", workflow.get("jobs"))
    if not tasks:
        raise ValidationError(
            "WfCommons instance has no tasks (checked "
            "workflow.specification.tasks, workflow.tasks, workflow.jobs)"
        )
    return [
        {
            "name": str(task.get("name", task.get("id"))),
            "runtime": _task_runtime(task),
            "parents": [str(p) for p in task.get("parents", [])],
        }
        for task in tasks
    ]


def _levelize(rows: list[dict[str, Any]]) -> list[list[dict[str, Any]]]:
    """Group tasks by longest-path depth (level synchronization)."""
    by_name = {row["name"]: row for row in rows}
    levels: dict[str, int] = {}

    def level_of(name: str, trail: tuple[str, ...] = ()) -> int:
        if name in levels:
            return levels[name]
        if name in trail:
            raise ValidationError(
                f"WfCommons instance has a dependency cycle through "
                f"{name!r}"
            )
        row = by_name.get(name)
        if row is None:
            raise ValidationError(
                f"WfCommons instance references unknown parent {name!r}"
            )
        parents = row["parents"]
        value = (
            0 if not parents
            else 1 + max(level_of(p, trail + (name,)) for p in parents)
        )
        levels[name] = value
        return value

    # Iterative-friendly: resolve in input order (recursion depth is
    # bounded by the longest dependency chain).
    for row in rows:
        level_of(row["name"])
    depth = max(levels.values()) + 1
    grouped: list[list[dict[str, Any]]] = [[] for _ in range(depth)]
    for row in rows:
        grouped[levels[row["name"]]].append(row)
    return grouped


def _sanitize(name: str, used: set[str]) -> str:
    """A chart-safe, unique state name derived from a task identity."""
    cleaned = "".join(
        ch if ch.isalnum() or ch in "_-" else "_" for ch in name
    ) or "Task"
    candidate = cleaned
    suffix = 1
    while candidate in used:
        suffix += 1
        candidate = f"{cleaned}_{suffix}"
    used.add(candidate)
    return candidate


def wfcommons_to_spec(
    document: Mapping[str, Any],
    name: str | None = None,
    server_types=None,
    arrival_rate: float = 0.0,
    seconds_per_time_unit: float = 60.0,
):
    """Map one parsed WfCommons instance document to a ``WorkflowSpec``.

    ``seconds_per_time_unit`` converts task runtimes (seconds in
    WfCommons) to the model's time unit (minutes by default).  Returns a
    :class:`~repro.scenarios.spec.WorkflowSpec`.
    """
    from repro.scenarios.spec import (
        ArrivalSpec,
        WorkflowSpec,
        activity,
        parallel,
        region,
        routing,
        sequence,
    )
    from repro.workflows.common import (
        automated_activity,
        standard_server_types,
    )

    workflow = document.get("workflow")
    if not isinstance(workflow, Mapping):
        raise ValidationError(
            "not a WfCommons instance: missing 'workflow' object"
        )
    workflow_name = name if name is not None else str(
        document.get("name", workflow.get("name", "WfCommonsImport"))
    )
    rows = _normalize_tasks(workflow)
    grouped = _levelize(rows)

    used: set[str] = set()
    activities = []
    blocks = []
    for index, level in enumerate(grouped):
        states = []
        for row in level:
            state = _sanitize(row["name"], used)
            runtime = row["runtime"]
            duration = max(
                (runtime if runtime is not None else MIN_DURATION)
                / seconds_per_time_unit,
                MIN_DURATION,
            )
            activities.append(automated_activity(state, duration))
            states.append(state)
        if len(states) == 1:
            blocks.append(activity(states[0]))
        else:
            blocks.append(parallel(
                f"Level{index}_S",
                *(
                    region(f"{state}_SC", activity(state))
                    for state in states
                ),
            ))
    exit_state = _sanitize(f"{workflow_name}_EXIT_S", used)
    blocks.append(routing(exit_state, MIN_DURATION))
    return WorkflowSpec(
        name=workflow_name,
        body=sequence(*blocks),
        activities=tuple(activities),
        server_types=(
            server_types if server_types is not None
            else standard_server_types()
        ),
        arrival=ArrivalSpec(rate=arrival_rate),
    )
