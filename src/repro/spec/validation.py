"""Structural validation of state-chart workflow specifications.

Checks the properties the stochastic translation (Section 3.2) relies on:

* a single initial state and a single final state per chart (recursively
  for all regions);
* every state reachable from the initial state, and the final state
  reachable from every state (absorption is certain);
* probability annotations that form proper distributions: if any outgoing
  transition of a state is annotated, all must be, and they must sum to 1
  (a single un-annotated transition is implicitly probability 1);
* guard variables that are set somewhere before they are read (heuristic
  — reported as warnings, since variables may be set by the environment).

:func:`validate_chart` returns the list of issues; :func:`ensure_valid`
raises :class:`~repro.exceptions.ValidationError` on the first error.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.exceptions import ValidationError
from repro.spec.events import SetCondition
from repro.spec.statechart import StateChart

#: One chart's transitions grouped by source: every state name, in chart
#: order, maps to its outgoing ``(target, probability)`` pairs in
#: transition order (a final state maps to an empty sequence).
Outgoing = Mapping[str, Sequence[tuple[str, float | None]]]


class IssueLevel(enum.Enum):
    """Severity of a validation finding."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class ChartIssue:
    """One validation finding."""

    level: IssueLevel
    chart_name: str
    message: str

    def __str__(self) -> str:
        return f"[{self.level.value}] {self.chart_name}: {self.message}"


def validate_chart(chart: StateChart) -> list[ChartIssue]:
    """Validate a chart and all nested regions; returns all findings."""
    issues: list[ChartIssue] = []
    for sub_chart in chart.walk_charts():
        issues.extend(_validate_single_chart(sub_chart))
    issues.extend(_validate_condition_usage(chart))
    return issues


def ensure_valid(chart: StateChart) -> None:
    """Raise :class:`ValidationError` if the chart has any error.

    The guard-variable scan only produces warnings, so it is skipped.
    """
    _raise_errors(
        issue
        for sub_chart in chart.walk_charts()
        for issue in _validate_single_chart(sub_chart)
    )


def _ensure_structure_valid(
    name: str, initial_state: str, outgoing: Outgoing
) -> None:
    """Raise on the errors of one chart's structure (regions excluded)."""
    _raise_errors(_validate_structure(name, initial_state, outgoing))


def _raise_errors(issues: Iterable[ChartIssue]) -> None:
    errors = [issue for issue in issues if issue.level is IssueLevel.ERROR]
    if errors:
        raise ValidationError(
            "invalid state chart:\n"
            + "\n".join(f"  {issue}" for issue in errors)
        )


def _outgoing(chart: StateChart) -> Outgoing:
    """The chart's transitions as an :data:`Outgoing` mapping."""
    return {
        name: [
            (transition.target, transition.probability)
            for transition in chart.outgoing(name)
        ]
        for name in chart.state_names
    }


def _error(chart_name: str, message: str) -> ChartIssue:
    return ChartIssue(IssueLevel.ERROR, chart_name, message)


def _validate_single_chart(chart: StateChart) -> list[ChartIssue]:
    return _validate_structure(
        chart.name, chart.initial_state, _outgoing(chart)
    )


def _validate_structure(
    name: str, initial_state: str, outgoing: Outgoing
) -> list[ChartIssue]:
    """The structural findings for one chart, in a fixed order.

    Hand-built charts reach this through :func:`_validate_single_chart`;
    spec lowering calls it on the transitions it wired, without a chart.
    """
    issues: list[ChartIssue] = []

    finals = [state for state, edges in outgoing.items() if not edges]
    if len(finals) == 0:
        issues.append(_error(
            name, "no final state (every state has outgoing transitions)"
        ))
    elif len(finals) > 1:
        issues.append(_error(
            name,
            f"multiple final states {finals}; connect them to a "
            "single termination state",
        ))

    issues.extend(_validate_reachability(name, initial_state, outgoing, finals))
    issues.extend(_validate_probabilities(name, outgoing))
    return issues


def _validate_reachability(
    name: str, initial_state: str, outgoing: Outgoing, finals: list[str]
) -> list[ChartIssue]:
    issues: list[ChartIssue] = []
    successors = {
        state: [target for target, _ in edges]
        for state, edges in outgoing.items()
    }
    forward = _reachable_from(initial_state, successors)
    unreachable = set(outgoing) - forward
    if unreachable:
        issues.append(_error(
            name,
            f"states unreachable from the initial state: "
            f"{sorted(unreachable)}",
        ))
    if len(finals) == 1:
        predecessors: dict[str, list[str]] = {state: [] for state in outgoing}
        for state, targets in successors.items():
            for target in targets:
                predecessors[target].append(state)
        trapped = forward - _reachable_from(finals[0], predecessors)
        if trapped:
            issues.append(_error(
                name,
                f"states from which the final state is unreachable "
                f"(workflow may never terminate): {sorted(trapped)}",
            ))
    return issues


def _reachable_from(
    start: str, adjacency: Mapping[str, list[str]]
) -> set[str]:
    seen = {start}
    frontier = [start]
    while frontier:
        for neighbour in adjacency[frontier.pop()]:
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return seen


def _validate_probabilities(
    name: str, outgoing: Outgoing
) -> list[ChartIssue]:
    issues: list[ChartIssue] = []
    for state_name, edges in outgoing.items():
        if not edges:
            continue
        annotated = [
            probability for _, probability in edges if probability is not None
        ]
        if not annotated:
            if len(edges) > 1:
                issues.append(
                    ChartIssue(
                        IssueLevel.WARNING,
                        name,
                        f"state {state_name} branches without probability "
                        "annotations; the stochastic translation needs them",
                    )
                )
            continue
        if len(annotated) != len(edges):
            issues.append(_error(
                name,
                f"state {state_name}: only some outgoing transitions "
                "carry probability annotations",
            ))
            continue
        total = sum(annotated)
        if abs(total - 1.0) > 1e-9:
            issues.append(_error(
                name,
                f"state {state_name}: outgoing probabilities sum to "
                f"{total}, expected 1",
            ))
    return issues


def _validate_condition_usage(chart: StateChart) -> list[ChartIssue]:
    """Warn about guard variables that no action ever sets.

    Activity-completion conditions (``*_DONE``) are set implicitly by the
    runtime and are therefore exempt.
    """
    set_variables: set[str] = set()
    read_variables: set[str] = set()
    for sub_chart in chart.walk_charts():
        for state in sub_chart.states:
            for action in state.all_entry_actions:
                if isinstance(action, SetCondition):
                    set_variables.add(action.name)
        for transition in sub_chart.transitions:
            read_variables |= transition.rule.guard.variables()
            for action in transition.rule.actions:
                if isinstance(action, SetCondition):
                    set_variables.add(action.name)
    undefined = {
        name
        for name in read_variables - set_variables
        if not name.endswith("_DONE")
    }
    if undefined:
        return [
            ChartIssue(
                IssueLevel.WARNING,
                chart.name,
                f"guard variables never set by any action (set by the "
                f"environment?): {sorted(undefined)}",
            )
        ]
    return []
