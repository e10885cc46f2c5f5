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
from typing import Iterable

from repro.exceptions import ValidationError
from repro.spec.events import SetCondition
from repro.spec.statechart import StateChart


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
    _ensure_charts_valid(chart.walk_charts())


def _ensure_charts_valid(charts: Iterable[StateChart]) -> None:
    """Raise on the errors of ``charts``, each without its regions."""
    errors = [
        issue
        for chart in charts
        for issue in _validate_single_chart(chart)
        if issue.level is IssueLevel.ERROR
    ]
    if errors:
        raise ValidationError(
            "invalid state chart:\n"
            + "\n".join(f"  {issue}" for issue in errors)
        )


def _error(chart: StateChart, message: str) -> ChartIssue:
    return ChartIssue(IssueLevel.ERROR, chart.name, message)


def _validate_single_chart(chart: StateChart) -> list[ChartIssue]:
    issues: list[ChartIssue] = []

    finals = chart.final_states
    if len(finals) == 0:
        issues.append(_error(
            chart, "no final state (every state has outgoing transitions)"
        ))
    elif len(finals) > 1:
        issues.append(_error(
            chart,
            f"multiple final states {list(finals)}; connect them to a "
            "single termination state",
        ))

    issues.extend(_validate_reachability(chart, finals))
    issues.extend(_validate_probabilities(chart))
    return issues


def _validate_reachability(
    chart: StateChart, finals: tuple[str, ...]
) -> list[ChartIssue]:
    issues: list[ChartIssue] = []
    forward = _reachable_from(chart, chart.initial_state, reverse=False)
    unreachable = set(chart.state_names) - forward
    if unreachable:
        issues.append(_error(
            chart,
            f"states unreachable from the initial state: "
            f"{sorted(unreachable)}",
        ))
    if len(finals) == 1:
        backward = _reachable_from(chart, finals[0], reverse=True)
        trapped = forward - backward
        if trapped:
            issues.append(_error(
                chart,
                f"states from which the final state is unreachable "
                f"(workflow may never terminate): {sorted(trapped)}",
            ))
    return issues


def _reachable_from(
    chart: StateChart, start: str, reverse: bool
) -> set[str]:
    adjacency: dict[str, set[str]] = {name: set() for name in chart.state_names}
    for transition in chart.transitions:
        if reverse:
            adjacency[transition.target].add(transition.source)
        else:
            adjacency[transition.source].add(transition.target)
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for neighbour in adjacency[node]:
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return seen


def _validate_probabilities(chart: StateChart) -> list[ChartIssue]:
    issues: list[ChartIssue] = []
    for state_name in chart.state_names:
        outgoing = chart.outgoing(state_name)
        if not outgoing:
            continue
        annotated = [
            transition
            for transition in outgoing
            if transition.probability is not None
        ]
        if not annotated:
            if len(outgoing) > 1:
                issues.append(
                    ChartIssue(
                        IssueLevel.WARNING,
                        chart.name,
                        f"state {state_name} branches without probability "
                        "annotations; the stochastic translation needs them",
                    )
                )
            continue
        if len(annotated) != len(outgoing):
            issues.append(_error(
                chart,
                f"state {state_name}: only some outgoing transitions "
                "carry probability annotations",
            ))
            continue
        total = sum(
            transition.probability
            for transition in annotated
            if transition.probability is not None
        )
        if abs(total - 1.0) > 1e-9:
            issues.append(_error(
                chart,
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
