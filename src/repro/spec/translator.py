"""Translation of state charts into the stochastic model layer (§3.2).

This is the *mapping* component of the configuration tool (Section 7.1):
it turns a workflow specification (a state chart with probability
annotations) into the :class:`~repro.core.workflow_model.WorkflowDefinition`
from which the CTMC of Figure 4 is built.

Mapping rules:

* every top-level chart state becomes one workflow execution state;
* a state that starts an activity becomes an activity state (residence
  time = the activity's mean turnaround time);
* a composite state becomes a subworkflow state whose children are the
  recursively translated regions (parallel regions stay parallel);
* transition probabilities come from the chart's annotations; a state
  with a single un-annotated outgoing transition implicitly has
  probability 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.model_types import ActivitySpec
from repro.core.workflow_model import WorkflowDefinition, WorkflowState
from repro.exceptions import ValidationError
from repro.spec.statechart import ChartState, ChartTransition, StateChart
from repro.spec.validation import Outgoing, _outgoing, ensure_valid

#: Residence time assigned to routing states that specify none.  Pure
#: control-flow states are near-instantaneous; the CTMC still needs a
#: positive residence time.
DEFAULT_ROUTING_DURATION = 1e-3


@dataclass(frozen=True)
class ActivityRegistry:
    """Catalogue of activity types available to the translation.

    Maps activity names (as referenced by ``st!(...)`` / the ``activity``
    shorthand) to their :class:`~repro.core.model_types.ActivitySpec`,
    i.e. mean durations and per-server-type load vectors.
    """

    activities: Mapping[str, ActivitySpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        activities = dict(self.activities)
        for name, spec in activities.items():
            if name != spec.name:
                raise ValidationError(
                    f"registry key {name!r} does not match activity name "
                    f"{spec.name!r}"
                )
        object.__setattr__(self, "activities", activities)

    def get(self, name: str) -> ActivitySpec:
        """The activity spec registered under ``name`` (raises if unknown)."""
        try:
            return self.activities[name]
        except KeyError:
            raise ValidationError(
                f"unknown activity {name!r}; registered: "
                f"{sorted(self.activities)}"
            ) from None

    def __contains__(self, name: object) -> bool:
        return name in self.activities


def translate_chart(
    chart: StateChart,
    registry: ActivityRegistry,
    default_routing_duration: float = DEFAULT_ROUTING_DURATION,
    validate: bool = True,
) -> WorkflowDefinition:
    """Translate a (validated) state chart into a workflow definition.

    Raises :class:`ValidationError` if the chart is structurally invalid,
    references unregistered activities, or branches without probability
    annotations.
    """
    if validate:
        ensure_valid(chart)
    if default_routing_duration <= 0.0:
        raise ValidationError("default_routing_duration must be positive")

    states = tuple(
        _translate_state(state, registry, default_routing_duration)
        for state in chart.states
    )
    transitions = _transition_probabilities(chart.name, _outgoing(chart))
    return WorkflowDefinition(
        name=chart.name,
        states=states,
        transitions=transitions,
        initial_state=chart.initial_state,
    )


def _translate_state(
    state: ChartState,
    registry: ActivityRegistry,
    default_routing_duration: float,
) -> WorkflowState:
    if state.is_composite:
        children = tuple(
            translate_chart(
                region, registry, default_routing_duration, validate=False
            )
            for region in state.regions
        )
        return WorkflowState(name=state.name, subworkflows=children)
    return _leaf_state(
        state.name, state.activity, state.mean_duration, registry,
        default_routing_duration,
    )


def _leaf_state(
    name: str,
    activity: str | None,
    mean_duration: float | None,
    registry: ActivityRegistry,
    default_routing_duration: float,
) -> WorkflowState:
    """An activity state, or a routing state with a default duration."""
    if activity is not None:
        return WorkflowState(
            name=name,
            activity=registry.get(activity),
            mean_duration=mean_duration,
        )
    duration = (
        mean_duration if mean_duration is not None
        else default_routing_duration
    )
    return WorkflowState(name=name, mean_duration=duration)


def _transition_probabilities(
    chart_name: str, outgoing: Outgoing
) -> dict[tuple[str, str], float]:
    """Collect annotated branching probabilities per transition.

    Parallel edges between the same state pair (e.g. two ECA rules for
    different business cases with the same source and target) have their
    probabilities summed.
    """
    result: dict[tuple[str, str], float] = {}
    for state_name, edges in outgoing.items():
        if not edges:
            continue
        if len(edges) == 1 and edges[0][1] is None:
            probabilities = [1.0]
        else:
            probabilities = [probability for _, probability in edges]
            if None in probabilities:
                raise ValidationError(
                    f"chart {chart_name}: state {state_name} branches "
                    "without probability annotations; annotate every "
                    "outgoing transition (designer estimate or calibrated "
                    "from audit trails)"
                )
        for (target, _), probability in zip(edges, probabilities):
            key = (state_name, target)
            result[key] = result.get(key, 0.0) + probability
    return result


def definition_to_chart(
    definition: WorkflowDefinition,
) -> tuple[StateChart, ActivityRegistry]:
    """Inverse translation: a workflow definition back into a state chart.

    Project files store :class:`WorkflowDefinition` objects (the
    model-level view), but the simulated WFMS executes state charts.
    This reconstructs a chart whose probabilistic interpretation is
    exactly the definition: activity states keep their activity (and any
    per-workflow duration override), subworkflow states become
    nested/orthogonal regions, routing states keep their mean duration,
    and every transition carries the definition's branching probability.
    Returns the chart together with the registry of every referenced
    activity.
    """
    activities: dict[str, ActivitySpec] = {}
    chart = _definition_to_chart(definition, activities)
    ensure_valid(chart)
    return chart, ActivityRegistry(activities)


def _definition_to_chart(
    definition: WorkflowDefinition,
    activities: dict[str, ActivitySpec],
) -> StateChart:
    states: list[ChartState] = []
    for state in definition.states:
        if state.is_subworkflow_state:
            regions = tuple(
                _definition_to_chart(child, activities)
                for child in state.subworkflows
            )
            states.append(ChartState(name=state.name, regions=regions))
        elif state.activity is not None:
            spec = state.activity
            existing = activities.get(spec.name)
            if existing is not None and existing != spec:
                raise ValidationError(
                    f"workflow {definition.name}: conflicting definitions "
                    f"of activity {spec.name!r}"
                )
            activities[spec.name] = spec
            states.append(
                ChartState(
                    name=state.name,
                    activity=spec.name,
                    mean_duration=state.mean_duration,
                )
            )
        else:
            states.append(
                ChartState(
                    name=state.name, mean_duration=state.mean_duration
                )
            )
    transitions = tuple(
        ChartTransition(
            source=source, target=target, probability=probability
        )
        for (source, target), probability in definition.transitions.items()
        if probability > 0.0
    )
    return StateChart(
        name=definition.name,
        states=tuple(states),
        transitions=transitions,
        initial_state=definition.initial_state,
    )
