"""Graph-analytic utilities for state charts (networkx-based).

The structural validation of :mod:`repro.spec.validation` implements its
own reachability sweeps; this module exposes richer graph analyses for
tooling and documentation:

* conversion of a chart (one region) into a :class:`networkx.DiGraph`;
* control-flow cycle enumeration (the loops the designer should annotate
  with exit probabilities);
* the *expected-duration critical path* — the acyclic path from the
  initial to the final state maximizing the sum of expected state
  durations, a quick what-dominates-the-turnaround diagnostic;
* dominator analysis: states every instance must pass through
  (synchronization/audit points).

networkx is imported inside each analysis, so importing :mod:`repro.spec`
(which re-exports them) does not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.model_types import ActivitySpec
from repro.exceptions import ValidationError
from repro.spec.statechart import ChartState, StateChart
from repro.spec.translator import ActivityRegistry

if TYPE_CHECKING:
    import networkx as nx


def chart_to_graph(chart: StateChart) -> nx.DiGraph:
    """The chart's top-level control-flow graph.

    Nodes are state names with the :class:`ChartState` attached as the
    ``state`` attribute; edges carry ``probability`` (may be ``None``)
    and ``rule`` attributes.
    """
    import networkx as nx

    graph = nx.DiGraph(name=chart.name)
    for state in chart.states:
        graph.add_node(state.name, state=state)
    for transition in chart.transitions:
        graph.add_edge(
            transition.source,
            transition.target,
            probability=transition.probability,
            rule=transition.rule,
        )
    return graph


def control_flow_cycles(chart: StateChart) -> list[list[str]]:
    """All simple control-flow cycles (loops) of the top-level chart."""
    import networkx as nx

    graph = chart_to_graph(chart)
    return [list(cycle) for cycle in nx.simple_cycles(graph)]


def _state_duration(
    state: ChartState, registry: ActivityRegistry | None
) -> float:
    if state.mean_duration is not None:
        return state.mean_duration
    if state.activity is not None:
        if registry is not None and state.activity in registry:
            return registry.get(state.activity).mean_duration
        return 0.0
    return 0.0


def critical_path(
    chart: StateChart,
    registry: ActivityRegistry | None = None,
) -> tuple[list[str], float]:
    """Longest expected-duration simple path from initial to final state.

    Cycles are ignored (each loop body counted once), so the result is a
    *lower bound* on the worst-case expected path and a diagnostic for
    which chain of states dominates the turnaround time.  Composite
    states contribute the maximum of their regions' critical paths.
    """
    import networkx as nx

    graph = chart_to_graph(chart)
    final = chart.final_state

    durations: dict[str, float] = {}
    for state in chart.states:
        if state.is_composite:
            durations[state.name] = max(
                critical_path(region, registry)[1]
                for region in state.regions
            )
        else:
            durations[state.name] = _state_duration(state, registry)

    best: tuple[float, list[str]] | None = None
    for path in nx.all_simple_paths(graph, chart.initial_state, final):
        total = sum(durations[name] for name in path)
        if best is None or total > best[0]:
            best = (total, list(path))
    if best is None:
        if chart.initial_state == final:
            return [final], durations[final]
        raise ValidationError(
            f"chart {chart.name}: no path from the initial to the final "
            "state"
        )
    return best[1], best[0]


def mandatory_states(chart: StateChart) -> list[str]:
    """States every instance must visit (dominators of the final state).

    Computed as the dominators of the final state in the control-flow
    graph rooted at the initial state — natural audit/synchronization
    points.
    """
    import networkx as nx

    graph = chart_to_graph(chart)
    final = chart.final_state
    initial = chart.initial_state
    if final == initial:
        return [final]
    dominators = nx.immediate_dominators(graph, initial)
    # Some networkx versions omit the root's self-entry.
    dominators.setdefault(initial, initial)
    if final not in dominators:
        raise ValidationError(
            f"chart {chart.name}: final state unreachable"
        )
    chain = [final]
    node = final
    while dominators[node] != node:
        node = dominators[node]
        chain.append(node)
    return list(reversed(chain))


def activity_dependencies(
    chart: StateChart, registry: ActivityRegistry
) -> dict[str, ActivitySpec]:
    """All activities a chart (tree) depends on, resolved to specs."""
    return {
        name: registry.get(name) for name in sorted(chart.activities())
    }
