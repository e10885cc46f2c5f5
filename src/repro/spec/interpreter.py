"""Executable state-chart semantics.

The analytic models only need the stochastic *translation* of a chart;
the simulated WFMS (:mod:`repro.wfms`) additionally needs to *execute*
instances of it: enter states, start activities, fire transitions when
activities complete, run orthogonal regions in parallel, and synchronize
their termination (the join of Figure 3).  This module provides that
runtime.

Execution model (a pragmatic subset of statechart semantics, sufficient
for the paper's workflow charts):

* The driver calls :meth:`StateChartInterpreter.start`, then repeatedly
  inspects :meth:`active_states` (the currently entered leaf states,
  one per active region) and calls :meth:`advance` on a leaf once its
  activity (or routing delay) has finished.
* ``advance`` sets the ``<activity>_DONE`` condition, raises the
  completion event, executes the chosen transition's actions, and enters
  the target state — recursively entering regions of composite states.
* A region completes when its final state is advanced; an orthogonal
  composite completes when *all* its regions have completed, after which
  the parent region leaves the composite via one of its outgoing
  transitions.
* Branching decisions are delegated to a :class:`BranchResolver` —
  probability-annotation-driven for simulation, guard-driven for
  deterministic replay.

A chart is compiled once, on its first interpretation: every state at
every position of the chart tree gets its :class:`ActiveState` (with
its static path), its completion-event name, its outgoing transitions
with their cumulative probabilities, and the leaf states are indexed by
path.  An instance then only records the current state of each region,
so :meth:`StateChartInterpreter.advance` is one index lookup and firing
a transition allocates nothing.  When same-named orthogonal regions
give two active leaves one path, the first region in chart order wins.
"""

from __future__ import annotations

import abc
import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Mapping, Sequence

from repro.exceptions import ModelError, ValidationError
from repro.spec.events import (
    Action,
    RaiseEvent,
    SetCondition,
    StartActivity,
    completion_event,
)
from repro.spec.statechart import ChartState, ChartTransition, StateChart

#: A path uniquely identifying an active leaf state: alternating chart
#: and state names from the root, e.g.
#: ``("EP", "Shipment_S", "Delivery_SC", "CheckStock")``.
StatePath = tuple[str, ...]


@dataclass(frozen=True)
class ActiveState:
    """One currently entered leaf state of a running instance."""

    path: StatePath
    state: ChartState

    @property
    def activity(self) -> str | None:
        """Name of the activity bound to the underlying state, if any."""
        return self.state.activity


class BranchResolver(abc.ABC):
    """Chooses which outgoing transition a completing state takes."""

    @abc.abstractmethod
    def choose(
        self,
        transitions: Sequence[ChartTransition],
        event: str | None,
        environment: Mapping[str, bool],
    ) -> ChartTransition:
        """Pick one of the (non-empty) outgoing transitions."""


class ProbabilisticResolver(BranchResolver):
    """Samples branches according to the probability annotations.

    This is the resolver the simulated WFMS uses: it realizes exactly the
    branching distribution that the stochastic translation assumes, so
    simulation and analysis see the same control-flow statistics.
    """

    def __init__(self, rng: random.Random | None = None) -> None:
        self._rng = rng if rng is not None else random.Random()

    def choose(
        self,
        transitions: Sequence[ChartTransition],
        event: str | None,
        environment: Mapping[str, bool],
    ) -> ChartTransition:
        """Sample one transition by the probability annotations.

        One ``random()`` draw bisected into the cumulative weights,
        exactly as ``random.choices`` samples; a compiled chart's
        transitions bring their cumulative weights along.
        """
        if len(transitions) == 1:
            return transitions[0]
        cumulative = getattr(
            transitions, "cumulative", None
        ) or _cumulative_probabilities(transitions)
        return transitions[
            bisect(
                cumulative,
                self._rng.random() * (cumulative[-1] + 0.0),
                0,
                len(transitions) - 1,
            )
        ]


def _cumulative_probabilities(
    transitions: Sequence[ChartTransition],
) -> list[float]:
    """Running sums of the probability annotations of ``transitions``."""
    for transition in transitions:
        if transition.probability is None:
            raise ModelError(
                f"transition {transition} lacks a probability "
                "annotation; the probabilistic resolver needs one on "
                "every branching transition"
            )
    return list(accumulate(t.probability for t in transitions))


class GuardedResolver(BranchResolver):
    """Takes the first transition whose ECA rule is enabled.

    Deterministic replay semantics: useful for unit tests and for
    re-executing audited instances.  Raises when no rule is enabled.
    """

    def choose(
        self,
        transitions: Sequence[ChartTransition],
        event: str | None,
        environment: Mapping[str, bool],
    ) -> ChartTransition:
        """The first transition whose ECA rule is enabled."""
        for transition in transitions:
            if transition.rule.is_enabled(event, environment):
                return transition
        raise ModelError(
            "no outgoing transition is enabled for event "
            f"{event!r} under {dict(environment)!r}"
        )


class InterpreterListener:
    """Callbacks observing an executing instance; all default to no-ops."""

    def on_state_entered(self, active: ActiveState) -> None:
        """A (leaf or composite) state was entered."""

    def on_state_exited(self, active: ActiveState) -> None:
        """A state was left."""

    def on_activity_started(self, activity_name: str, path: StatePath) -> None:
        """An ``st!(activity)`` took effect."""

    def on_workflow_completed(self) -> None:
        """The root chart reached (and completed) its final state."""


class _Outgoing(tuple):
    """A state's outgoing transitions, compiled.

    ``cumulative`` holds the running sums of the probability
    annotations when there are two or more transitions and all are
    annotated, else ``None``.
    """

    cumulative: list[float] | None


class _Node:
    """One state at one position of a compiled chart tree.

    ``siblings`` maps the state names of its region to their nodes,
    ``slot`` numbers that region position, ``parent`` is the composite
    state the region runs in (``None`` in the root chart) and
    ``regions`` holds the initial states of its own nested regions.
    """

    __slots__ = (
        "active", "actions", "event", "outgoing", "siblings", "regions",
        "slot", "parent",
    )


class _Program:
    """A chart compiled for interpretation (built once per chart)."""

    __slots__ = ("initial", "regions", "leaves")

    def __init__(self, chart: StateChart) -> None:
        #: Number of region positions; each has a slot in an instance's
        #: current-state list.
        self.regions = 0
        #: Leaf states by path; several only under same-named
        #: orthogonal regions, then in chart (depth-first) order.
        self.leaves: dict[StatePath, tuple[_Node, ...]] = {}
        self.initial = self._region(chart, (), None)

    def _region(
        self, chart: StateChart, prefix: StatePath, parent: _Node | None
    ) -> _Node:
        """Compile one region position; returns its initial state."""
        slot = self.regions
        self.regions += 1
        prefix = prefix + (chart.name,)
        siblings: dict[str, _Node] = {}
        for state in chart.states:
            node = siblings[state.name] = _Node()
            node.active = ActiveState(prefix + (state.name,), state)
            node.actions = state.all_entry_actions
            node.event = (
                completion_event(state.activity)
                if state.activity is not None
                else None
            )
            outgoing = node.outgoing = _Outgoing(chart.outgoing(state.name))
            annotated = all(t.probability is not None for t in outgoing)
            outgoing.cumulative = (
                _cumulative_probabilities(outgoing)
                if len(outgoing) > 1 and annotated
                else None
            )
            node.siblings = siblings
            node.slot = slot
            node.parent = parent
            node.regions = tuple(
                self._region(child, node.active.path, node)
                for child in state.regions
            )
            if not node.regions:
                path = node.active.path
                self.leaves[path] = self.leaves.get(path, ()) + (node,)
        return siblings[chart.initial_state]


def _program(chart: StateChart) -> _Program:
    """The compiled form of ``chart``, built on first use and kept."""
    program = chart.__dict__.get("_program")
    if program is None:
        program = _Program(chart)
        # Like the chart's own lookup indexes: not a field, so equality
        # and repr are unchanged.
        object.__setattr__(chart, "_program", program)
    return program


class StateChartInterpreter:
    """Executes one instance of a state-chart workflow specification."""

    def __init__(
        self,
        chart: StateChart,
        resolver: BranchResolver | None = None,
        listener: InterpreterListener | None = None,
        activity_starter: Callable[[str, StatePath], None] | None = None,
    ) -> None:
        self.chart = chart
        self._resolver = resolver or GuardedResolver()
        self._listener = listener or InterpreterListener()
        self._activity_starter = activity_starter
        self._environment: dict[str, bool] = {}
        self._program = program = _program(chart)
        #: Current state of each region slot (``None``: not running).
        self._current: list[_Node | None] = [None] * program.regions
        #: Per slot: regions still running in its composite state.
        self._running: list[int] = [0] * program.regions
        self._started = False
        self._completed = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def environment(self) -> Mapping[str, bool]:
        """Current condition-variable assignment (read-only view)."""
        return dict(self._environment)

    @property
    def is_completed(self) -> bool:
        """Whether the root chart has terminated."""
        return self._completed

    def start(self) -> None:
        """Enter the initial state (and nested initial states)."""
        if self._started:
            raise ModelError("instance already started")
        self._started = True
        self._enter(self._program.initial)

    def active_states(self) -> tuple[ActiveState, ...]:
        """Currently entered leaf states, one per active region."""
        self._require_started()
        leaves: list[ActiveState] = []
        self._collect_leaves(0, leaves)
        return tuple(leaves)

    def advance(self, path: StatePath) -> None:
        """Signal that the leaf state at ``path`` has finished.

        For an activity state this means the activity completed; for a
        routing state, that its delay elapsed.
        """
        self._require_started()
        if self._completed:
            raise ModelError("instance already completed")
        current = self._current
        for node in self._program.leaves.get(tuple(path), ()):
            if current[node.slot] is node:
                break
        else:
            raise ValidationError(
                f"no active leaf state at path {tuple(path)!r}; active: "
                f"{[active.path for active in self.active_states()]}"
            )
        self._complete(node)
        if self._completed:
            self._listener.on_workflow_completed()

    def set_condition(self, name: str, value: bool) -> None:
        """Set a condition variable from the environment (e.g. user input)."""
        self._set_condition(name, value)

    def run_to_completion(self) -> list[str]:
        """Drive the instance until termination, advancing leaves FIFO.

        Returns the sequence of visited leaf-state names — handy for tests
        and for generating synthetic audit trails without a simulator.
        """
        self._require_started()
        visited: list[str] = []
        while not self.is_completed:
            active = self.active_states()
            if not active:  # pragma: no cover - defensive
                raise ModelError("instance stalled without active states")
            leaf = active[0]
            visited.append(leaf.state.name)
            self.advance(leaf.path)
        return visited

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _require_started(self) -> None:
        if not self._started:
            raise ModelError("call start() first")

    def _collect_leaves(self, slot: int, leaves: list[ActiveState]) -> None:
        node = self._current[slot]
        if node is None:
            return
        if node.regions:
            for initial in node.regions:
                self._collect_leaves(initial.slot, leaves)
        else:
            leaves.append(node.active)

    def _enter(self, node: _Node) -> None:
        self._current[node.slot] = node
        active = node.active
        self._listener.on_state_entered(active)
        for action in node.actions:
            self._execute_action(action, active.path)
        if node.regions:
            self._running[node.slot] = len(node.regions)
            for initial in node.regions:
                self._enter(initial)

    def _complete(self, node: _Node) -> None:
        """Leave ``node``: take a transition, or end its region."""
        event = node.event
        if event is not None:
            self._environment[event] = True
        self._listener.on_state_exited(node.active)
        outgoing = node.outgoing
        if outgoing:
            # The live condition dict is handed to the resolver directly
            # (the public ``environment`` property copies it on every
            # read); resolvers must treat it as read-only.
            transition = self._resolver.choose(
                outgoing, event, self._environment
            )
            for action in transition.rule.actions:
                self._execute_action(action, node.active.path)
            self._enter(node.siblings[transition.target])
            return
        self._current[node.slot] = None
        composite = node.parent
        if composite is None:
            self._completed = True
            return
        # Join: the composite completes like an activity would once all
        # its orthogonal regions have terminated.
        self._running[composite.slot] -= 1
        if not self._running[composite.slot]:
            self._complete(composite)

    def _set_condition(self, name: str, value: bool) -> None:
        self._environment[name] = value

    def _execute_action(self, action: Action, path: StatePath) -> None:
        if isinstance(action, StartActivity):
            self._listener.on_activity_started(action.activity_name, path)
            if self._activity_starter is not None:
                self._activity_starter(action.activity_name, path)
            return
        if isinstance(action, SetCondition):
            self._set_condition(action.name, action.value)
            return
        if isinstance(action, RaiseEvent):
            # Events are modelled as momentary conditions: raising an event
            # sets a same-named flag that guards can read in this step.
            self._set_condition(action.event_name, True)
            return
        raise ModelError(f"unknown action type {type(action).__name__}")
