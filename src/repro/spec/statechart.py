"""Harel-style state charts as a workflow specification language (§3.1).

A state chart is essentially a finite state machine with a distinguished
initial state and ECA-rule-driven transitions.  Two structuring features
matter for workflow management:

* **nested states** — a state may contain an entire lower-level state
  chart (a *region*); entering the state enters the region's initial
  state, leaving it leaves the whole region (used for subworkflows);
* **orthogonal components** — a state with several regions runs them in
  parallel; all regions enter their initial states simultaneously and the
  composite completes when every region has reached its final state.

For the stochastic translation (Figure 4), transitions carry optional
*probability annotations*: the designer's estimate of the branching
probability, or a value calibrated from audit trails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.exceptions import ValidationError
from repro.spec.events import Action, ECARule, StartActivity


@dataclass(frozen=True)
class ChartState:
    """One state of a state chart.

    Parameters
    ----------
    name:
        State name, unique within its chart.
    activity:
        Convenience shorthand: the activity started upon entry (expands to
        a :class:`StartActivity` entry action); the state then completes
        when the activity does.
    entry_actions:
        Additional actions executed upon entering the state.
    regions:
        Nested state charts: one region nests a subworkflow, several
        regions run orthogonally (in parallel).
    mean_duration:
        For states without an activity and without regions (routing or
        bookkeeping states): the mean time spent in the state, used by the
        stochastic translation.
    """

    name: str
    activity: str | None = None
    entry_actions: tuple[Action, ...] = ()
    regions: tuple["StateChart", ...] = ()
    mean_duration: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("state name must be non-empty")
        object.__setattr__(self, "entry_actions", tuple(self.entry_actions))
        object.__setattr__(self, "regions", tuple(self.regions))
        if self.activity is not None and self.regions:
            raise ValidationError(
                f"state {self.name}: cannot both start an activity and "
                "contain regions"
            )
        if self.mean_duration is not None and self.mean_duration <= 0.0:
            raise ValidationError(
                f"state {self.name}: mean_duration must be positive"
            )
        if self.regions and self.mean_duration is not None:
            raise ValidationError(
                f"state {self.name}: duration of a composite state is "
                "derived from its regions"
            )
        # The interpreter reads the expanded entry actions on every state
        # entry; expand the activity shorthand once instead of per entry.
        object.__setattr__(
            self,
            "_all_entry_actions",
            (StartActivity(self.activity),) + self.entry_actions
            if self.activity is not None
            else self.entry_actions,
        )

    @property
    def is_composite(self) -> bool:
        """Whether the state contains nested regions."""
        return bool(self.regions)

    @property
    def is_orthogonal(self) -> bool:
        """Whether the state runs two or more regions in parallel."""
        return len(self.regions) >= 2

    @property
    def all_entry_actions(self) -> tuple[Action, ...]:
        """Entry actions including the activity shorthand expansion."""
        return self._all_entry_actions


@dataclass(frozen=True)
class ChartTransition:
    """A transition between two states of the same chart."""

    source: str
    target: str
    rule: ECARule = field(default_factory=ECARule)
    probability: float | None = None

    def __post_init__(self) -> None:
        if not self.source or not self.target:
            raise ValidationError("transition endpoints must be non-empty")
        _check_probability(self.source, self.target, self.probability)

    def __str__(self) -> str:
        annotation = (
            f" @{self.probability}" if self.probability is not None else ""
        )
        return f"{self.source} --{self.rule}--> {self.target}{annotation}"


def _check_probability(
    source: str, target: str, probability: float | None
) -> None:
    """Reject an annotation outside ``(0, 1]`` on ``source -> target``."""
    if probability is not None and not 0.0 < probability <= 1.0:
        raise ValidationError(
            f"transition {source}->{target}: probability "
            f"{probability} must lie in (0, 1]"
        )


@dataclass(frozen=True)
class StateChart:
    """A state chart: states, transitions, and a single initial state.

    The *final* state is the unique state without outgoing transitions
    (the paper assumes a single final state; connect multiple terminals to
    an explicit termination state if needed).
    """

    name: str
    states: tuple[ChartState, ...]
    transitions: tuple[ChartTransition, ...]
    initial_state: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("chart name must be non-empty")
        states = tuple(self.states)
        transitions = tuple(self.transitions)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transitions", transitions)
        names = [state.name for state in states]
        if len(set(names)) != len(names):
            raise ValidationError(
                f"chart {self.name}: duplicate state names"
            )
        known = set(names)
        for transition in transitions:
            if transition.source not in known:
                raise ValidationError(
                    f"chart {self.name}: transition from unknown state "
                    f"{transition.source!r}"
                )
            if transition.target not in known:
                raise ValidationError(
                    f"chart {self.name}: transition to unknown state "
                    f"{transition.target!r}"
                )
        if self.initial_state not in known:
            raise ValidationError(
                f"chart {self.name}: unknown initial state "
                f"{self.initial_state!r}"
            )
        # Lookup indexes: the interpreter resolves states and outgoing
        # transitions on every transition fired, so both must be O(1)
        # rather than scans over the state/transition tuples.
        object.__setattr__(
            self,
            "_state_index",
            {state.name: state for state in states},
        )
        outgoing: dict[str, list[ChartTransition]] = {
            name: [] for name in names
        }
        for transition in transitions:
            outgoing[transition.source].append(transition)
        object.__setattr__(
            self,
            "_outgoing_index",
            {
                name: tuple(listed) for name, listed in outgoing.items()
            },
        )

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    @property
    def state_names(self) -> tuple[str, ...]:
        """Names of the states, in definition order."""
        return tuple(state.name for state in self.states)

    def state(self, name: str) -> ChartState:
        """The state called ``name`` (raises if unknown)."""
        try:
            return self._state_index[name]
        except KeyError:
            raise ValidationError(
                f"chart {self.name}: no state named {name!r}"
            ) from None

    def outgoing(self, state_name: str) -> tuple[ChartTransition, ...]:
        """All transitions leaving a state (in definition order)."""
        try:
            return self._outgoing_index[state_name]
        except KeyError:
            raise ValidationError(
                f"chart {self.name}: no state named {state_name!r}"
            ) from None

    def incoming(self, state_name: str) -> tuple[ChartTransition, ...]:
        """All transitions entering a state."""
        self.state(state_name)
        return tuple(
            transition
            for transition in self.transitions
            if transition.target == state_name
        )

    @property
    def final_states(self) -> tuple[str, ...]:
        """States without outgoing transitions."""
        sources = {transition.source for transition in self.transitions}
        return tuple(
            name for name in self.state_names if name not in sources
        )

    @property
    def final_state(self) -> str:
        """The single final state; raises if it is not unique."""
        finals = self.final_states
        if len(finals) != 1:
            raise ValidationError(
                f"chart {self.name}: expected exactly one final state, "
                f"found {list(finals)}"
            )
        return finals[0]

    def walk_charts(self) -> Iterator["StateChart"]:
        """This chart and, depth-first, every nested region chart."""
        yield self
        for state in self.states:
            for region in state.regions:
                yield from region.walk_charts()

    def activities(self) -> frozenset[str]:
        """All activity names referenced anywhere in the chart tree."""
        result: set[str] = set()
        for chart in self.walk_charts():
            for state in chart.states:
                if state.activity is not None:
                    result.add(state.activity)
                for action in state.all_entry_actions:
                    if isinstance(action, StartActivity):
                        result.add(action.activity_name)
        return frozenset(result)
