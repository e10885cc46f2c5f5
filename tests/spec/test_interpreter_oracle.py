"""The compiled interpreter against the recursive one it replaced.

:class:`ReferenceInterpreter` below is the interpreter as it was before
charts were compiled: a tree of region runtimes that descends path
prefixes on every ``advance``, builds a fresh :class:`ActiveState` per
entry and exit, and samples branches with ``random.choices``
(:class:`ReferenceResolver`).  It is kept here, and only here, as the
test oracle.  The Hypothesis property runs both interpreters in
lockstep, with identically seeded resolvers and the same drawn
advancing schedule, over the charts of the five registry specs, the
seed-2000 generated corpus and hand-built nested and orthogonal charts
(two of them with same-named regions, whose leaves share paths), and
asserts identical entered and exited paths, activity starts,
environments, completion and final RNG state.
"""

from __future__ import annotations

import pickle
import random
from typing import Callable, Mapping

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelError, ValidationError
from repro.scenarios import bundled_scenarios, generate_corpus, spec_to_chart
from repro.spec.events import (
    Action,
    ECARule,
    RaiseEvent,
    SetCondition,
    StartActivity,
    Var,
    completion_event,
)
from repro.spec.interpreter import (
    ActiveState,
    BranchResolver,
    GuardedResolver,
    InterpreterListener,
    ProbabilisticResolver,
    StateChartInterpreter,
    StatePath,
)
from repro.spec.statechart import ChartState, ChartTransition, StateChart


# ----------------------------------------------------------------------
# The reference: the recursive interpreter and choices-based resolver
# ----------------------------------------------------------------------
class ReferenceResolver(BranchResolver):
    """Samples branches with ``random.choices`` on fresh weight lists."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    def choose(self, transitions, event, environment):
        if len(transitions) == 1:
            return transitions[0]
        weights = []
        for transition in transitions:
            if transition.probability is None:
                raise ModelError(
                    f"transition {transition} lacks a probability "
                    "annotation; the probabilistic resolver needs one on "
                    "every branching transition"
                )
            weights.append(transition.probability)
        return self._rng.choices(list(transitions), weights=weights, k=1)[0]


class _RegionRuntime:
    """Execution state of one region (one chart) of a running instance."""

    def __init__(self, chart, path_prefix, interpreter):
        self.chart = chart
        self.path_prefix = path_prefix + (chart.name,)
        self.interpreter = interpreter
        self.current = None
        self.completed = False
        self.child_regions = []

    def enter_initial(self):
        self._enter(self.chart.initial_state)

    def _enter(self, state_name):
        state = self.chart.state(state_name)
        self.current = state_name
        self.child_regions = []
        active = ActiveState(self.path_prefix + (state_name,), state)
        self.interpreter._listener.on_state_entered(active)
        for action in state.all_entry_actions:
            self.interpreter._execute_action(action, active.path)
        if state.is_composite:
            for region in state.regions:
                child = _RegionRuntime(region, active.path, self.interpreter)
                self.child_regions.append(child)
                child.enter_initial()

    def active_states(self):
        if self.completed or self.current is None:
            return []
        state = self.chart.state(self.current)
        if state.is_composite:
            leaves = []
            for child in self.child_regions:
                leaves.extend(child.active_states())
            return leaves
        return [ActiveState(self.path_prefix + (self.current,), state)]

    def advance(self, path):
        if self.completed or self.current is None:
            return False
        own_path = self.path_prefix + (self.current,)
        state = self.chart.state(self.current)
        if state.is_composite:
            if path[: len(own_path)] != own_path:
                return False
            for child in self.child_regions:
                if child.advance(path):
                    break
            else:
                return False
            if all(child.completed for child in self.child_regions):
                self._complete_current(state)
            return True
        if path != own_path:
            return False
        self._complete_current(state)
        return True

    def _complete_current(self, state):
        active = ActiveState(self.path_prefix + (self.current,), state)
        event = None
        if state.activity is not None:
            event = completion_event(state.activity)
            self.interpreter._environment[event] = True
        self.interpreter._listener.on_state_exited(active)
        outgoing = self.chart.outgoing(self.current)
        if not outgoing:
            self.current = None
            self.completed = True
            return
        transition = self.interpreter._resolver.choose(
            outgoing, event, self.interpreter._environment
        )
        for action in transition.rule.actions:
            self.interpreter._execute_action(action, active.path)
        self._enter(transition.target)


class ReferenceInterpreter:
    """The recursive interpreter: same public surface, no compilation."""

    def __init__(
        self,
        chart: StateChart,
        resolver: BranchResolver | None = None,
        listener: InterpreterListener | None = None,
        activity_starter: Callable[[str, StatePath], None] | None = None,
    ) -> None:
        self._resolver = resolver or GuardedResolver()
        self._listener = listener or InterpreterListener()
        self._activity_starter = activity_starter
        self._environment: dict[str, bool] = {}
        self._root = _RegionRuntime(chart, (), self)

    @property
    def environment(self) -> Mapping[str, bool]:
        return dict(self._environment)

    @property
    def is_completed(self) -> bool:
        return self._root.completed

    def start(self) -> None:
        self._root.enter_initial()

    def active_states(self) -> tuple[ActiveState, ...]:
        return tuple(self._root.active_states())

    def advance(self, path: StatePath) -> None:
        if self.is_completed:
            raise ModelError("instance already completed")
        if not self._root.advance(tuple(path)):
            raise ValidationError(
                f"no active leaf state at path {tuple(path)!r}; active: "
                f"{[active.path for active in self.active_states()]}"
            )
        if self.is_completed:
            self._listener.on_workflow_completed()

    def _execute_action(self, action: Action, path: StatePath) -> None:
        if isinstance(action, StartActivity):
            self._listener.on_activity_started(action.activity_name, path)
            if self._activity_starter is not None:
                self._activity_starter(action.activity_name, path)
            return
        if isinstance(action, SetCondition):
            self._environment[action.name] = action.value
            return
        if isinstance(action, RaiseEvent):
            self._environment[action.event_name] = True
            return
        raise ModelError(f"unknown action type {type(action).__name__}")


# ----------------------------------------------------------------------
# Charts
# ----------------------------------------------------------------------
def _chart(name, states, transitions, initial):
    return StateChart(
        name,
        tuple(states),
        tuple(ChartTransition(*t) for t in transitions),
        initial,
    )


def _act(name, **kwargs):
    return ChartState(name, activity=name, **kwargs)


def _route(name, **kwargs):
    return ChartState(name, mean_duration=0.5, **kwargs)


def _loop_region(name, prefix):
    """``a`` (looping back with 0.4) then ``end``."""
    return _chart(
        name,
        [_act(f"{prefix}a"), _route(f"{prefix}end")],
        [
            (f"{prefix}a", f"{prefix}a", ECARule(), 0.4),
            (f"{prefix}a", f"{prefix}end", ECARule(), 0.6),
        ],
        f"{prefix}a",
    )


def hand_built_charts() -> list[StateChart]:
    """Nested, orthogonal and same-named-region charts."""
    left = _chart(
        "left",
        [_act("l1"), _act("l2")],
        [("l1", "l2")],
        "l1",
    )
    right = _loop_region("right", "r")
    fork_join = _chart(
        "forkjoin",
        [
            _act("prep", entry_actions=(SetCondition("Ready", True),)),
            ChartState("fork", regions=(left, right)),
            _route("end"),
        ],
        [
            ("prep", "fork", ECARule(actions=(RaiseEvent("Forked"),))),
            ("fork", "prep", ECARule(), 0.3),
            ("fork", "end", ECARule(), 0.7),
        ],
        "prep",
    )
    inner = _chart(
        "inner",
        [_act("i1"), _act("i2"), _route("i3")],
        [
            ("i1", "i2", ECARule(), 0.5),
            ("i1", "i3", ECARule(), 0.5),
            ("i2", "i3"),
        ],
        "i1",
    )
    sub = _chart(
        "sub",
        [ChartState("nest", regions=(inner,)), _act("after")],
        [("nest", "after")],
        "nest",
    )
    nested = _chart(
        "nested",
        [
            ChartState("outer", regions=(sub, _loop_region("side", "s"))),
            # The final state is itself a composite.
            ChartState("last", regions=(left,)),
        ],
        [("outer", "last")],
        "outer",
    )
    # Two orthogonal regions both called "twin": their leaves "x" share
    # a path, and the first region must be the one advanced.
    twin_first = _chart(
        "twin",
        [_act("x"), _act("y"), _route("z")],
        [("x", "y"), ("y", "z")],
        "x",
    )
    twin_second = _chart("twin", [_act("x"), _route("w")], [("x", "w")], "x")
    twins = _chart(
        "twins",
        [ChartState("both", regions=(twin_first, twin_second)), _route("end")],
        [("both", "end")],
        "both",
    )
    # Same-named regions one level down: the shared path runs through
    # composite states of the same name.
    deep = _chart(
        "deep",
        [
            ChartState(
                "both",
                regions=(
                    _chart(
                        "twin",
                        [ChartState("box", regions=(twin_first,))],
                        [],
                        "box",
                    ),
                    _chart(
                        "twin",
                        [ChartState("box", regions=(twin_second,)), _act("q")],
                        [("box", "q")],
                        "box",
                    ),
                ),
            ),
        ],
        [],
        "both",
    )
    guarded = _chart(
        "guarded",
        [_act("g"), _act("yes"), _act("no")],
        [
            ("g", "yes", ECARule(guard=Var("g_DONE")), 0.25),
            ("g", "no", ECARule(), 0.75),
        ],
        "g",
    )
    return [fork_join, nested, twins, deep, guarded]


def corpus_charts() -> list[StateChart]:
    """The five registry specs and the seed-2000 corpus, lowered."""
    specs = [entry.spec() for entry in bundled_scenarios()]
    specs.extend(generate_corpus(40, master_seed=2000))
    return [spec_to_chart(spec) for spec in specs]


HAND_BUILT = hand_built_charts()
CORPUS = corpus_charts()


# ----------------------------------------------------------------------
# Running both interpreters in lockstep
# ----------------------------------------------------------------------
class Recorder(InterpreterListener):
    def __init__(self):
        self.events: list[tuple] = []

    def on_state_entered(self, active):
        self.events.append(("entered", active.path, active.state.name))

    def on_state_exited(self, active):
        self.events.append(("exited", active.path, active.state.name))

    def on_activity_started(self, activity_name, path):
        self.events.append(("activity", activity_name, path))

    def on_workflow_completed(self):
        self.events.append(("completed",))


def _outcome(call):
    try:
        call()
    except (ModelError, ValidationError) as error:
        return type(error), str(error)
    return None


def run_lockstep(chart, seed, schedule, max_steps=400):
    """Drive both interpreters; assert they agree after every step."""
    rngs = random.Random(seed), random.Random(seed)
    starts: tuple[list, list] = ([], [])
    recorders = Recorder(), Recorder()
    new = StateChartInterpreter(
        chart,
        resolver=ProbabilisticResolver(rngs[0]),
        listener=recorders[0],
        activity_starter=lambda name, path: starts[0].append((name, path)),
    )
    old = ReferenceInterpreter(
        chart,
        resolver=ReferenceResolver(rngs[1]),
        listener=recorders[1],
        activity_starter=lambda name, path: starts[1].append((name, path)),
    )
    new.start()
    old.start()
    for step in range(max_steps):
        assert recorders[0].events == recorders[1].events
        assert starts[0] == starts[1]
        assert new.environment == old.environment
        assert new.is_completed == old.is_completed
        assert new.active_states() == old.active_states()
        assert rngs[0].getstate() == rngs[1].getstate()
        if new.is_completed:
            break
        active = new.active_states()
        path = active[schedule[step % len(schedule)] % len(active)].path
        outcomes = _outcome(lambda: new.advance(path)), _outcome(
            lambda: old.advance(path)
        )
        assert outcomes[0] == outcomes[1]
        if outcomes[0] is not None:
            break
    return new


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    chart=st.one_of(st.sampled_from(HAND_BUILT), st.sampled_from(CORPUS)),
    seed=st.integers(0, 2**32 - 1),
    schedule=st.lists(st.integers(0, 7), min_size=1, max_size=12),
)
def test_compiled_interpreter_matches_reference(chart, seed, schedule):
    run_lockstep(chart, seed, schedule)


def test_first_same_named_region_wins():
    twins = HAND_BUILT[2]
    interpreter = StateChartInterpreter(twins)
    interpreter.start()
    shared = ("twins", "both", "twin", "x")
    assert [a.path for a in interpreter.active_states()] == [shared, shared]
    interpreter.advance(shared)
    # The first region moved on to "y"; the second still waits in "x".
    assert [a.state.name for a in interpreter.active_states()] == ["y", "x"]
    interpreter.advance(shared)  # now only the second region matches
    assert [a.state.name for a in interpreter.active_states()] == ["y", "w"]


@pytest.mark.parametrize("chart", HAND_BUILT, ids=lambda chart: chart.name)
def test_compiled_chart_pickles_and_compares_by_value(chart):
    run_lockstep(chart, seed=1, schedule=[0])  # compiles the chart
    restored = pickle.loads(pickle.dumps(chart))
    assert restored == chart
    assert repr(restored) == repr(chart)
    run_lockstep(restored, seed=1, schedule=[0])


def test_resolver_matches_random_choices_on_plain_sequences():
    transitions = (
        ChartTransition("a", "b", probability=0.2),
        ChartTransition("a", "c", probability=0.3),
        ChartTransition("a", "d", probability=0.5),
    )
    ours, theirs = random.Random(5), random.Random(5)
    resolver, reference = ProbabilisticResolver(ours), ReferenceResolver(theirs)
    for _ in range(200):
        assert resolver.choose(list(transitions), None, {}) is (
            reference.choose(transitions, None, {})
        )
    assert ours.getstate() == theirs.getstate()
