"""Workflow definitions and their translation into CTMC models (Section 3).

A :class:`WorkflowDefinition` is the model-level view of one workflow type:
a set of execution states connected by transition probabilities.  Each
state either runs an activity, hosts one or more *parallel subworkflows*
(the orthogonal components of the state chart), or is a pure routing state
without load.  :func:`build_workflow_ctmc` translates a definition into an
:class:`~repro.core.ctmc.AbsorbingCTMC` plus the load matrix ``L^t``,
resolving subworkflows hierarchically exactly as Section 4.2.2 prescribes:
the residence time of a subworkflow state is the maximum of the children's
mean turnaround times, and its load entries are the sums of the children's
expected request counts.  The translation is split where Section 4 splits
its analysis: the jump chain and the load matrix, which the request counts
read, are built and validated at once; the residence times and the CTMC,
which only the turnaround reads, when the turnaround is first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal, Mapping

import numpy as np

from repro.core.ctmc import AbsorbingCTMC, fold_self_loops
from repro.core.dtmc import AbsorbingDTMC
from repro.core.model_types import ActivitySpec, ServerTypeIndex
from repro.exceptions import ModelError, ValidationError

#: Name used for the artificial absorbing state appended to every chain.
ABSORBING_STATE_NAME = "__ABSORBED__"


@dataclass(frozen=True)
class WorkflowState:
    """One execution state of a workflow type.

    Exactly one of the following forms:

    * **activity state** — ``activity`` is set; the state's residence time
      defaults to the activity's mean duration and its load to the
      activity's per-execution service requests;
    * **subworkflow state** — ``subworkflows`` is non-empty; residence time
      and load are derived from the (parallel) children;
    * **routing state** — neither is set; ``mean_duration`` is required and
      the state induces no load (e.g. a final bookkeeping state).

    ``mean_duration`` may also be supplied for an activity state to
    override the activity's default duration for this workflow type.
    """

    name: str
    activity: ActivitySpec | None = None
    subworkflows: tuple["WorkflowDefinition", ...] = field(default_factory=tuple)
    mean_duration: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("workflow state name must be non-empty")
        object.__setattr__(self, "subworkflows", tuple(self.subworkflows))
        if self.activity is not None and self.subworkflows:
            raise ValidationError(
                f"state {self.name}: cannot both run an activity and host "
                "subworkflows"
            )
        if (self.activity is None and not self.subworkflows
                and self.mean_duration is None):
            raise ValidationError(
                f"state {self.name}: a routing state needs mean_duration"
            )
        if (self.mean_duration is not None
                and not 0.0 < self.mean_duration < math.inf):  # NaN fails
            raise ValidationError(
                f"state {self.name}: mean_duration must be positive and "
                "finite"
            )
        if self.subworkflows and self.mean_duration is not None:
            raise ValidationError(
                f"state {self.name}: the residence time of a subworkflow "
                "state is derived from its children and cannot be overridden"
            )

    @property
    def is_subworkflow_state(self) -> bool:
        """Whether this state invokes a nested workflow."""
        return bool(self.subworkflows)


@dataclass(frozen=True)
class WorkflowDefinition:
    """A workflow type: states plus transition probabilities.

    Parameters
    ----------
    name:
        Workflow type identifier.
    states:
        The execution states; names must be unique.
    transitions:
        Mapping from ``(source_name, target_name)`` to the probability that
        an instance leaving ``source`` enters ``target``.  Outgoing
        probabilities of every non-final state must sum to one.
    initial_state:
        Name of the single initial state.

    The single *final* state is detected as the unique state without
    outgoing transitions (the paper assumes one final state; multiple final
    states "could be easily connected to an additional termination state",
    which callers can do explicitly).  ``state_names`` and ``final_state``
    are derived once, at construction.
    """

    name: str
    states: tuple[WorkflowState, ...]
    transitions: Mapping[tuple[str, str], float]
    initial_state: str
    #: Names of the states, in definition order.
    state_names: tuple[str, ...] = field(
        init=False, repr=False, compare=False
    )
    #: The unique state without outgoing transitions.
    final_state: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("workflow name must be non-empty")
        states = tuple(self.states)
        object.__setattr__(self, "states", states)
        if not states:
            raise ValidationError(f"workflow {self.name}: needs states")
        names = tuple(state.name for state in states)
        positions = {name: i for i, name in enumerate(names)}
        if len(positions) != len(names):
            raise ValidationError(
                f"workflow {self.name}: duplicate state names"
            )
        object.__setattr__(self, "state_names", names)
        object.__setattr__(self, "_positions", positions)
        transitions = dict(self.transitions)
        object.__setattr__(self, "transitions", transitions)
        # Outgoing probabilities grouped by source, in one pass.
        outgoing: dict[str, dict[str, float]] = {}
        for (source, target), probability in transitions.items():
            if source not in positions or target not in positions:
                raise ValidationError(
                    f"workflow {self.name}: transition {source}->{target} "
                    "references unknown states"
                )
            if not 0.0 < probability <= 1.0:
                raise ValidationError(
                    f"workflow {self.name}: transition {source}->{target} "
                    f"probability {probability} must lie in (0, 1]"
                )
            outgoing.setdefault(source, {})[target] = probability
        object.__setattr__(self, "_outgoing", outgoing)
        if self.initial_state not in positions:
            raise ValidationError(
                f"workflow {self.name}: unknown initial state "
                f"{self.initial_state!r}"
            )
        for name in names:
            if name not in outgoing:
                continue  # final state
            total = sum(outgoing[name].values())
            if abs(total - 1.0) > 1e-9:
                raise ValidationError(
                    f"workflow {self.name}: outgoing probabilities of "
                    f"{name} sum to {total}, expected 1"
                )
        finals = [name for name in names if name not in outgoing]
        if len(finals) != 1:
            raise ValidationError(
                f"workflow {self.name}: expected exactly one final state "
                f"(without outgoing transitions), found {finals}"
            )
        object.__setattr__(self, "final_state", finals[0])

    def state(self, name: str) -> WorkflowState:
        """Look up a state by name."""
        for candidate in self.states:
            if candidate.name == name:
                return candidate
        raise ValidationError(
            f"workflow {self.name}: no state named {name!r}"
        )

    def outgoing(self, name: str) -> dict[str, float]:
        """Outgoing transition probabilities of a state."""
        return dict(self._outgoing.get(name, {}))


@dataclass(frozen=True)
class WorkflowCTMC:
    """The CTMC translation of a workflow type (Figure 4).

    Built in Section 4's two stages.  The request counts (§4.2) read the
    jump chain and the load matrix, which :func:`build_workflow_ctmc`
    builds and validates at once.  The turnaround (§4.1) also reads the
    residence times, among them the turnarounds of the subworkflow
    children; those and :attr:`chain` are built on the first read of the
    chain or of a turnaround.

    Attributes
    ----------
    definition:
        The source workflow definition.
    load_matrix:
        ``k x (n + 1)`` matrix ``L^t``: expected service requests per visit
        of each state, one row per server type (absorbing column is zero).
        Subworkflow states carry the aggregated load of their children.
    server_types:
        The server type index fixing the row order of the load matrix.
    jump_chain:
        The validated embedded jump chain, designer-level self-loops
        folded out: its first ``n`` states are the workflow execution
        states (in definition order), its last state the artificial
        absorbing state ``s_A``.
    initial_state:
        Index of the initial state.
    durations:
        Each execution state's mean duration, before the self-loop
        stretch; a subworkflow state holds its children's translations
        instead, and its duration is their largest turnaround.
    self_loops:
        ``(state index, p_aa)`` of each folded self-loop; the chain
        stretches that state's residence time to ``H_a / (1 - p_aa)``.
    """

    definition: WorkflowDefinition
    load_matrix: np.ndarray
    server_types: ServerTypeIndex
    jump_chain: AbsorbingDTMC
    initial_state: int
    durations: tuple[float | tuple[WorkflowCTMC, ...], ...] = field(
        repr=False
    )
    self_loops: tuple[tuple[int, float], ...] = field(repr=False)

    @cached_property
    def chain(self) -> AbsorbingCTMC:
        """Absorbing CTMC over the jump chain, built on first read.

        Its first ``n`` states are the workflow execution states and its
        last state is ``s_A``, as in :attr:`jump_chain`, which it shares.
        """
        residence_times = np.array(
            [
                max([child.turnaround_time() for child in duration])
                if isinstance(duration, tuple) else duration
                for duration in self.durations
            ] + [0.0],
            dtype=float,
        )
        for state, loop in self.self_loops:
            residence_times[state] /= 1.0 - loop
        return AbsorbingCTMC._of_jump_chain(
            self.jump_chain, residence_times, self.initial_state
        )

    @property
    def state_names(self) -> tuple[str, ...]:
        """Names of the chain's states, in matrix order."""
        return self.jump_chain.state_names

    def turnaround_time(self, method: Literal["direct", "gauss_seidel"] = "direct") -> float:
        """Mean turnaround time ``R_t`` (Section 4.1)."""
        return self.chain.mean_turnaround_time(method=method)

    def requests_per_instance(
        self,
        method: Literal["fundamental", "series"] = "fundamental",
        confidence: float = 0.99,
    ) -> np.ndarray:
        """Expected service requests ``r_{x,t}`` per server type (§4.2).

        ``fundamental`` reads only the jump chain; ``series`` (the
        paper's uniformized algorithm) needs :attr:`chain`.
        """
        if method == "fundamental":
            return self.load_matrix @ self.jump_chain.expected_visits(
                self.initial_state
            )
        result = self.chain.expected_reward_until_absorption(
            self.load_matrix, method=method, confidence=confidence
        )
        return np.asarray(result, dtype=float)

    def expected_visits(self) -> dict[str, float]:
        """Expected visits per execution state (absorbing state excluded)."""
        visits = self.jump_chain.expected_visits(self.initial_state)
        absorbing = self.jump_chain.absorbing_states[0]
        return {
            name: float(visits[i])
            for i, name in enumerate(self.state_names)
            if i != absorbing
        }

    def turnaround_quantile(self, probability: float) -> float:
        """Turnaround-time quantile (e.g. 0.95 for a 95th-percentile goal).

        Extension beyond the paper's mean-value analysis: the transient
        first-passage distribution of the CTMC gives percentile-style
        responsiveness statements.
        """
        return self.chain.turnaround_quantile(probability)


def build_workflow_ctmc(
    definition: WorkflowDefinition,
    server_types: ServerTypeIndex,
) -> WorkflowCTMC:
    """Translate a workflow definition into its CTMC and load matrix.

    Subworkflows are resolved bottom-up (Section 4.2.2): every child is
    translated recursively; a subworkflow state's load is the sum of the
    children's expected requests and its residence time the maximum of
    the children's turnaround times (a conservative lower bound on the
    true residence time, as the paper notes).  Designer-level self-loops
    are folded into residence times as
    :func:`repro.core.ctmc.remove_self_loops` does.

    The jump chain is validated here, so a malformed workflow fails at
    once; the residence times and :attr:`WorkflowCTMC.chain` are built on
    the first read of the chain or of a turnaround.
    """
    n = len(definition.states)
    absorbing = n
    names = server_types.names
    no_load = [0.0] * len(names)
    durations: list[float | tuple[WorkflowCTMC, ...]] = []
    columns: list[list[float]] = []
    for state in definition.states:
        if state.subworkflows:
            children = tuple(
                build_workflow_ctmc(child, server_types)
                for child in state.subworkflows
            )
            load = no_load
            for child in children:
                load = [
                    total + requests for total, requests in zip(
                        load, child.requests_per_instance().tolist()
                    )
                ]
            durations.append(children)
            columns.append(load)
        elif state.activity is not None:
            activity = state.activity
            unknown = set(activity.loads).difference(names)
            if unknown:
                raise ModelError(
                    f"activity {activity.name} loads unknown server "
                    f"types {sorted(unknown)}"
                )
            durations.append(
                state.mean_duration
                if state.mean_duration is not None
                else activity.mean_duration
            )
            columns.append([activity.load_on(name) for name in names])
        else:
            durations.append(state.mean_duration)
            columns.append(no_load)
    columns.append(no_load)
    # The copy makes the matrix C-ordered: ``load_matrix @ visits`` over
    # the transposed (F-ordered) view differs in the last bit.
    load_matrix = np.array(columns, dtype=float).T.copy()

    positions = definition._positions
    transitions = definition.transitions
    rows = [positions[source] for source, _ in transitions]
    targets = [positions[target] for _, target in transitions]
    looping = sorted(
        row for row, target in zip(rows, targets) if row == target
    )
    rows += (positions[definition.final_state], absorbing)
    targets += (absorbing, absorbing)
    probabilities = np.zeros((n + 1, n + 1))
    probabilities[rows, targets] = [*transitions.values(), 1.0, 1.0]
    self_loops = fold_self_loops(probabilities, looping)
    initial_state = positions[definition.initial_state]
    jump_chain = AbsorbingCTMC._jump_chain(
        probabilities,
        definition.state_names + (ABSORBING_STATE_NAME,),
        initial_state,
    )
    return WorkflowCTMC(
        definition=definition,
        load_matrix=load_matrix,
        server_types=server_types,
        jump_chain=jump_chain,
        initial_state=initial_state,
        durations=tuple(durations),
        self_loops=tuple(self_loops),
    )
