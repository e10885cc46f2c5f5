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
expected request counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Mapping

import numpy as np

from repro.core.ctmc import AbsorbingCTMC, remove_self_loops
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
        if self.mean_duration is not None and self.mean_duration <= 0.0:
            raise ValidationError(
                f"state {self.name}: mean_duration must be positive"
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
    which callers can do explicitly).
    """

    name: str
    states: tuple[WorkflowState, ...]
    transitions: Mapping[tuple[str, str], float]
    initial_state: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("workflow name must be non-empty")
        states = tuple(self.states)
        object.__setattr__(self, "states", states)
        if not states:
            raise ValidationError(f"workflow {self.name}: needs states")
        names = [state.name for state in states]
        if len(set(names)) != len(names):
            raise ValidationError(
                f"workflow {self.name}: duplicate state names"
            )
        transitions = dict(self.transitions)
        object.__setattr__(self, "transitions", transitions)
        known = set(names)
        # Outgoing probabilities grouped by source, in one pass.
        outgoing: dict[str, dict[str, float]] = {}
        for (source, target), probability in transitions.items():
            if source not in known or target not in known:
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
        if self.initial_state not in known:
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
        # Computing the final state validates its uniqueness.
        _ = self.final_state

    @property
    def state_names(self) -> tuple[str, ...]:
        """Names of the states, in definition order."""
        return tuple(state.name for state in self.states)

    @property
    def final_state(self) -> str:
        """The unique state without outgoing transitions."""
        finals = [name for name in self.state_names
                  if name not in self._outgoing]
        if len(finals) != 1:
            raise ValidationError(
                f"workflow {self.name}: expected exactly one final state "
                f"(without outgoing transitions), found {finals}"
            )
        return finals[0]

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

    Attributes
    ----------
    definition:
        The source workflow definition.
    chain:
        Absorbing CTMC whose first ``n`` states are the workflow execution
        states (in definition order) and whose last state is the artificial
        absorbing state ``s_A``.
    load_matrix:
        ``k x (n + 1)`` matrix ``L^t``: expected service requests per visit
        of each state, one row per server type (absorbing column is zero).
        Subworkflow states carry the aggregated load of their children.
    server_types:
        The server type index fixing the row order of the load matrix.
    """

    definition: WorkflowDefinition
    chain: AbsorbingCTMC
    load_matrix: np.ndarray
    server_types: ServerTypeIndex

    @property
    def state_names(self) -> tuple[str, ...]:
        """Names of the chain's states, in matrix order."""
        return self.chain.state_names

    def turnaround_time(self, method: Literal["direct", "gauss_seidel"] = "direct") -> float:
        """Mean turnaround time ``R_t`` (Section 4.1)."""
        return self.chain.mean_turnaround_time(method=method)

    def requests_per_instance(
        self,
        method: Literal["fundamental", "series"] = "fundamental",
        confidence: float = 0.99,
    ) -> np.ndarray:
        """Expected service requests ``r_{x,t}`` per server type (§4.2)."""
        result = self.chain.expected_reward_until_absorption(
            self.load_matrix, method=method, confidence=confidence
        )
        return np.asarray(result, dtype=float)

    def expected_visits(self) -> dict[str, float]:
        """Expected visits per execution state (absorbing state excluded)."""
        visits = self.chain.expected_visits()
        return {
            name: float(visits[i])
            for i, name in enumerate(self.state_names)
            if i != self.chain.absorbing_state
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
    analyzed recursively; a subworkflow state's residence time becomes the
    maximum of the children's turnaround times (a conservative lower bound
    on the true residence time, as the paper notes) and its load the sum of
    the children's expected requests.  Designer-level self-loops are folded
    into residence times via :func:`repro.core.ctmc.remove_self_loops`.
    """
    n = len(definition.states)
    state_positions = {
        state.name: i for i, state in enumerate(definition.states)
    }
    absorbing = n

    probabilities = np.zeros((n + 1, n + 1))
    for (source, target), probability in definition.transitions.items():
        probabilities[state_positions[source], state_positions[target]] = (
            probability
        )
    probabilities[state_positions[definition.final_state], absorbing] = 1.0
    probabilities[absorbing, absorbing] = 1.0

    residence_times = np.zeros(n + 1)
    load_matrix = np.zeros((len(server_types), n + 1))
    for i, state in enumerate(definition.states):
        residence_times[i], load_matrix[:, i] = _state_parameters(
            state, server_types
        )

    probabilities, residence_times = remove_self_loops(
        probabilities, residence_times, absorbing
    )
    chain = AbsorbingCTMC(
        jump_probabilities=probabilities,
        residence_times=residence_times,
        initial_state=state_positions[definition.initial_state],
        state_names=definition.state_names + (ABSORBING_STATE_NAME,),
    )
    return WorkflowCTMC(
        definition=definition,
        chain=chain,
        load_matrix=load_matrix,
        server_types=server_types,
    )


def _state_parameters(
    state: WorkflowState, server_types: ServerTypeIndex
) -> tuple[float, np.ndarray]:
    """Residence time and load column of one workflow state."""
    if state.is_subworkflow_state:
        load = np.zeros(len(server_types))
        turnarounds = []
        for child in state.subworkflows:
            child_model = build_workflow_ctmc(child, server_types)
            turnarounds.append(child_model.turnaround_time())
            load += child_model.requests_per_instance()
        return max(turnarounds), load

    if state.activity is not None:
        activity = state.activity
        unknown = set(activity.loads).difference(server_types.names)
        if unknown:
            raise ModelError(
                f"activity {activity.name} loads unknown server "
                f"types {sorted(unknown)}"
            )
        duration = (
            state.mean_duration
            if state.mean_duration is not None
            else activity.mean_duration
        )
        return duration, np.array(
            [activity.load_on(name) for name in server_types.names]
        )

    assert state.mean_duration is not None  # enforced in __post_init__
    return state.mean_duration, np.zeros(len(server_types))
