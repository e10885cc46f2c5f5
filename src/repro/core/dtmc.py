"""Absorbing discrete-time Markov chains.

The embedded jump chain of a workflow CTMC is an absorbing chain.  Its
fundamental matrix gives the exact expected number of visits to each
execution state before absorption, which is the oracle against which the
paper's truncated-series algorithm (Section 4.2.1) is verified.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import linalg
from repro.exceptions import ModelError, ValidationError


def _default_state_names(n: int) -> tuple[str, ...]:
    return tuple(f"s{i}" for i in range(n))


@dataclass(frozen=True)
class AbsorbingDTMC:
    """A discrete-time Markov chain with at least one absorbing state.

    Parameters
    ----------
    transition_matrix:
        Row-stochastic matrix ``P`` where ``P[i, j]`` is the probability of
        jumping from state ``i`` to state ``j``.
    state_names:
        Optional labels; defaults to ``s0 .. s{n-1}``.

    Absorbing states are detected as the states ``i`` with ``P[i, i] = 1``,
    once, when the chain is built.
    """

    transition_matrix: np.ndarray
    state_names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        p = linalg.validate_stochastic_matrix(
            np.asarray(self.transition_matrix, dtype=float),
            "transition matrix",
        )
        object.__setattr__(self, "transition_matrix", p)
        self._classify_states()

    @classmethod
    def _of_valid_matrix(
        cls, p: np.ndarray, state_names: tuple[str, ...]
    ) -> "AbsorbingDTMC":
        """The chain of a matrix ``validate_stochastic_matrix`` returned.

        :class:`~repro.core.ctmc.AbsorbingCTMC` validates its jump matrix
        itself, so its embedded chain is built here without a second
        check; the state names and the absorption checks still run.
        """
        chain = object.__new__(cls)
        object.__setattr__(chain, "transition_matrix", p)
        object.__setattr__(chain, "state_names", state_names)
        chain._classify_states()
        return chain

    def _classify_states(self) -> None:
        """Check the names, split the states, and check absorption."""
        p = self.transition_matrix
        n = p.shape[0]
        names = self.state_names or _default_state_names(n)
        if len(names) != n:
            raise ValidationError(
                f"expected {n} state names, got {len(names)}"
            )
        if len(set(names)) != len(names):
            raise ValidationError("state names must be unique")
        object.__setattr__(self, "state_names", tuple(names))
        absorbing = np.diagonal(p) >= 1.0 - 1e-12
        transient = np.flatnonzero(~absorbing)
        object.__setattr__(
            self, "_absorbing", tuple(np.flatnonzero(absorbing).tolist())
        )
        object.__setattr__(self, "_transient", tuple(transient.tolist()))
        # Flat positions of the transient block T = P[transient][:,
        # transient] in any n x n matrix: ``m.take(_transient_block)``.
        object.__setattr__(self, "_transient_index", transient)
        object.__setattr__(
            self, "_transient_block", transient[:, None] * n + transient
        )
        if not self._absorbing:
            raise ModelError("chain has no absorbing state")
        self._validate_absorption_is_certain()

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        """Total number of states, absorbing ones included."""
        return self.transition_matrix.shape[0]

    @property
    def absorbing_states(self) -> tuple[int, ...]:
        """Indices ``i`` with ``P[i, i] == 1`` (within tolerance)."""
        return self._absorbing

    @property
    def transient_states(self) -> tuple[int, ...]:
        """Indices of the non-absorbing states."""
        return self._transient

    def _validate_absorption_is_certain(self) -> None:
        """Check every transient state reaches some absorbing state.

        The paper assumes first-passage probabilities into the absorbing
        state equal one; a workflow whose chain violates this (e.g. a loop
        with no exit) is a specification error that must be reported.
        One backward search from the absorbing states over P's support
        takes ``O(n + nnz)`` steps.
        """
        sources, targets = np.nonzero(self.transition_matrix > 0.0)
        predecessors: list[list[int]] = [[] for _ in self.state_names]
        for source, target in zip(sources.tolist(), targets.tolist()):
            predecessors[target].append(source)
        reached = set(self._absorbing)
        frontier = list(self._absorbing)
        while frontier:
            for source in predecessors[frontier.pop()]:
                if source not in reached:
                    reached.add(source)
                    frontier.append(source)
        trapped = [self.state_names[i] for i in self._transient
                   if i not in reached]
        if trapped:
            raise ModelError(
                "absorption is not certain: states cannot reach an "
                f"absorbing state: {trapped}"
            )

    # ------------------------------------------------------------------
    # Absorption analysis
    # ------------------------------------------------------------------
    def fundamental_matrix(self) -> np.ndarray:
        """Return ``N = (I - T)^-1`` over the transient states.

        ``N[i, j]`` is the expected number of visits to transient state ``j``
        given the chain starts in transient state ``i`` (indices taken in
        :attr:`transient_states` order).
        """
        t = self.transition_matrix.take(self._transient_block)
        identity = np.eye(len(self._transient))
        try:
            return np.linalg.solve(identity - t, identity)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded
            raise ModelError(
                f"fundamental matrix is singular: {exc}"
            ) from exc

    def expected_visits(self, start: int = 0) -> np.ndarray:
        """Expected visits to every state before absorption, from ``start``.

        Returns a full-length vector (absorbing states get 0).  The start
        state itself counts as one visit, matching the paper's convention
        in which entering the initial state incurs its load once.
        """
        self._require_transient(start)
        visits = np.zeros(self.num_states)
        visits[self._transient_index] = (
            self.fundamental_matrix()[self._transient.index(start)]
        )
        return visits

    def expected_steps_to_absorption(self, start: int = 0) -> float:
        """Expected number of jumps until absorption from ``start``."""
        return float(self.expected_visits(start).sum())

    def absorption_probabilities(self, start: int = 0) -> dict[int, float]:
        """Probability of ending in each absorbing state, from ``start``."""
        self._require_transient(start)
        transient = list(self.transient_states)
        n = self.fundamental_matrix()
        r = self.transition_matrix[np.ix_(transient,
                                          list(self.absorbing_states))]
        b = n @ r
        row = transient.index(start)
        return {
            state: float(b[row, column])
            for column, state in enumerate(self.absorbing_states)
        }

    def _require_transient(self, state: int) -> None:
        if state not in self.transient_states:
            raise ValidationError(
                f"start state {state} must be transient "
                f"(absorbing states: {self.absorbing_states})"
            )
