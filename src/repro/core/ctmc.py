"""Continuous-time Markov chains (CTMC).

This module implements the stochastic core of the paper:

* :class:`AbsorbingCTMC` models the control flow of one workflow instance
  (Section 3.2): states are workflow execution states, the jump
  probabilities come from the designer or from audit trails, and the mean
  residence times are the activity turnaround times.  The analysis methods
  cover the paper's Section 4.1 (first-passage/turnaround times, via the
  linear system solved with Gauss-Seidel or directly) and Section 4.2.1
  (expected service requests until absorption, via uniformization and the
  taboo-probability recursion truncated at ``z_max``, cross-checkable
  against the exact embedded-chain fundamental matrix).
* :class:`ErgodicCTMC` models the availability behaviour of the replicated
  server landscape (Section 5): it wraps an infinitesimal generator matrix
  and exposes the steady-state analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from repro import obs
from repro.core import linalg
from repro.core.dtmc import AbsorbingDTMC
from repro.exceptions import ModelError, ValidationError

VisitMethod = Literal["fundamental", "series"]

#: Default confidence level of the paper's ``z_max`` truncation rule
#: ("with very high probability, say 99 percent", Section 4.2.1).
DEFAULT_ZMAX_CONFIDENCE = 0.99

#: Hard cap on the truncation depth so that a badly conditioned chain
#: cannot send the recursion into an unbounded loop.
MAX_UNIFORMIZATION_STEPS = 1_000_000


@dataclass(frozen=True)
class Uniformization:
    """Result of uniformizing an absorbing CTMC (Section 4.2.1).

    Attributes
    ----------
    rate:
        The uniformization rate ``v = max_a v_a`` (maximum departure rate).
    transition_matrix:
        One-step transition matrix ``p_bar`` of the uniformized chain,
        including the artificial self-loops ``1 - v_a / v``.
    """

    rate: float
    transition_matrix: np.ndarray


@dataclass(frozen=True)
class AbsorbingCTMC:
    """An absorbing continuous-time Markov chain ``(P, H)``.

    Parameters
    ----------
    jump_probabilities:
        Row-stochastic matrix ``P`` of transition probabilities between
        states; the absorbing state must be the unique state whose row is a
        self-loop (``P[A, A] = 1``).
    residence_times:
        Mean residence time ``H_i`` of every state.  Entries must be
        positive for transient states; the absorbing state's entry is
        ignored (conceptually infinite).
    initial_state:
        Index of the single initial state ``s_0`` (default 0).
    state_names:
        Optional labels; defaults to ``s0 .. s{n-1}``.
    """

    jump_probabilities: np.ndarray
    residence_times: np.ndarray
    initial_state: int = 0
    state_names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        p = linalg.validate_stochastic_matrix(
            np.asarray(self.jump_probabilities, dtype=float),
            "jump probability matrix",
        )
        h = np.asarray(self.residence_times, dtype=float)
        n = p.shape[0]
        if h.shape != (n,):
            raise ValidationError(
                f"residence times must have shape ({n},), got {h.shape}"
            )
        object.__setattr__(self, "jump_probabilities", p)
        object.__setattr__(self, "residence_times", h)
        # The embedded chain shares the matrix validated above; it checks
        # the state names and supplies defaults.
        embedded = AbsorbingDTMC._of_valid_matrix(p, self.state_names)
        object.__setattr__(self, "state_names", embedded.state_names)
        if len(embedded.absorbing_states) != 1:
            raise ModelError(
                "workflow CTMC must have exactly one absorbing state, found "
                f"{len(embedded.absorbing_states)}"
            )
        object.__setattr__(self, "_embedded", embedded)
        if self.initial_state not in embedded.transient_states:
            raise ValidationError(
                f"initial state {self.initial_state} must be transient"
            )
        transient = embedded._transient_index
        if np.any(h[transient] <= 0.0) or not np.all(np.isfinite(h[transient])):
            raise ValidationError(
                "residence times of transient states must be positive and "
                "finite"
            )
        # A self-transition of a CTMC state is unobservable: the residence
        # time already models "staying".  Rejecting such loops keeps the
        # series algorithm (which skips b == a, Section 4.2.1) consistent
        # with the exact embedded-chain analysis.  Use
        # :func:`remove_self_loops` to fold designer-level retry loops in.
        loopy = [self.state_names[i] for i in embedded.transient_states
                 if p[i, i] > 0.0]
        if loopy:
            raise ValidationError(
                "transient states must not have self-transitions "
                f"(found on {loopy}); apply remove_self_loops() first"
            )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        """Number of states including the absorbing state."""
        return self.jump_probabilities.shape[0]

    @property
    def absorbing_state(self) -> int:
        """Index of the unique absorbing state ``s_A``."""
        return self._embedded.absorbing_states[0]

    @property
    def transient_states(self) -> tuple[int, ...]:
        """Indices of the workflow execution states (non-absorbing)."""
        return self._embedded.transient_states

    @property
    def embedded_chain(self) -> AbsorbingDTMC:
        """The embedded jump chain (self-loop-free transition structure)."""
        return self._embedded

    def departure_rates(self) -> np.ndarray:
        """Rates ``v_i = 1 / H_i`` (0 for the absorbing state)."""
        transient = self._embedded._transient_index
        rates = np.zeros(self.num_states)
        rates[transient] = 1.0 / self.residence_times[transient]
        return rates

    def transition_rates(self) -> np.ndarray:
        """Rate matrix ``q_ij = v_i * p_ij`` for ``i != j`` (diagonal zero)."""
        v = self.departure_rates()
        q = v[:, None] * self.jump_probabilities
        np.fill_diagonal(q, 0.0)
        return q

    def generator_matrix(self) -> np.ndarray:
        """Infinitesimal generator including the absorbing state row."""
        q = self.transition_rates()
        np.fill_diagonal(q, -q.sum(axis=1))
        return q

    # ------------------------------------------------------------------
    # Section 4.1: first-passage times / turnaround time
    # ------------------------------------------------------------------
    def first_passage_times(
        self, method: linalg.SolveMethod = "direct"
    ) -> np.ndarray:
        """Mean first-passage times ``m_iA`` into the absorbing state.

        Solves the paper's linear system (Section 4.1)::

            -v_i m_iA + sum_{j != A, j != i} q_ij m_jA = -1   for i != A

        Returns a full-length vector with 0 at the absorbing state.
        """
        transient = self._embedded._transient_index
        v = self.departure_rates()
        a = self.transition_rates().take(self._embedded._transient_block)
        np.fill_diagonal(a, -v[transient])
        k = len(transient)
        b = np.full(k, -1.0)
        with obs.span("ctmc.first_passage", size=k, method=method):
            m = linalg.solve_linear(a, b, method=method)
        result = np.zeros(self.num_states)
        result[transient] = m
        return result

    def mean_turnaround_time(
        self, method: linalg.SolveMethod = "direct"
    ) -> float:
        """Mean turnaround time ``R_t = m_{0A}`` of a workflow instance."""
        return float(self.first_passage_times(method=method)[self.initial_state])

    # ------------------------------------------------------------------
    # Section 4.2.1: uniformization and expected visits
    # ------------------------------------------------------------------
    def uniformize(self) -> Uniformization:
        """Transform into a uniformized chain with common rate ``v``.

        Off-diagonal entries become ``(v_a / v) p_ab``; the diagonal gains
        the compensating self-loop ``1 - v_a / v``.  The absorbing state
        keeps its self-loop of probability one.
        """
        v_states = self.departure_rates()
        rate = float(v_states.max())
        if rate <= 0.0:
            raise ModelError("cannot uniformize: no positive departure rate")
        scale = v_states / rate
        p_bar = scale[:, None] * self.jump_probabilities
        np.fill_diagonal(
            p_bar, 1.0 - scale + scale * np.diagonal(self.jump_probabilities)
        )
        p_bar[self.absorbing_state] = 0.0
        p_bar[self.absorbing_state, self.absorbing_state] = 1.0
        return Uniformization(rate=rate, transition_matrix=p_bar)

    def _taboo_matrix(self) -> np.ndarray:
        """Uniformized transitions into and out of ``s_A`` zeroed."""
        p_bar = self.uniformize().transition_matrix
        p_bar[:, self.absorbing_state] = 0.0
        p_bar[self.absorbing_state, :] = 0.0
        return p_bar

    def taboo_probabilities(self, num_steps: int) -> np.ndarray:
        """Taboo probabilities ``p_bar_{0a}(z)`` for ``z = 0 .. num_steps``.

        ``result[z, a]`` is the probability that the uniformized chain is in
        state ``a`` after ``z`` steps *without having visited the absorbing
        state*, starting from the initial state (Chapman-Kolmogorov
        recursion of Section 4.2.1).  The absorbing column stays zero.
        """
        if num_steps < 0:
            raise ValidationError("num_steps must be non-negative")
        p_bar = self._taboo_matrix()
        result = np.zeros((num_steps + 1, self.num_states))
        result[0, self.initial_state] = 1.0
        for z in range(1, num_steps + 1):
            result[z] = result[z - 1] @ p_bar
        obs.count("ctmc.uniformization.steps", num_steps)
        return result

    def z_max(
        self,
        confidence: float = DEFAULT_ZMAX_CONFIDENCE,
    ) -> int:
        """Truncation depth of the paper's series (Section 4.2.1).

        The smallest number of uniformized steps after which the chain has
        been absorbed with probability at least ``confidence`` — "the number
        of state transitions that will not be exceeded by the workflow
        within its expected runtime with very high probability".
        """
        if not 0.0 < confidence < 1.0:
            raise ValidationError("confidence must lie strictly in (0, 1)")
        p_bar = self._taboo_matrix()
        row = np.zeros(self.num_states)
        row[self.initial_state] = 1.0
        surviving = 1.0
        z = 0
        with obs.span("ctmc.z_max", confidence=confidence) as span:
            while surviving > 1.0 - confidence:
                row = row @ p_bar
                surviving = float(row.sum())
                z += 1
                if z >= MAX_UNIFORMIZATION_STEPS:
                    obs.count("ctmc.uniformization.steps", z)
                    raise ModelError(
                        "z_max exceeded the hard limit of "
                        f"{MAX_UNIFORMIZATION_STEPS} steps; the chain "
                        "absorbs too slowly"
                    )
            span.set("depth", z)
        obs.count("ctmc.uniformization.steps", z)
        obs.observe("ctmc.z_max.depth", z)
        return z

    def expected_visits(
        self,
        method: VisitMethod = "fundamental",
        confidence: float = DEFAULT_ZMAX_CONFIDENCE,
        num_steps: int | None = None,
    ) -> np.ndarray:
        """Expected number of visits to each state before absorption.

        ``fundamental`` computes the exact value from the embedded jump
        chain's fundamental matrix.  ``series`` follows the paper's
        algorithm: uniformize, accumulate expected *entries* into each state
        over taboo-probability steps, and truncate at ``z_max`` (either
        given via ``num_steps`` or derived from ``confidence``).  Both count
        the initial entry into ``s_0``, so for a reward matrix ``L`` the
        expected reward until absorption is ``L @ visits``.
        """
        if method == "fundamental":
            return self._embedded.expected_visits(self.initial_state)
        if method == "series":
            return self._expected_visits_series(confidence, num_steps)
        raise ValidationError(f"unknown visit method: {method!r}")

    def _expected_visits_series(
        self, confidence: float, num_steps: int | None
    ) -> np.ndarray:
        """Paper's truncated-series visit counts (Section 4.2.1).

        The expected number of entries into state ``b`` is::

            E_b = (1 / v) sum_z sum_{a != A, a != b} p_bar_{0a}(z) q_ab

        because ``q_ab / v`` equals the uniformized one-step probability of
        a *genuine* (non-self-loop) jump ``a -> b``.  Adding the initial
        entry into ``s_0`` yields the visit counts.
        """
        with obs.span(
            "ctmc.expected_visits_series", size=self.num_states
        ) as span:
            if num_steps is None:
                num_steps = self.z_max(confidence)
            span.set("num_steps", num_steps)
            rate = self.uniformize().rate
            q = self.transition_rates()

            taboo = self.taboo_probabilities(num_steps)
        occupancy = taboo.sum(axis=0)  # sum over z of p_bar_{0a}(z)

        visits = np.zeros(self.num_states)
        visits[self.initial_state] = 1.0
        for b in self.transient_states:
            inflow = 0.0
            for a in self.transient_states:
                if a != b:
                    inflow += occupancy[a] * q[a, b]
            visits[b] += inflow / rate
        return visits

    # ------------------------------------------------------------------
    # Markov reward convenience wrappers (Section 4.2)
    # ------------------------------------------------------------------
    def expected_reward_until_absorption(
        self,
        per_visit_rewards: np.ndarray,
        method: VisitMethod = "fundamental",
        confidence: float = DEFAULT_ZMAX_CONFIDENCE,
    ) -> np.ndarray | float:
        """Expected accumulated reward until absorption.

        ``per_visit_rewards`` is either a vector (one reward per state) or a
        matrix with one row per reward dimension and one column per state —
        e.g. the load matrix ``L^t`` with one row per server type, in which
        case the result is the vector ``r_{x,t}`` of expected service
        requests per server type (Section 4.2).
        """
        rewards = np.asarray(per_visit_rewards, dtype=float)
        visits = self.expected_visits(method=method, confidence=confidence)
        if rewards.ndim == 1:
            if rewards.shape != (self.num_states,):
                raise ValidationError(
                    f"reward vector must have length {self.num_states}"
                )
            return float(rewards @ visits)
        if rewards.ndim == 2:
            if rewards.shape[1] != self.num_states:
                raise ValidationError(
                    f"reward matrix must have {self.num_states} columns"
                )
            return rewards @ visits
        raise ValidationError("rewards must be a vector or a matrix")

    def expected_time_in_states(self) -> np.ndarray:
        """Expected total time spent in each state before absorption.

        Equals visits times mean residence time; summing over states gives
        the mean turnaround time, which the tests cross-check against the
        first-passage solution of Section 4.1.
        """
        transient = list(self.transient_states)
        times = np.zeros(self.num_states)
        times[transient] = (
            self.expected_visits()[transient] * self.residence_times[transient]
        )
        return times

    # ------------------------------------------------------------------
    # Transient analysis (extension): turnaround-time distribution
    # ------------------------------------------------------------------
    def turnaround_cdf(self, times: Sequence[float] | np.ndarray) -> np.ndarray:
        """``P(turnaround <= t)`` for each given time.

        The turnaround time is the first-passage time into the absorbing
        state, so its CDF is the absorbing state's transient probability
        mass — computed by uniformization (see :mod:`repro.core.transient`).
        """
        from repro.core.transient import first_passage_cdf

        return first_passage_cdf(
            self.generator_matrix(),
            self.initial_state,
            self.absorbing_state,
            np.asarray(times, dtype=float),
        )

    def turnaround_quantile(self, probability: float) -> float:
        """Smallest ``t`` with ``P(turnaround <= t) >= probability``.

        Enables percentile-style responsiveness goals ("95% of instances
        finish within ...") on top of the paper's mean-value analysis.
        """
        from repro.core.transient import first_passage_quantile

        return first_passage_quantile(
            self.generator_matrix(),
            self.initial_state,
            self.absorbing_state,
            probability,
            upper_bound_hint=self.mean_turnaround_time(),
        )


def remove_self_loops(
    jump_probabilities: np.ndarray,
    residence_times: np.ndarray,
    absorbing_state: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold transient self-transitions into the residence times.

    A designer-level retry loop ``p_aa > 0`` is equivalent to a CTMC state
    without the loop whose outgoing probabilities are rescaled to
    ``p_ab / (1 - p_aa)`` and whose mean residence time is stretched to
    ``H_a / (1 - p_aa)`` (a geometric number of sojourns).  Returns the
    transformed ``(P, H)`` pair, leaving the absorbing row untouched.
    """
    p = np.asarray(jump_probabilities, dtype=float).copy()
    h = np.asarray(residence_times, dtype=float).copy()
    n = p.shape[0]
    if not 0 <= absorbing_state < n:
        raise ValidationError(
            f"absorbing_state {absorbing_state} out of range for {n} states"
        )
    for a in range(n):
        if a == absorbing_state:
            continue
        loop = p[a, a]
        if loop <= 0.0:
            continue
        if loop >= 1.0:
            raise ValidationError(
                f"state {a} is a self-loop trap (p_aa = {loop}); the "
                "workflow can never leave it"
            )
        p[a] /= 1.0 - loop
        p[a, a] = 0.0
        h[a] /= 1.0 - loop
    return p, h


@dataclass(frozen=True)
class ErgodicCTMC:
    """An ergodic CTMC given by its infinitesimal generator matrix ``Q``."""

    generator: np.ndarray
    state_names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        q = linalg.validate_generator_matrix(
            np.asarray(self.generator, dtype=float)
        )
        object.__setattr__(self, "generator", q)
        names = self.state_names or tuple(f"s{i}" for i in range(q.shape[0]))
        if len(names) != q.shape[0]:
            raise ValidationError(
                f"expected {q.shape[0]} state names, got {len(names)}"
            )
        object.__setattr__(self, "state_names", tuple(names))

    @property
    def num_states(self) -> int:
        """Number of states in the chain."""
        return self.generator.shape[0]

    def steady_state(
        self, method: linalg.SolveMethod = "direct"
    ) -> np.ndarray:
        """Stationary distribution ``pi`` with ``pi Q = 0, sum(pi) = 1``."""
        return linalg.steady_state_distribution(self.generator, method=method)

    def transient_state_probabilities(
        self,
        initial_distribution: Sequence[float] | np.ndarray,
        time: float,
    ) -> np.ndarray:
        """State distribution ``pi(t)`` from a given start (uniformization)."""
        from repro.core.transient import transient_distribution

        return transient_distribution(
            self.generator, np.asarray(initial_distribution, dtype=float),
            time,
        )
