"""Oracle property: the linear-time chain construction changes nothing.

``AbsorbingDTMC`` classifies its states once, from the diagonal, and
checks absorption with one backward breadth-first search; the
first-passage system and the visit vectors are built and scattered with
numpy indexing.  This file keeps the element-by-element loops those
replaced (the fixpoint absorption check, the per-state classification
scans and the per-element fills) as an oracle, and asserts on random
sparse absorbing chains, some with trapped cycles, that both give the
same classification, the same ``ModelError`` text and bitwise-equal
arrays.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import linalg
from repro.core.ctmc import AbsorbingCTMC
from repro.core.dtmc import AbsorbingDTMC
from repro.exceptions import ModelError


# ----------------------------------------------------------------------
# The element-by-element oracle
# ----------------------------------------------------------------------
def oracle_absorbing(p):
    return tuple(i for i in range(p.shape[0]) if p[i, i] >= 1.0 - 1e-12)


def oracle_transient(p):
    absorbing = set(oracle_absorbing(p))
    return tuple(i for i in range(p.shape[0]) if i not in absorbing)


def oracle_absorption_error(p, names):
    """The fixpoint check's ``ModelError`` text, or None."""
    reachable = set(oracle_absorbing(p))
    changed = True
    while changed:
        changed = False
        for i in oracle_transient(p):
            if i in reachable:
                continue
            if any(p[i, j] > 0.0 for j in reachable):
                reachable.add(i)
                changed = True
    trapped = [names[i] for i in oracle_transient(p) if i not in reachable]
    if trapped:
        return (
            "absorption is not certain: states cannot reach an "
            f"absorbing state: {trapped}"
        )
    return None


def oracle_expected_visits(p, start):
    transient = list(oracle_transient(p))
    t = p[np.ix_(transient, transient)]
    identity = np.eye(len(transient))
    n = np.linalg.solve(identity - t, identity)
    visits = np.zeros(p.shape[0])
    row = transient.index(start)
    for column, state in enumerate(transient):
        visits[state] = n[row, column]
    return visits


def oracle_departure_rates(p, h):
    rates = np.zeros(p.shape[0])
    for i in oracle_transient(p):
        rates[i] = 1.0 / h[i]
    return rates


def oracle_first_passage_times(p, h):
    transient = list(oracle_transient(p))
    v = oracle_departure_rates(p, h)
    q = v[:, None] * p
    np.fill_diagonal(q, 0.0)
    k = len(transient)
    a = np.zeros((k, k))
    for row, i in enumerate(transient):
        a[row, row] = -v[i]
        for column, j in enumerate(transient):
            if j != i:
                a[row, column] += q[i, j]
    m = linalg.solve_linear(a, np.full(k, -1.0))
    result = np.zeros(p.shape[0])
    for row, i in enumerate(transient):
        result[i] = m[row]
    return result


def oracle_uniformized(p, h):
    v_states = oracle_departure_rates(p, h)
    rate = float(v_states.max())
    n = p.shape[0]
    p_bar = np.zeros((n, n))
    for a in range(n):
        if a == oracle_absorbing(p)[0]:
            p_bar[a, a] = 1.0
            continue
        scale = v_states[a] / rate
        p_bar[a] = scale * p[a]
        p_bar[a, a] = 1.0 - scale + scale * p[a, a]
    return p_bar


def oracle_time_in_states(p, h, start):
    visits = oracle_expected_visits(p, start)
    times = np.zeros(p.shape[0])
    for i in oracle_transient(p):
        times[i] = visits[i] * h[i]
    return times


# ----------------------------------------------------------------------
# Random sparse absorbing chains
# ----------------------------------------------------------------------
@st.composite
def sparse_chains(draw, workflow=False):
    """A row-stochastic matrix with 1-3 absorbing states.

    Transient rows get 1-3 successors with random weights.  With
    ``trap`` a random set of transient states only leads into itself (a
    trapped cycle, absorption not certain); with ``self_loops`` transient
    rows may keep mass on the diagonal; ``near_one`` puts diagonals just
    inside and just outside the absorbing tolerance.  A ``workflow``
    chain has one absorbing state and no transient self-loops, as a
    workflow CTMC needs; it may still trap states by chance.
    """
    n = draw(st.integers(min_value=2, max_value=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if workflow:
        absorbing_count, trap, self_loops = 1, False, False
    else:
        absorbing_count = draw(st.integers(1, min(3, n - 1)))
        trap = draw(st.booleans())
        self_loops = draw(st.booleans())
    near_one = draw(st.booleans())

    order = rng.permutation(n)
    absorbing = sorted(order[:absorbing_count].tolist())
    transient = sorted(order[absorbing_count:].tolist())
    trapped = set()
    if trap:
        size = int(rng.integers(1, len(transient) + 1))
        trapped = set(rng.choice(transient, size=size, replace=False).tolist())

    p = np.zeros((n, n))
    for a in absorbing:
        p[a, a] = 1.0
    for i in transient:
        pool = sorted(trapped) if i in trapped else list(range(n))
        if not self_loops and i in pool and len(pool) > 1:
            pool.remove(i)
        degree = int(rng.integers(1, min(3, len(pool)) + 1))
        targets = rng.choice(pool, size=degree, replace=False)
        weights = rng.random(degree) + 0.05
        p[i, targets] = weights / weights.sum()
        if not self_loops and i not in trapped:
            # Without self-loops a row must not end up on the diagonal.
            assert p[i, i] == 0.0
    if near_one:
        a = absorbing[0]
        other = int(rng.integers(0, n))
        if other != a:
            p[a, a] = 1.0 - 1e-13
            p[a, other] += 1e-13
        free = [i for i in transient if i not in trapped]
        if free and self_loops:
            i = free[0]
            p[i] *= 1e-11
            p[i, i] += 1.0 - 1e-11
    return p


def _names(n):
    return tuple(f"q{i}" for i in range(n))


class TestOracle:
    @given(p=sparse_chains())
    @settings(max_examples=300, deadline=None)
    def test_embedded_chain_matches_oracle(self, p):
        names = _names(p.shape[0])
        expected_error = oracle_absorption_error(p, names)
        try:
            chain = AbsorbingDTMC(p, state_names=names)
        except ModelError as error:
            assert str(error) == expected_error
            return
        assert expected_error is None
        assert chain.absorbing_states == oracle_absorbing(p)
        assert chain.transient_states == oracle_transient(p)
        for start in chain.transient_states[:3]:
            assert (
                chain.expected_visits(start).tobytes()
                == oracle_expected_visits(p, start).tobytes()
            )

    @given(p=sparse_chains(workflow=True), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_workflow_chain_matches_oracle(self, p, data):
        absorbing = oracle_absorbing(p)
        transient = oracle_transient(p)
        names = _names(p.shape[0])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        h = rng.uniform(0.01, 50.0, size=p.shape[0])
        h[absorbing[0]] = np.inf
        start = data.draw(st.sampled_from(transient))
        expected_error = oracle_absorption_error(p, names)
        try:
            chain = AbsorbingCTMC(
                p, h, initial_state=start, state_names=names
            )
        except ModelError as error:
            assert str(error) == expected_error
            return
        assert expected_error is None
        assert (
            chain.departure_rates().tobytes()
            == oracle_departure_rates(p, h).tobytes()
        )
        assert (
            chain.first_passage_times().tobytes()
            == oracle_first_passage_times(p, h).tobytes()
        )
        assert (
            chain.expected_visits("fundamental").tobytes()
            == oracle_expected_visits(p, start).tobytes()
        )
        assert (
            chain.uniformize().transition_matrix.tobytes()
            == oracle_uniformized(p, h).tobytes()
        )
        assert (
            chain.expected_time_in_states().tobytes()
            == oracle_time_in_states(p, h, start).tobytes()
        )
