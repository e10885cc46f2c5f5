"""Tests for discrete-time Markov chains."""

import numpy as np
import pytest

from repro.core.dtmc import AbsorbingDTMC
from repro.exceptions import ModelError, ValidationError


def geometric_loop_chain(continue_probability: float) -> AbsorbingDTMC:
    """s0 -> s0 with probability p, s0 -> absorbed with 1 - p."""
    p = continue_probability
    return AbsorbingDTMC(
        np.array([[p, 1.0 - p], [0.0, 1.0]]),
        state_names=("loop", "done"),
    )


class TestStructure:
    def test_absorbing_state_detection(self):
        chain = geometric_loop_chain(0.5)
        assert chain.absorbing_states == (1,)
        assert chain.transient_states == (0,)

    def test_requires_an_absorbing_state(self):
        with pytest.raises(ModelError):
            AbsorbingDTMC(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_detects_trapped_states(self):
        # s1 and s2 cycle forever and never reach the absorbing s3.
        p = np.array(
            [
                [0.0, 0.5, 0.0, 0.5],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        with pytest.raises(ModelError, match="absorption is not certain"):
            AbsorbingDTMC(p)

    def test_duplicate_state_names_rejected(self):
        with pytest.raises(ValidationError):
            AbsorbingDTMC(
                np.array([[0.0, 1.0], [0.0, 1.0]]),
                state_names=("a", "a"),
            )

    def test_wrong_name_count_rejected(self):
        with pytest.raises(ValidationError):
            AbsorbingDTMC(
                np.array([[0.0, 1.0], [0.0, 1.0]]), state_names=("a",)
            )


class TestAbsorptionAnalysis:
    def test_geometric_visits(self):
        # Visits to the looping state are geometric: 1 / (1 - p).
        chain = geometric_loop_chain(0.75)
        visits = chain.expected_visits(0)
        assert visits[0] == pytest.approx(4.0)
        assert visits[1] == 0.0

    def test_linear_chain_visits_are_one(self):
        p = np.array(
            [
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
                [0.0, 0.0, 1.0],
            ]
        )
        chain = AbsorbingDTMC(p)
        np.testing.assert_allclose(
            chain.expected_visits(0), [1.0, 1.0, 0.0]
        )

    def test_branching_visit_counts(self):
        # s0 splits 60/40 to s1/s2, both go to the absorbing s3.
        p = np.array(
            [
                [0.0, 0.6, 0.4, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        chain = AbsorbingDTMC(p)
        np.testing.assert_allclose(
            chain.expected_visits(0), [1.0, 0.6, 0.4, 0.0]
        )

    def test_expected_steps(self):
        chain = geometric_loop_chain(0.5)
        assert chain.expected_steps_to_absorption(0) == pytest.approx(2.0)

    def test_absorption_probabilities_split(self):
        # Two absorbing states reached 30/70.
        p = np.array(
            [
                [0.0, 0.3, 0.7],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        chain = AbsorbingDTMC(p)
        probabilities = chain.absorption_probabilities(0)
        assert probabilities[1] == pytest.approx(0.3)
        assert probabilities[2] == pytest.approx(0.7)
        assert sum(probabilities.values()) == pytest.approx(1.0)

    def test_start_must_be_transient(self):
        chain = geometric_loop_chain(0.5)
        with pytest.raises(ValidationError):
            chain.expected_visits(1)

    def test_fundamental_matrix_row_convention(self):
        chain = geometric_loop_chain(0.9)
        n = chain.fundamental_matrix()
        assert n.shape == (1, 1)
        assert n[0, 0] == pytest.approx(10.0)
