"""Tests for the continuous-time Markov chain analyses (Sections 3-4)."""

import numpy as np
import pytest

from repro.core import linalg
from repro.core.ctmc import (
    AbsorbingCTMC,
    ErgodicCTMC,
    remove_self_loops,
)
from repro.core.dtmc import AbsorbingDTMC
from repro.core.workflow_model import build_workflow_ctmc
from repro.exceptions import ModelError, ValidationError
from repro.workflows import order_processing_workflow
from repro.workflows.common import standard_server_types


def linear_chain(residences=(2.0, 3.0)) -> AbsorbingCTMC:
    """s0 -> s1 -> absorbed, with the given residence times."""
    n = len(residences)
    p = np.zeros((n + 1, n + 1))
    for i in range(n):
        p[i, i + 1] = 1.0
    p[n, n] = 1.0
    h = np.array(list(residences) + [np.inf])
    return AbsorbingCTMC(p, h)


def loop_chain(retry_probability=0.3, residences=(2.0, 3.0, 0.5)):
    """s0 -> s1, s1 -> s0 with probability retry, else -> s2 -> absorbed."""
    p = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [retry_probability, 0.0, 1.0 - retry_probability, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    h = np.array(list(residences) + [np.inf])
    return AbsorbingCTMC(p, h)


class TestChainValidation:
    """A workflow chain validates its jump matrix once, and still fully.

    ``AbsorbingCTMC`` hands the matrix it validated to its embedded
    ``AbsorbingDTMC`` instead of having it checked a second time; an
    ``AbsorbingDTMC`` built directly still validates its own matrix.
    """

    def test_workflow_chain_validates_its_matrix_once(self, monkeypatch):
        calls = []
        validate = linalg.validate_stochastic_matrix

        def counting(p, name="matrix"):
            calls.append(name)
            return validate(p, name)

        monkeypatch.setattr(linalg, "validate_stochastic_matrix", counting)
        workflow = build_workflow_ctmc(
            order_processing_workflow(), standard_server_types()
        )
        assert calls == ["jump probability matrix"]
        assert workflow.chain.embedded_chain.transition_matrix is (
            workflow.chain.jump_probabilities
        )
        calls.clear()
        AbsorbingDTMC(np.array([[0.0, 1.0], [0.0, 1.0]]))
        assert calls == ["transition matrix"]

    @pytest.mark.parametrize(
        ("row", "message"),
        [
            ([0.0, np.nan, 1.0], "must lie in"),
            ([0.0, -0.1, 1.1], "must lie in"),
            ([0.0, 0.5, 0.4], "rows must sum to one"),
        ],
        ids=["nan", "negative", "sums-to-0.9"],
    )
    def test_bad_jump_matrix_is_rejected(self, row, message):
        p = np.array([row, [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValidationError, match=message):
            AbsorbingCTMC(p, np.array([1.0, 2.0, np.inf]))
        with pytest.raises(ValidationError, match=message):
            AbsorbingDTMC(p)


class TestConstruction:
    def test_requires_single_absorbing_state(self):
        p = np.array(
            [
                [0.0, 0.5, 0.5],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        with pytest.raises(ModelError, match="exactly one absorbing"):
            AbsorbingCTMC(p, np.array([1.0, np.inf, np.inf]))

    def test_rejects_nonpositive_residence_times(self):
        p = np.array([[0.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValidationError):
            AbsorbingCTMC(p, np.array([0.0, np.inf]))

    def test_rejects_transient_self_loops(self):
        p = np.array([[0.5, 0.5], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="self-transitions"):
            AbsorbingCTMC(p, np.array([1.0, np.inf]))

    def test_initial_state_must_be_transient(self):
        p = np.array([[0.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValidationError):
            AbsorbingCTMC(p, np.array([1.0, np.inf]), initial_state=1)


class TestFirstPassage:
    def test_linear_chain_turnaround_is_sum_of_residences(self):
        chain = linear_chain((2.0, 3.0))
        assert chain.mean_turnaround_time() == pytest.approx(5.0)

    def test_loop_chain_closed_form(self):
        # With retry probability q after s1, expected cycles = 1/(1-q);
        # turnaround = (H0 + H1) / (1 - q) + H2.
        q = 0.3
        chain = loop_chain(q, (2.0, 3.0, 0.5))
        expected = (2.0 + 3.0) / (1.0 - q) + 0.5
        assert chain.mean_turnaround_time() == pytest.approx(expected)

    def test_gauss_seidel_matches_direct(self):
        chain = loop_chain(0.4)
        direct = chain.first_passage_times(method="direct")
        iterative = chain.first_passage_times(method="gauss_seidel")
        np.testing.assert_allclose(direct, iterative, atol=1e-8)

    def test_turnaround_equals_expected_time_in_states(self):
        chain = loop_chain(0.25, (1.5, 4.0, 0.2))
        total_time = chain.expected_time_in_states().sum()
        assert total_time == pytest.approx(chain.mean_turnaround_time())

    def test_first_passage_zero_at_absorbing_state(self):
        chain = linear_chain()
        assert chain.first_passage_times()[chain.absorbing_state] == 0.0


class TestUniformization:
    def test_rate_is_max_departure_rate(self):
        chain = linear_chain((2.0, 0.5))
        uniformization = chain.uniformize()
        assert uniformization.rate == pytest.approx(2.0)  # 1 / 0.5

    def test_uniformized_matrix_is_stochastic(self):
        chain = loop_chain(0.3)
        p_bar = chain.uniformize().transition_matrix
        np.testing.assert_allclose(p_bar.sum(axis=1), np.ones(4), atol=1e-12)
        assert np.all(p_bar >= 0.0)

    def test_slow_state_gets_self_loop(self):
        chain = linear_chain((2.0, 0.5))
        p_bar = chain.uniformize().transition_matrix
        # State 0 departs at rate 0.5, uniformization rate is 2.0:
        # self-loop mass 1 - 0.25 = 0.75.
        assert p_bar[0, 0] == pytest.approx(0.75)
        assert p_bar[0, 1] == pytest.approx(0.25)


class TestTabooProbabilities:
    def test_initial_distribution(self):
        chain = loop_chain()
        taboo = chain.taboo_probabilities(0)
        np.testing.assert_array_equal(taboo[0], [1.0, 0.0, 0.0, 0.0])

    def test_absorbing_column_stays_zero(self):
        chain = loop_chain()
        taboo = chain.taboo_probabilities(50)
        assert np.all(taboo[:, chain.absorbing_state] == 0.0)

    def test_survival_mass_decays(self):
        chain = loop_chain()
        taboo = chain.taboo_probabilities(200)
        survival = taboo.sum(axis=1)
        assert survival[0] == pytest.approx(1.0)
        assert survival[200] < 0.01
        assert np.all(np.diff(survival) <= 1e-12)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValidationError):
            loop_chain().taboo_probabilities(-1)


class TestZMax:
    def test_monotone_in_confidence(self):
        chain = loop_chain(0.4)
        assert chain.z_max(0.999) >= chain.z_max(0.99) >= chain.z_max(0.9)

    def test_confidence_bounds_validated(self):
        chain = loop_chain()
        with pytest.raises(ValidationError):
            chain.z_max(1.0)
        with pytest.raises(ValidationError):
            chain.z_max(0.0)

    def test_absorption_probability_reached(self):
        chain = loop_chain(0.3)
        z = chain.z_max(0.99)
        survival = chain.taboo_probabilities(z).sum(axis=1)
        assert survival[z] <= 0.01
        if z > 1:
            assert survival[z - 1] > 0.01


class TestExpectedVisits:
    def test_fundamental_matches_hand_computation(self):
        chain = loop_chain(0.3)
        visits = chain.expected_visits()
        cycles = 1.0 / 0.7
        np.testing.assert_allclose(
            visits, [cycles, cycles, 1.0, 0.0], atol=1e-12
        )

    def test_series_converges_to_fundamental(self):
        chain = loop_chain(0.4, (1.0, 2.5, 0.3))
        exact = chain.expected_visits(method="fundamental")
        series = chain.expected_visits(method="series", confidence=0.999999)
        np.testing.assert_allclose(series, exact, atol=1e-4)

    def test_series_truncation_error_shrinks_with_confidence(self):
        chain = loop_chain(0.5)
        exact = chain.expected_visits(method="fundamental")
        errors = []
        for confidence in (0.9, 0.99, 0.9999):
            series = chain.expected_visits(
                method="series", confidence=confidence
            )
            errors.append(np.abs(series - exact).max())
        assert errors[0] > errors[1] > errors[2]

    def test_series_underestimates(self):
        # Truncation can only drop visits, never add them.
        chain = loop_chain(0.5)
        exact = chain.expected_visits(method="fundamental")
        series = chain.expected_visits(method="series", confidence=0.9)
        assert np.all(series <= exact + 1e-12)

    def test_explicit_step_count(self):
        chain = loop_chain(0.3)
        few = chain.expected_visits(method="series", num_steps=1)
        many = chain.expected_visits(method="series", num_steps=500)
        exact = chain.expected_visits(method="fundamental")
        assert np.abs(many - exact).max() < np.abs(few - exact).max()

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            loop_chain().expected_visits(method="magic")


class TestRewards:
    def test_vector_reward(self):
        chain = loop_chain(0.3)
        rewards = np.array([1.0, 2.0, 5.0, 100.0])
        cycles = 1.0 / 0.7
        expected = cycles * 1.0 + cycles * 2.0 + 5.0
        assert chain.expected_reward_until_absorption(
            rewards
        ) == pytest.approx(expected)

    def test_matrix_reward_rows_are_independent(self):
        chain = linear_chain((1.0, 1.0))
        loads = np.array([[2.0, 3.0, 0.0], [1.0, 0.0, 0.0]])
        result = chain.expected_reward_until_absorption(loads)
        np.testing.assert_allclose(result, [5.0, 1.0])

    def test_shape_validation(self):
        chain = linear_chain()
        with pytest.raises(ValidationError):
            chain.expected_reward_until_absorption(np.ones(2))
        with pytest.raises(ValidationError):
            chain.expected_reward_until_absorption(np.ones((2, 2)))


class TestRemoveSelfLoops:
    def test_transform_preserves_turnaround(self):
        # s0 retries itself with probability 0.4.
        p = np.array(
            [
                [0.4, 0.6, 0.0],
                [0.0, 0.0, 1.0],
                [0.0, 0.0, 1.0],
            ]
        )
        h = np.array([2.0, 1.0, np.inf])
        p_clean, h_clean = remove_self_loops(p, h, absorbing_state=2)
        chain = AbsorbingCTMC(p_clean, h_clean)
        # Expected total time in s0: 2.0 / 0.6; plus 1.0 in s1.
        assert chain.mean_turnaround_time() == pytest.approx(2.0 / 0.6 + 1.0)

    def test_rescaled_rows_are_stochastic(self):
        p = np.array(
            [
                [0.25, 0.5, 0.25],
                [0.0, 0.0, 1.0],
                [0.0, 0.0, 1.0],
            ]
        )
        h = np.array([1.0, 1.0, np.inf])
        p_clean, _ = remove_self_loops(p, h, absorbing_state=2)
        np.testing.assert_allclose(p_clean.sum(axis=1), np.ones(3))
        assert p_clean[0, 0] == 0.0

    def test_full_self_loop_trap_rejected(self):
        p = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="trap"):
            remove_self_loops(p, np.array([1.0, np.inf]), absorbing_state=1)

    def test_absorbing_state_untouched(self):
        p = np.array([[0.0, 1.0], [0.0, 1.0]])
        h = np.array([1.0, np.inf])
        p_clean, h_clean = remove_self_loops(p, h, absorbing_state=1)
        assert p_clean[1, 1] == 1.0

    def test_out_of_range_absorbing_state(self):
        with pytest.raises(ValidationError):
            remove_self_loops(np.eye(2), np.ones(2), absorbing_state=5)


class TestErgodicCTMC:
    def test_two_state_steady_state(self):
        q = np.array([[-2.0, 2.0], [1.0, -1.0]])
        chain = ErgodicCTMC(q)
        np.testing.assert_allclose(
            chain.steady_state(), [1.0 / 3.0, 2.0 / 3.0], atol=1e-12
        )
