"""Property-based tests (hypothesis) on the core invariants."""

import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.availability import (
    AvailabilityModel,
    RepairPolicy,
    ServerPoolAvailability,
)
from repro.core.configuration import (
    ReplicationConstraints,
    branch_and_bound_configuration,
    exhaustive_configuration,
)
from repro.core.ctmc import AbsorbingCTMC
from repro.core.goals import GoalEvaluator, PerformabilityGoals
from repro.core.model_types import ServerTypeIndex, ServerTypeSpec
from repro.core.performability import DegradedStatePolicy
from repro.core.performance import PerformanceModel, SystemConfiguration
from repro.exceptions import InfeasibleConfigurationError
from repro.queueing import mg1_mean_waiting_time, pooled_service_moments
from repro.scenarios import bundled_scenarios, generate_corpus, spec_to_project

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
rates = st.floats(min_value=1e-4, max_value=10.0,
                  allow_nan=False, allow_infinity=False)
probabilities = st.floats(min_value=0.01, max_value=0.99)


@st.composite
def absorbing_chains(draw, max_states=5):
    """Random absorbing chains: forward edges plus limited back edges."""
    n = draw(st.integers(min_value=1, max_value=max_states))
    p = np.zeros((n + 1, n + 1))
    for i in range(n):
        # Split mass between "forward/absorb" and one optional back edge.
        back_target = draw(
            st.one_of(st.none(), st.integers(min_value=0, max_value=n - 1))
        )
        forward = i + 1
        if back_target is None or back_target == i:
            p[i, forward] = 1.0
        else:
            back_mass = draw(st.floats(min_value=0.05, max_value=0.6))
            # += : the back edge may coincide with the forward edge.
            p[i, back_target] += back_mass
            p[i, forward] += 1.0 - back_mass
    p[n, n] = 1.0
    residences = np.array(
        [draw(st.floats(min_value=0.1, max_value=20.0)) for _ in range(n)]
        + [np.inf]
    )
    return AbsorbingCTMC(p, residences)


@st.composite
def server_specs(draw):
    return ServerTypeSpec(
        name=draw(st.sampled_from(["a", "b", "c"])),
        mean_service_time=draw(st.floats(min_value=0.01, max_value=2.0)),
        failure_rate=draw(st.floats(min_value=1e-4, max_value=1.0)),
        repair_rate=draw(st.floats(min_value=0.1, max_value=10.0)),
    )


# ----------------------------------------------------------------------
# CTMC invariants
# ----------------------------------------------------------------------
class TestChainProperties:
    @given(chain=absorbing_chains())
    @settings(max_examples=40, deadline=None)
    def test_turnaround_equals_visit_weighted_residence(self, chain):
        turnaround = chain.mean_turnaround_time()
        weighted = chain.expected_time_in_states().sum()
        assert turnaround == pytest.approx(weighted, rel=1e-8)

    @given(chain=absorbing_chains())
    @settings(max_examples=40, deadline=None)
    def test_visits_at_least_reach_probability(self, chain):
        visits = chain.expected_visits()
        # The initial state is visited at least once; all visits finite
        # and non-negative.
        assert visits[chain.initial_state] >= 1.0 - 1e-12
        assert np.all(visits >= -1e-12)
        assert np.all(np.isfinite(visits))

    @given(chain=absorbing_chains())
    @settings(max_examples=30, deadline=None)
    def test_uniformization_preserves_stochasticity(self, chain):
        p_bar = chain.uniformize().transition_matrix
        assert np.all(p_bar >= -1e-12)
        np.testing.assert_allclose(
            p_bar.sum(axis=1), 1.0, atol=1e-9
        )

    @given(chain=absorbing_chains(), confidence=st.floats(0.9, 0.9999))
    @settings(max_examples=25, deadline=None)
    def test_series_never_exceeds_exact_visits(self, chain, confidence):
        exact = chain.expected_visits(method="fundamental")
        series = chain.expected_visits(
            method="series", confidence=confidence
        )
        assert np.all(series <= exact + 1e-9)

    @given(chain=absorbing_chains())
    @settings(max_examples=30, deadline=None)
    def test_gauss_seidel_first_passage_matches_direct(self, chain):
        direct = chain.first_passage_times("direct")
        iterative = chain.first_passage_times("gauss_seidel")
        np.testing.assert_allclose(direct, iterative, rtol=1e-6)


class TestEmbeddedChainProperties:
    @given(chain=absorbing_chains())
    @settings(max_examples=30, deadline=None)
    def test_absorption_probabilities_sum_to_one(self, chain):
        embedded = chain.embedded_chain
        probabilities_ = embedded.absorption_probabilities(
            chain.initial_state
        )
        assert sum(probabilities_.values()) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Availability invariants
# ----------------------------------------------------------------------
class TestAvailabilityProperties:
    @given(spec=server_specs(), count=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_pool_distribution_normalizes(self, spec, count):
        pool = ServerPoolAvailability(spec, count)
        distribution = pool.state_probabilities
        assert distribution.sum() == pytest.approx(1.0)
        assert np.all(distribution >= 0.0)

    @given(spec=server_specs(), count=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_unavailability_strictly_decreases_with_replication(
        self, spec, count
    ):
        smaller = ServerPoolAvailability(spec, count).unavailability
        larger = ServerPoolAvailability(spec, count + 1).unavailability
        assert larger < smaller

    @given(
        spec=server_specs(),
        count=st.integers(2, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_single_crew_never_better_than_independent(self, spec, count):
        independent = ServerPoolAvailability(
            spec, count, RepairPolicy.INDEPENDENT
        ).unavailability
        single = ServerPoolAvailability(
            spec, count, RepairPolicy.SINGLE_CREW
        ).unavailability
        assert single >= independent - 1e-15

    @given(
        counts=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        failure=st.floats(1e-3, 0.5),
        repair=st.floats(0.5, 5.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_joint_equals_product(self, counts, failure, repair):
        types = ServerTypeIndex(
            [
                ServerTypeSpec("x", 1.0, failure_rate=failure,
                               repair_rate=repair),
                ServerTypeSpec("y", 1.0, failure_rate=failure * 2,
                               repair_rate=repair),
            ]
        )
        configuration = SystemConfiguration(
            {"x": counts[0], "y": counts[1]}
        )
        model = AvailabilityModel(types, configuration)
        assert model.unavailability("joint") == pytest.approx(
            model.unavailability("product"), rel=1e-6
        )

    @given(
        counts=st.tuples(
            st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_encode_decode_round_trip(self, counts):
        types = ServerTypeIndex(
            [
                ServerTypeSpec(name, 1.0, failure_rate=0.1, repair_rate=1.0)
                for name in ("a", "b", "c")
            ]
        )
        model = AvailabilityModel(
            types, SystemConfiguration(dict(zip("abc", counts)))
        )
        for code in range(model.num_states):
            assert model.encode(model.decode(code)) == code


# ----------------------------------------------------------------------
# Replication monotonicity and branch-and-bound exactness
# ----------------------------------------------------------------------
#: The five registry scenarios plus 40 generated specs (seed 2000).
CORPUS = tuple(
    [entry.spec() for entry in bundled_scenarios()]
    + list(generate_corpus(40, master_seed=2000))
)

#: The degraded-state policies under which adding a replica never hurts;
#: PENALTY holds only when the penalty is at least every finite waiting
#: time a type can reach (see :class:`DegradedStatePolicy`).
MONOTONE_POLICIES = (
    DegradedStatePolicy.CONDITIONAL,
    DegradedStatePolicy.INFINITE,
)


@functools.lru_cache(maxsize=len(CORPUS))
def corpus_model(index: int) -> PerformanceModel:
    """The performance model of corpus spec ``index`` (built once)."""
    project = spec_to_project([CORPUS[index]])
    return PerformanceModel(project.server_types, project.workload())


def corpus_evaluator(
    index: int, repair: RepairPolicy, degraded: DegradedStatePolicy
) -> GoalEvaluator:
    """A fresh evaluator (and cache) over corpus spec ``index``."""
    return GoalEvaluator(
        corpus_model(index), repair_policy=repair, degraded_policy=degraded
    )


def no_higher(after: float, before: float) -> bool:
    """``after <= before`` up to a relative 1e-12 (``inf`` allowed)."""
    return after <= before + 1e-12 * abs(before)


corpus_indices = st.integers(0, len(CORPUS) - 1)
repair_policies = st.sampled_from(tuple(RepairPolicy))
monotone_policies = st.sampled_from(MONOTONE_POLICIES)


class TestReplicationMonotonicity:
    """Adding a replica never raises unavailability or waiting time.

    :func:`~repro.core.search.candidates.per_type_lower_bounds` and
    branch-and-bound's claim of a provably minimum-cost answer rest on
    exactly these premises.
    """

    @given(
        index=corpus_indices,
        counts=st.lists(st.integers(1, 4), min_size=5, max_size=5),
        repair=repair_policies,
        degraded=monotone_policies,
    )
    @settings(max_examples=150, deadline=None)
    def test_one_more_replica_never_hurts(
        self, index, counts, repair, degraded
    ):
        evaluator = corpus_evaluator(index, repair, degraded)
        names = evaluator.server_types.names
        # An unbounded waiting goal: every assessment carries the
        # performability report, and no goal is ever violated.
        goals = PerformabilityGoals(
            max_unavailability=0.5
        ).requiring_all_metrics()
        configuration = SystemConfiguration(dict(zip(names, counts)))
        before = evaluator.assess(configuration, goals)
        for added in names:
            after = evaluator.assess(
                configuration.with_added_replica(added), goals
            )
            assert no_higher(after.unavailability, before.unavailability)
            for name in names:
                context = (CORPUS[index].name, dict(configuration.replicas),
                           added, name)
                assert no_higher(
                    after.per_type_unavailability[name],
                    before.per_type_unavailability[name],
                ), context
                assert no_higher(
                    after.performability.failure_free_waiting_times[name],
                    before.performability.failure_free_waiting_times[name],
                ), context
                assert no_higher(
                    after.performability.expected_waiting_times[name],
                    before.performability.expected_waiting_times[name],
                ), context


class TestBranchAndBoundExactness:
    """Branch-and-bound finds the exhaustive optimum, or neither does."""

    @given(
        index=corpus_indices,
        max_waiting=st.sampled_from((None, 0.05, 0.2, 1.0)),
        max_unavailability=st.sampled_from((None, 1e-3, 1e-5, 1e-7)),
        box=st.sampled_from(("total", "per_type")),
        repair=repair_policies,
        degraded=monotone_policies,
    )
    @settings(max_examples=100, deadline=None)
    def test_same_cost_as_exhaustive(
        self, index, max_waiting, max_unavailability, box, repair, degraded
    ):
        assume(max_waiting is not None or max_unavailability is not None)
        goals = PerformabilityGoals(
            max_waiting_time=max_waiting,
            max_unavailability=max_unavailability,
        )
        evaluator = corpus_evaluator(index, repair, degraded)
        constraints = (
            ReplicationConstraints(max_total_servers=12)
            if box == "total"
            else ReplicationConstraints(
                maximum=dict.fromkeys(evaluator.server_types.names, 4)
            )
        )

        def cost(search):
            try:
                return search(evaluator, goals, constraints).cost
            except InfeasibleConfigurationError:
                return None

        assert cost(branch_and_bound_configuration) == cost(
            exhaustive_configuration
        )


# ----------------------------------------------------------------------
# Queueing invariants
# ----------------------------------------------------------------------
class TestTransientProperties:
    @given(
        chain=absorbing_chains(max_states=4),
        fraction=st.floats(min_value=0.1, max_value=3.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_turnaround_cdf_is_a_cdf(self, chain, fraction):
        mean = chain.mean_turnaround_time()
        times = np.array([0.0, fraction * mean, 2 * fraction * mean])
        cdf = chain.turnaround_cdf(times)
        assert np.all(cdf >= -1e-12)
        assert np.all(cdf <= 1.0 + 1e-12)
        assert np.all(np.diff(cdf) >= -1e-9)
        assert cdf[0] == pytest.approx(0.0, abs=1e-12)

    @given(chain=absorbing_chains(max_states=4))
    @settings(max_examples=15, deadline=None)
    def test_quantiles_ordered(self, chain):
        median = chain.turnaround_quantile(0.5)
        p90 = chain.turnaround_quantile(0.9)
        assert 0.0 < median <= p90

    @given(
        rates_seed=st.integers(0, 10_000),
        time=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_transient_distribution_is_a_distribution(
        self, rates_seed, time
    ):
        from repro.core.transient import transient_distribution

        rng = np.random.default_rng(rates_seed)
        n = int(rng.integers(2, 5))
        rates = rng.uniform(0.05, 2.0, size=(n, n))
        np.fill_diagonal(rates, 0.0)
        q = rates - np.diag(rates.sum(axis=1))
        pi0 = np.zeros(n)
        pi0[0] = 1.0
        pi_t = transient_distribution(q, pi0, time)
        assert pi_t.sum() == pytest.approx(1.0)
        assert np.all(pi_t >= 0.0)


class TestQueueingProperties:
    @given(
        arrival=rates,
        mean=st.floats(min_value=0.01, max_value=1.0),
        scv=st.floats(min_value=0.0, max_value=4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_waiting_nonnegative_and_monotone_in_rate(
        self, arrival, mean, scv
    ):
        second = mean**2 * (1.0 + scv)
        wait = mg1_mean_waiting_time(arrival, mean, second)
        assert wait >= 0.0
        heavier = mg1_mean_waiting_time(arrival * 1.1, mean, second)
        assert heavier >= wait

    @given(
        rates_=st.lists(rates, min_size=1, max_size=5),
        means=st.lists(
            st.floats(min_value=0.01, max_value=2.0), min_size=5, max_size=5
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_pooled_mean_within_component_range(self, rates_, means):
        k = len(rates_)
        component_means = means[:k]
        seconds = [2.0 * m**2 for m in component_means]
        mean, second = pooled_service_moments(
            rates_, component_means, seconds
        )
        assert min(component_means) - 1e-12 <= mean
        assert mean <= max(component_means) + 1e-12
        assert second >= mean**2 - 1e-12

