"""Tests for the Section 5 availability model, including the paper's
worked example (71 h / 10 s / < 1 min per year)."""

import numpy as np
import pytest

from repro.core.availability import (
    AvailabilityModel,
    RepairPolicy,
    ServerPoolAvailability,
    minimum_replicas_for_availability,
)
from repro.core.model_types import ServerTypeIndex, ServerTypeSpec
from repro.core.performance import SystemConfiguration
from repro.exceptions import ValidationError
from repro.workflows import extended_server_types, standard_server_types

#: Every server type of both shipped landscapes.
LANDSCAPE_SPECS = [
    *standard_server_types().specs,
    *extended_server_types().specs,
]


@pytest.fixture
def paper_types():
    """Section 5.2: failures per month/week/day, 10-minute repairs."""
    return ServerTypeIndex(
        [
            ServerTypeSpec(
                "comm", 1.0, failure_rate=1.0 / 43200.0, repair_rate=0.1
            ),
            ServerTypeSpec(
                "engine", 1.0, failure_rate=1.0 / 10080.0, repair_rate=0.1
            ),
            ServerTypeSpec(
                "app", 1.0, failure_rate=1.0 / 1440.0, repair_rate=0.1
            ),
        ]
    )


def config(paper_types, counts):
    return SystemConfiguration(dict(zip(paper_types.names, counts)))


class TestPaperWorkedExample:
    def test_unreplicated_downtime_is_71_hours_per_year(self, paper_types):
        model = AvailabilityModel(paper_types, config(paper_types, (1, 1, 1)))
        assert model.downtime_per_year("hours") == pytest.approx(71.0, abs=1.0)

    def test_three_way_replication_downtime_is_10_seconds(self, paper_types):
        model = AvailabilityModel(paper_types, config(paper_types, (3, 3, 3)))
        assert model.downtime_per_year("seconds") == pytest.approx(10.0, abs=1.0)

    def test_2_2_3_bounds_downtime_below_a_minute(self, paper_types):
        model = AvailabilityModel(paper_types, config(paper_types, (2, 2, 3)))
        downtime = model.downtime_per_year("seconds")
        assert downtime < 60.0
        # ... but more than the fully replicated (3,3,3) system.
        assert downtime > 10.0

    def test_joint_ctmc_agrees_with_product_form(self, paper_types):
        for counts in [(1, 1, 1), (2, 1, 3), (2, 2, 3)]:
            model = AvailabilityModel(paper_types, config(paper_types, counts))
            assert model.unavailability("joint") == pytest.approx(
                model.unavailability("product"), rel=1e-9
            )

    def test_gauss_seidel_steady_state_agrees(self, paper_types):
        model = AvailabilityModel(paper_types, config(paper_types, (2, 2, 2)))
        direct = model.steady_state(method="direct")
        iterative = model.steady_state(method="gauss_seidel")
        np.testing.assert_allclose(direct, iterative, atol=1e-8)


class TestEncoding:
    def test_paper_encoding_example(self, paper_types):
        # "for a CTMC with three server types, two servers each we encode
        # the states (0,0,0), (1,0,0), (2,0,0), (0,1,0) etc. as integers
        # 0, 1, 2, 3, and so on."
        model = AvailabilityModel(paper_types, config(paper_types, (2, 2, 2)))
        assert model.encode((0, 0, 0)) == 0
        assert model.encode((1, 0, 0)) == 1
        assert model.encode((2, 0, 0)) == 2
        assert model.encode((0, 1, 0)) == 3

    def test_round_trip(self, paper_types):
        model = AvailabilityModel(paper_types, config(paper_types, (2, 1, 3)))
        for code in range(model.num_states):
            assert model.encode(model.decode(code)) == code

    def test_state_space_size(self, paper_types):
        model = AvailabilityModel(paper_types, config(paper_types, (2, 1, 3)))
        assert model.num_states == 3 * 2 * 4

    def test_out_of_range_rejected(self, paper_types):
        model = AvailabilityModel(paper_types, config(paper_types, (1, 1, 1)))
        with pytest.raises(ValidationError):
            model.encode((2, 0, 0))
        with pytest.raises(ValidationError):
            model.decode(99)


class TestGeneratorMatrix:
    def test_rows_sum_to_zero(self, paper_types):
        model = AvailabilityModel(paper_types, config(paper_types, (2, 2, 1)))
        q = model.generator_matrix()
        np.testing.assert_allclose(q.sum(axis=1), 0.0, atol=1e-12)

    def test_failure_rate_scales_with_running_replicas(self, paper_types):
        model = AvailabilityModel(paper_types, config(paper_types, (2, 1, 1)))
        q = model.generator_matrix()
        full = model.encode((2, 1, 1))
        one_down = model.encode((1, 1, 1))
        spec = paper_types.spec("comm")
        assert q[full, one_down] == pytest.approx(2.0 * spec.failure_rate)

    def test_independent_repairs_scale_with_failed_replicas(self, paper_types):
        model = AvailabilityModel(paper_types, config(paper_types, (3, 1, 1)))
        q = model.generator_matrix()
        spec = paper_types.spec("comm")
        state = model.encode((1, 1, 1))  # two comm replicas down
        target = model.encode((2, 1, 1))
        assert q[state, target] == pytest.approx(2.0 * spec.repair_rate)

    def test_single_crew_repairs_do_not_scale(self, paper_types):
        model = AvailabilityModel(
            paper_types, config(paper_types, (3, 1, 1)),
            policy=RepairPolicy.SINGLE_CREW,
        )
        q = model.generator_matrix()
        spec = paper_types.spec("comm")
        state = model.encode((1, 1, 1))
        target = model.encode((2, 1, 1))
        assert q[state, target] == pytest.approx(spec.repair_rate)


class TestServerPool:
    def test_single_replica_availability_closed_form(self):
        spec = ServerTypeSpec("x", 1.0, failure_rate=1.0, repair_rate=3.0)
        pool = ServerPoolAvailability(spec, count=1)
        assert pool.unavailability == pytest.approx(0.25)

    def test_independent_repair_product_form(self):
        # At the landscapes' realistic rates (lambda << mu) both the
        # birth-death chain and the closed form are within a few ulp of
        # exact rational arithmetic.
        for spec in LANDSCAPE_SPECS:
            for count in range(1, 9):
                pool = ServerPoolAvailability(spec, count=count)
                assert pool.unavailability == pytest.approx(
                    pool.unavailability_closed_form(), rel=1e-14, abs=0.0
                )

    def test_unavailability_decreases_geometrically(self):
        spec = ServerTypeSpec("x", 1.0, failure_rate=0.1, repair_rate=1.0)
        values = [
            ServerPoolAvailability(spec, count=c).unavailability
            for c in (1, 2, 3)
        ]
        assert values[0] > values[1] > values[2]
        # Ratio between consecutive levels equals the single-replica
        # down probability (product form).
        down = 1.0 - spec.single_server_availability
        assert values[1] / values[0] == pytest.approx(down, rel=1e-9)

    def test_single_crew_is_worse_than_independent(self):
        spec = ServerTypeSpec("x", 1.0, failure_rate=0.5, repair_rate=1.0)
        independent = ServerPoolAvailability(
            spec, count=3, policy=RepairPolicy.INDEPENDENT
        )
        single = ServerPoolAvailability(
            spec, count=3, policy=RepairPolicy.SINGLE_CREW
        )
        assert single.unavailability > independent.unavailability

    def test_closed_form_requires_independent_policy(self):
        spec = ServerTypeSpec("x", 1.0, failure_rate=0.5, repair_rate=1.0)
        pool = ServerPoolAvailability(
            spec, count=2, policy=RepairPolicy.SINGLE_CREW
        )
        with pytest.raises(ValidationError):
            pool.unavailability_closed_form()

    def test_failure_free_type_is_always_up(self):
        spec = ServerTypeSpec("x", 1.0)
        pool = ServerPoolAvailability(spec, count=2)
        assert pool.unavailability == 0.0
        assert pool.expected_available == pytest.approx(2.0)

    def test_expected_available(self):
        spec = ServerTypeSpec("x", 1.0, failure_rate=1.0, repair_rate=1.0)
        pool = ServerPoolAvailability(spec, count=2)
        # Each replica is up half the time, independently.
        assert pool.expected_available == pytest.approx(1.0)


class TestModelQueries:
    def test_per_type_unavailability(self, paper_types):
        model = AvailabilityModel(paper_types, config(paper_types, (1, 1, 1)))
        per_type = model.per_type_unavailability()
        assert per_type["app"] > per_type["engine"] > per_type["comm"]

    def test_state_probabilities_sum_to_one(self, paper_types):
        model = AvailabilityModel(paper_types, config(paper_types, (2, 1, 1)))
        probabilities = model.state_probabilities()
        assert sum(probabilities.values()) == pytest.approx(1.0)

    def test_full_state_is_most_likely(self, paper_types):
        model = AvailabilityModel(paper_types, config(paper_types, (2, 2, 2)))
        probabilities = model.state_probabilities()
        assert max(probabilities, key=probabilities.get) == (2, 2, 2)

    def test_availability_is_complement(self, paper_types):
        model = AvailabilityModel(paper_types, config(paper_types, (1, 1, 1)))
        assert model.availability() == pytest.approx(
            1.0 - model.unavailability()
        )

    def test_zero_replica_configuration_rejected(self, paper_types):
        with pytest.raises(ValidationError):
            AvailabilityModel(paper_types, config(paper_types, (0, 1, 1)))

    def test_unknown_unit_rejected(self, paper_types):
        model = AvailabilityModel(paper_types, config(paper_types, (1, 1, 1)))
        with pytest.raises(ValidationError):
            model.downtime_per_year("fortnights")


#: Standard-landscape counts whose unavailability spans 1.4e-6 down to
#: 1.6e-11.
JOINT_COUNTS = [(2, 2, 3), (3, 3, 4), (4, 4, 4), (4, 4, 5), (5, 5, 5)]


class TestJointNumerics:
    @pytest.mark.parametrize("counts", JOINT_COUNTS, ids=str)
    @pytest.mark.parametrize("method", ["direct", "gauss_seidel", "sparse"])
    def test_joint_ctmc_matches_product_form(self, method, counts):
        # Each solver's error stays near 1e-16 absolute, so its relative
        # error grows as the unavailability falls (2e-5 at 1.6e-11).
        types = standard_server_types()
        model = AvailabilityModel(
            types, SystemConfiguration(dict(zip(types.names, counts)))
        )
        joint = model.unavailability(method="joint", solve_method=method)
        assert joint == pytest.approx(
            model.unavailability(), rel=0.0, abs=1e-14
        )

    @pytest.mark.parametrize(
        "counts", [(2, 2, 2), (3, 3, 3), (2, 3, 4), (4, 4, 4)], ids=str
    )
    @pytest.mark.parametrize("method", ["direct", "gauss_seidel", "sparse"])
    def test_joint_ctmc_is_relatively_exact_down_to_1e_9(
        self, method, counts
    ):
        # The unavailabilities the search reaches (4.9e-5 down to 2.3e-9)
        # lie below an absolute 1e-8 tolerance, so compare relatively.
        # The worst error here is 1.1e-7 (direct at (4, 4, 4)); at
        # (5, 5, 5), 1.6e-11, direct is off by 2e-5, hence the floor.
        types = standard_server_types()
        model = AvailabilityModel(
            types, SystemConfiguration(dict(zip(types.names, counts)))
        )
        product = model.unavailability()
        assert 1e-9 < product < 1e-4
        joint = model.unavailability(method="joint", solve_method=method)
        assert joint == pytest.approx(product, rel=1e-6, abs=0.0)


class TestMinimumReplicas:
    def test_finds_smallest_sufficient_count(self):
        spec = ServerTypeSpec("x", 1.0, failure_rate=0.1, repair_rate=1.0)
        down = 1.0 - spec.single_server_availability
        target = down**2 * 1.01  # two replicas just suffice
        assert minimum_replicas_for_availability(spec, target) == 2

    def test_raises_when_unreachable(self):
        spec = ServerTypeSpec("x", 1.0, failure_rate=10.0, repair_rate=0.1)
        with pytest.raises(ValidationError):
            minimum_replicas_for_availability(spec, 1e-30, max_replicas=3)

    def test_bound_validation(self):
        spec = ServerTypeSpec("x", 1.0, failure_rate=0.1, repair_rate=1.0)
        with pytest.raises(ValidationError):
            minimum_replicas_for_availability(spec, 0.0)
