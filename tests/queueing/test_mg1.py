"""Tests for the M/G/1 formulas (Section 4.4)."""

import math

import pytest

from repro.core.model_types import ServerTypeSpec
from repro.core.performance import waiting_time_point
from repro.exceptions import SaturationError, ValidationError
from repro.queueing import mg1_mean_waiting_time, pooled_service_moments


class TestWaitingTime:
    def test_mm1_special_case(self):
        # Exponential service: M/G/1 collapses to M/M/1, whose mean
        # wait is rho / (mu - lambda).
        arrival, mean = 0.5, 1.0
        service_rate = 1.0 / mean
        utilization = arrival / service_rate
        assert mg1_mean_waiting_time(arrival, mean) == pytest.approx(
            utilization / (service_rate - arrival)
        )

    def test_deterministic_service_halves_mm1_waiting(self):
        # M/D/1 waits exactly half as long as M/M/1 at equal utilization.
        arrival, mean = 0.5, 1.0
        md1 = mg1_mean_waiting_time(arrival, mean, mean**2)
        mm1 = mg1_mean_waiting_time(arrival, mean)
        assert md1 == pytest.approx(mm1 / 2.0)

    def test_hand_computed_value(self):
        # lambda=2, b=0.25 (rho=0.5), b2=0.2: w = 2*0.2/(2*0.5) = 0.4.
        assert mg1_mean_waiting_time(2.0, 0.25, 0.2) == pytest.approx(0.4)

    def test_zero_arrivals_no_waiting(self):
        assert mg1_mean_waiting_time(0.0, 1.0) == 0.0

    def test_saturation_returns_infinity(self):
        assert math.isinf(mg1_mean_waiting_time(2.0, 1.0))

    def test_saturation_strict_raises(self):
        with pytest.raises(SaturationError):
            mg1_mean_waiting_time(2.0, 1.0, strict=True)

    def test_waiting_grows_with_variability(self):
        low = mg1_mean_waiting_time(0.5, 1.0, 1.0)  # deterministic
        mid = mg1_mean_waiting_time(0.5, 1.0, 2.0)  # exponential
        high = mg1_mean_waiting_time(0.5, 1.0, 8.0)  # bursty
        assert low < mid < high

    def test_waiting_explodes_near_saturation(self):
        moderate = mg1_mean_waiting_time(0.5, 1.0)
        heavy = mg1_mean_waiting_time(0.99, 1.0)
        assert heavy > 50 * moderate

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"arrival_rate": -1.0, "mean_service_time": 1.0},
            {"arrival_rate": 1.0, "mean_service_time": 0.0},
            {
                "arrival_rate": 1.0,
                "mean_service_time": 1.0,
                "second_moment_service_time": 0.5,
            },
        ],
    )
    def test_input_validation(self, kwargs):
        with pytest.raises(ValidationError):
            mg1_mean_waiting_time(**kwargs)


#: Utilizations 1 - 10**-k for k = 1..15, one decade at a time up to
#: where a double still tells them apart from 1.
NEAR_SATURATION = [1.0 - 10.0**-k for k in range(1, 16)]


class TestNearSaturation:
    """The waiting time stays finite, positive and ordered as rho -> 1-.

    A unit mean service time makes the arrival rate the utilization
    itself, so ``1 - rho`` is exact and no rounding pushes rho to 1.
    """

    @pytest.mark.parametrize(
        "second_moment", [1.0, 2.0, 8.0],
        ids=["deterministic", "exponential", "bursty"],
    )
    def test_waiting_is_finite_and_non_decreasing(self, second_moment):
        waits = [
            mg1_mean_waiting_time(rho, 1.0, second_moment)
            for rho in NEAR_SATURATION
        ]
        assert all(0.0 < wait < math.inf for wait in waits)
        assert all(a <= b for a, b in zip(waits, waits[1:]))
        # w = rho * b2 / (2 * (1 - rho)) grows like 1 / (1 - rho).
        assert waits[-1] > 1e14

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_waiting_time_point_agrees(self, replicas):
        spec = ServerTypeSpec("app", 1.0, 3.0)
        for rho in NEAR_SATURATION:
            total = rho * replicas
            assert waiting_time_point(spec, total, replicas) == (
                mg1_mean_waiting_time(total / replicas, 1.0, 3.0)
            )

    @pytest.mark.parametrize("utilization", [1.0, 1.0 + 1e-15])
    def test_saturated_at_the_boundary(self, utilization):
        assert mg1_mean_waiting_time(utilization, 1.0) == math.inf
        with pytest.raises(SaturationError):
            mg1_mean_waiting_time(utilization, 1.0, strict=True)
        spec = ServerTypeSpec("app", 1.0)
        assert waiting_time_point(spec, utilization, 1) == math.inf
        with pytest.raises(SaturationError):
            waiting_time_point(spec, utilization, 1, strict=True)


class TestPooledMoments:
    def test_equal_streams_preserve_moments(self):
        mean, second = pooled_service_moments(
            [1.0, 1.0], [0.5, 0.5], [0.6, 0.6]
        )
        assert mean == pytest.approx(0.5)
        assert second == pytest.approx(0.6)

    def test_weighting_by_arrival_share(self):
        # 3:1 mix of fast (0.1) and slow (0.9) services.
        mean, _ = pooled_service_moments(
            [3.0, 1.0], [0.1, 0.9], [0.02, 1.62]
        )
        assert mean == pytest.approx(0.75 * 0.1 + 0.25 * 0.9)

    def test_validation(self):
        with pytest.raises(ValidationError):
            pooled_service_moments([1.0], [0.5, 0.5], [0.6, 0.6])
        with pytest.raises(ValidationError):
            pooled_service_moments([], [], [])
        with pytest.raises(ValidationError):
            pooled_service_moments([0.0, 0.0], [1.0, 1.0], [2.0, 2.0])
        with pytest.raises(ValidationError):
            pooled_service_moments([-1.0, 2.0], [1.0, 1.0], [2.0, 2.0])
