"""Percentile rule, open-loop accounting, regression bounds, machine speed."""

import pytest

from bench.stats import (
    REFERENCE_SECONDS,
    MachineSpeed,
    best_per_operation,
    median_per_operation,
    percentile,
    regressions,
    run_open_loop,
    summarize,
    tail_percentile,
)


class TestPercentiles:
    def test_linear_interpolation_between_ranks(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
        assert percentile([1.0, 2.0, 3.0, 4.0], 0) == 1.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
        assert percentile([7.0], 99) == 7.0

    def test_no_samples_is_an_error(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    @pytest.mark.parametrize(
        "samples, expected",
        [
            (2000, 99),
            (1000, 99),  # exactly ten beyond p99
            (999, 90),
            (100, 90),
            (99, 75),
            (40, 75),
            (39, 50),
            (3, 50),
            (1, 50),
        ],
    )
    def test_tail_needs_ten_samples_beyond_it(self, samples, expected):
        assert tail_percentile(samples) == expected

    def test_summary_states_its_sample_count(self):
        values = [float(i) for i in range(1, 101)]
        summary = summarize(values)
        assert summary == {
            "p50": 50.5,
            "tail": percentile(values, 90),
            "tail_percentile": 90,
            "samples": 100,
        }


class FakeClock:
    """A clock that only moves when the code under test sleeps or sends."""

    def __init__(self) -> None:
        self.now = 100.0
        self.sleeps: list[float] = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


def sender(clock: FakeClock, durations: dict):
    def send(request):
        clock.now += durations[request]
        return f"ok-{request}"

    return send


class TestOpenLoop:
    def test_on_schedule_requests_are_not_late(self):
        clock = FakeClock()
        schedule = [(0.0, "a"), (0.01, "b"), (0.02, "c")]
        sent = run_open_loop(
            schedule,
            sender(clock, {"a": 0.002, "b": 0.002, "c": 0.002}),
            clock.clock,
            clock.sleep,
        )
        assert [s.lateness for s in sent] == [0.0, 0.0, 0.0]
        assert [s.latency for s in sent] == pytest.approx([0.002] * 3)
        assert clock.sleeps == pytest.approx([0.008, 0.008])
        assert [s.result for s in sent] == ["ok-a", "ok-b", "ok-c"]

    def test_a_stall_is_charged_to_the_requests_behind_it(self):
        clock = FakeClock()
        schedule = [(0.0, "a"), (0.01, "b"), (0.02, "c"), (0.1, "d")]
        sent = run_open_loop(
            schedule,
            sender(clock, {"a": 0.05, "b": 0.001, "c": 0.001, "d": 0.001}),
            clock.clock,
            clock.sleep,
        )
        # b was due at 0.01 but could only go out at 0.05.
        assert [s.lateness for s in sent] == pytest.approx(
            [0.0, 0.04, 0.031, 0.0]
        )
        assert [s.latency for s in sent] == pytest.approx(
            [0.05, 0.041, 0.032, 0.001]
        )
        # The generator catches up, then waits for d's due time.
        assert clock.sleeps == pytest.approx([0.048])

    def test_due_times_are_measured_from_the_start(self):
        clock = FakeClock()
        sent = run_open_loop(
            [(0.5, "a")], sender(clock, {"a": 0.0}), clock.clock, clock.sleep
        )
        assert sent[0].due == pytest.approx(100.5)
        assert sent[0].start == pytest.approx(100.5)


METRICS = [
    {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.2},
]


class TestRegressions:
    def test_within_bound_is_not_a_regression(self):
        assert regressions(
            {"w": {"p50_ms": 10.0, "rate": 100.0}},
            {"w": {"p50_ms": 10.9, "rate": 81.0}},
            METRICS,
        ) == []

    def test_worse_than_bound_is_reported_per_direction(self):
        found = regressions(
            {"w": {"p50_ms": 10.0, "rate": 100.0}},
            {"w": {"p50_ms": 11.5, "rate": 79.0}},
            METRICS,
        )
        assert len(found) == 2
        assert found[0].startswith("w p50_ms")
        assert found[1].startswith("w rate")

    def test_improvements_pass(self):
        assert regressions(
            {"w": {"p50_ms": 10.0, "rate": 100.0}},
            {"w": {"p50_ms": 5.0, "rate": 300.0}},
            METRICS,
        ) == []

    def test_unmatched_workloads_and_metrics_are_skipped(self):
        assert regressions(
            {"old": {"p50_ms": 1.0}},
            {"new": {"p50_ms": 100.0}, "w": {"rate": 1.0}},
            METRICS,
        ) == []


def ticked(*ticks: tuple[float, float]) -> MachineSpeed:
    """A MachineSpeed whose samples at ``when`` all read ``slowdown``
    times the reference."""
    speed = MachineSpeed()
    speed.ticks = [
        (when, [slowdown * REFERENCE_SECONDS] * MachineSpeed.REPEATS)
        for when, slowdown in ticks
    ]
    return speed


class TestMachineSpeed:
    def test_factor_scales_to_the_median_sample(self):
        speed = ticked((1.0, 2.0), (2.0, 4.0), (3.0, 9.0))
        assert speed.factor == pytest.approx(0.25)

    def test_scale_uses_the_samples_around_the_operation(self):
        speed = ticked((10.0, 2.0), (20.0, 4.0), (30.0, 8.0), (40.0, 8.0))
        # Between the samples reading 2x and 4x: their median is 3x.
        assert speed.scale(12.0, 3.0) == pytest.approx(1.0)
        # Spanning a sample: the ones before and after it count.
        assert speed.scale(15.0, 10.0) == pytest.approx(2.0)
        # Before the first and after the last sample: the nearest one.
        assert speed.scale(5.0, 2.0) == pytest.approx(1.0)
        assert speed.scale(45.0, 8.0) == pytest.approx(1.0)

    def test_tick_samples_at_most_once_per_interval(self):
        speed = MachineSpeed(interval=3600.0)
        speed.tick()
        speed.tick()
        assert len(speed.samples) == MachineSpeed.REPEATS
        assert min(speed.samples) > 0.0


class TestPerOperation:
    SAMPLES = [("a", 3.0), ("b", 5.0), ("a", 1.0), ("a", 2.0), ("b", 4.0)]

    def test_best_is_each_operations_fastest_repeat(self):
        assert best_per_operation(self.SAMPLES) == [1.0, 4.0]

    def test_median_is_each_operations_middle_repeat(self):
        assert median_per_operation(self.SAMPLES) == [2.0, 4.5]
