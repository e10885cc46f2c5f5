"""Tests for the online statistics collectors."""

import math

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.sim.statistics import RunningStats, TimeWeightedStats


class TestRunningStats:
    def test_matches_numpy(self):
        rng = np.random.default_rng(5)
        data = rng.uniform(0.0, 10.0, size=500)
        stats = RunningStats()
        for value in data:
            stats.add(float(value))
        assert stats.count == 500
        assert stats.mean == pytest.approx(float(np.mean(data)))
        assert stats.variance == pytest.approx(float(np.var(data, ddof=1)))
        assert stats.second_moment == pytest.approx(float(np.mean(data**2)))
        assert stats.minimum == pytest.approx(float(data.min()))
        assert stats.maximum == pytest.approx(float(data.max()))

    def test_empty_collector_defaults(self):
        stats = RunningStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.variance == 0.0
        assert math.isnan(stats.minimum)

    def test_confidence_interval_contains_mean(self):
        stats = RunningStats()
        for value in (1.0, 2.0, 3.0, 4.0):
            stats.add(value)
        low, high = stats.confidence_interval_95()
        assert low < stats.mean < high

    def test_ci_width_shrinks_with_samples(self):
        rng = np.random.default_rng(8)
        small, large = RunningStats(), RunningStats()
        for value in rng.normal(10.0, 2.0, size=50):
            small.add(float(value))
        for value in rng.normal(10.0, 2.0, size=5000):
            large.add(float(value))
        small_width = np.diff(small.confidence_interval_95())[0]
        large_width = np.diff(large.confidence_interval_95())[0]
        assert large_width < small_width

    def test_single_sample_degenerate_ci(self):
        stats = RunningStats()
        stats.add(5.0)
        assert stats.confidence_interval_95() == (5.0, 5.0)


class TestRunningStatsMerge:
    def test_merge_equals_bulk_add(self):
        rng = np.random.default_rng(13)
        left_data = rng.uniform(-5.0, 5.0, size=137)
        right_data = rng.normal(2.0, 3.0, size=411)
        left, right, bulk = RunningStats(), RunningStats(), RunningStats()
        for value in left_data:
            left.add(float(value))
            bulk.add(float(value))
        for value in right_data:
            right.add(float(value))
            bulk.add(float(value))
        left.merge(right)
        assert left.count == bulk.count
        assert left.mean == pytest.approx(bulk.mean)
        assert left.variance == pytest.approx(bulk.variance)
        assert left.second_moment == pytest.approx(bulk.second_moment)
        assert left.minimum == bulk.minimum
        assert left.maximum == bulk.maximum

    def test_merge_into_empty_copies(self):
        source = RunningStats()
        for value in (1.0, 4.0, 9.0):
            source.add(value)
        target = RunningStats()
        target.merge(source)
        assert target.count == 3
        assert target.mean == pytest.approx(source.mean)
        assert target.variance == pytest.approx(source.variance)

    def test_merge_empty_is_noop(self):
        stats = RunningStats()
        stats.add(2.0)
        stats.add(4.0)
        stats.merge(RunningStats())
        assert stats.count == 2
        assert stats.mean == pytest.approx(3.0)

    def test_merge_leaves_other_untouched(self):
        left, right = RunningStats(), RunningStats()
        left.add(1.0)
        right.add(10.0)
        left.merge(right)
        assert right.count == 1
        assert right.mean == 10.0

    def test_merged_classmethod_many_collectors(self):
        rng = np.random.default_rng(3)
        chunks = [rng.normal(0.0, 1.0, size=n) for n in (3, 50, 1, 200)]
        collectors = []
        bulk = RunningStats()
        for chunk in chunks:
            collector = RunningStats()
            for value in chunk:
                collector.add(float(value))
                bulk.add(float(value))
            collectors.append(collector)
        merged = RunningStats.merged(collectors)
        assert merged.count == bulk.count
        assert merged.mean == pytest.approx(bulk.mean)
        assert merged.variance == pytest.approx(bulk.variance)
        assert merged.minimum == bulk.minimum
        assert merged.maximum == bulk.maximum


class TestTimeWeightedStatsMerge:
    def test_duration_weighted_pooling(self):
        # Window A: value 1 for 10 units; window B: value 0 for 30 units.
        a = TimeWeightedStats(1.0, start_time=0.0)
        a.finalize(10.0)
        b = TimeWeightedStats(0.0, start_time=100.0)
        b.finalize(130.0)
        pool = TimeWeightedStats()
        pool.merge(a)
        pool.merge(b)
        assert pool.time_average() == pytest.approx(10.0 / 40.0)

    def test_merge_requires_finalized_window(self):
        open_window = TimeWeightedStats(1.0, start_time=0.0)
        open_window.update(0.0, 5.0)
        pool = TimeWeightedStats()
        with pytest.raises(ValidationError):
            pool.merge(open_window)

    def test_merge_of_merged_windows(self):
        # Merging a collector that itself holds merged windows folds the
        # whole accumulated mass, not just its live window.
        a = TimeWeightedStats(1.0, start_time=0.0)
        a.finalize(10.0)
        inner = TimeWeightedStats()
        inner.merge(a)
        inner.finalize(0.0)
        outer = TimeWeightedStats()
        outer.merge(inner)
        b = TimeWeightedStats(0.0, start_time=0.0)
        b.finalize(10.0)
        outer.merge(b)
        assert outer.time_average() == pytest.approx(0.5)

    def test_merge_leaves_other_untouched(self):
        a = TimeWeightedStats(2.0, start_time=0.0)
        a.finalize(4.0)
        pool = TimeWeightedStats()
        pool.merge(a)
        assert a.time_average() == pytest.approx(2.0)
        assert a._finalized_at == 4.0


class TestTimeWeightedStats:
    def test_step_function_average(self):
        stats = TimeWeightedStats(0.0, start_time=0.0)
        stats.update(1.0, 2.0)   # value 0 on [0,2)
        stats.update(3.0, 4.0)   # value 1 on [2,4)
        stats.finalize(10.0)     # value 3 on [4,10)
        # (0*2 + 1*2 + 3*6) / 10 = 2.0
        assert stats.time_average() == pytest.approx(2.0)

    def test_average_with_explicit_end(self):
        stats = TimeWeightedStats(2.0, start_time=0.0)
        assert stats.time_average(until=5.0) == pytest.approx(2.0)

    def test_zero_window_returns_current_value(self):
        stats = TimeWeightedStats(7.0, start_time=3.0)
        assert stats.time_average(until=3.0) == 7.0

    def test_backwards_update_rejected(self):
        stats = TimeWeightedStats(0.0, start_time=5.0)
        with pytest.raises(ValidationError):
            stats.update(1.0, 4.0)

    def test_backwards_window_rejected(self):
        stats = TimeWeightedStats(0.0, start_time=0.0)
        stats.update(1.0, 5.0)
        with pytest.raises(ValidationError):
            stats.time_average(until=4.0)

    def test_utilization_style_usage(self):
        busy = TimeWeightedStats(0.0, start_time=0.0)
        busy.update(1.0, 1.0)   # becomes busy at t=1
        busy.update(0.0, 3.0)   # idle at t=3
        assert busy.time_average(until=4.0) == pytest.approx(0.5)
