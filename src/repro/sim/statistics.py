"""Online statistics collectors for simulation measurements.

Collects exactly the quantities the paper's calibration component needs
(Section 7.1): first and second moments of observed durations (service
times, waiting times) and time-weighted averages (utilization,
availability).
"""

from __future__ import annotations

import math

from repro.exceptions import ValidationError

try:  # numpy accelerates the block paths but is not required here
    import numpy as np
except ImportError:  # pragma: no cover - the toolchain ships numpy
    np = None

#: Two-sided 95% normal quantile used for confidence intervals.
NORMAL_QUANTILE_95 = 1.959963984540054


class RunningStats:
    """Streaming mean / variance / second moment (Welford's algorithm)."""

    __slots__ = (
        "_count", "_mean", "_m2", "_sum_squares", "_minimum", "_maximum"
    )

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0  # sum of squared deviations from the running mean
        self._sum_squares = 0.0
        self._minimum = math.inf
        self._maximum = -math.inf

    def add(self, value: float) -> None:
        """Record one observation."""
        count = self._count + 1
        self._count = count
        delta = value - self._mean
        mean = self._mean + delta / count
        self._mean = mean
        self._m2 += delta * (value - mean)
        self._sum_squares += value * value
        if value < self._minimum:
            self._minimum = value
        if value > self._maximum:
            self._maximum = value

    def add_block(self, values) -> None:
        """Record a whole block of observations in one vectorized step.

        Computes the block's count/mean/M2/extrema with numpy reductions
        and folds them in via the same Chan–Golub–LeVeque combination as
        :meth:`merge` — the buffered flush path of the fast-RNG
        simulation mode, where per-observation :meth:`add` calls are the
        measured hot spot.  The result is statistically identical to
        adding the values one by one but not bitwise so (different
        summation order); exact-mode collectors therefore never use it.
        Falls back to scalar :meth:`add` when numpy is unavailable.
        """
        if np is None:
            for value in values:
                self.add(value)
            return
        block = np.asarray(values, dtype=float)
        count = block.size
        if count == 0:
            return
        mean = float(block.mean())
        centered = block - mean
        m2 = float(centered.dot(centered))
        minimum = float(block.min())
        maximum = float(block.max())
        sum_squares = float(block.dot(block))
        if self._count == 0:
            self._count = count
            self._mean = mean
            self._m2 = m2
        else:
            total = self._count + count
            delta = mean - self._mean
            self._m2 += m2 + delta * delta * self._count * count / total
            self._mean = (
                self._count * self._mean + count * mean
            ) / total
            self._count = total
        self._sum_squares += sum_squares
        if minimum < self._minimum:
            self._minimum = minimum
        if maximum > self._maximum:
            self._maximum = maximum

    @property
    def count(self) -> int:
        """Number of accumulated values."""
        return self._count

    @property
    def mean(self) -> float:
        """Sample mean (0 when empty)."""
        return self._mean if self._count else 0.0

    @property
    def second_moment(self) -> float:
        """Raw second moment ``E[X^2]`` estimate."""
        if not self._count:
            return 0.0
        return self._sum_squares / self._count

    @property
    def variance(self) -> float:
        """Unbiased sample variance."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def standard_deviation(self) -> float:
        """Square root of the unbiased sample variance."""
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest accumulated value (NaN when empty)."""
        return self._minimum if self._count else math.nan

    @property
    def maximum(self) -> float:
        """Largest accumulated value (NaN when empty)."""
        return self._maximum if self._count else math.nan

    def confidence_interval_95(self) -> tuple[float, float]:
        """Normal-approximation 95% CI of the mean."""
        if self._count < 2:
            return (self.mean, self.mean)
        half_width = NORMAL_QUANTILE_95 * self.standard_deviation / math.sqrt(
            self._count
        )
        return (self.mean - half_width, self.mean + half_width)

    def merge(self, other: "RunningStats") -> None:
        """Fold another collector into this one.

        After merging, this collector reports the same count, mean,
        variance, second moment, and extrema as one that observed both
        sample sequences (the parallel-variance combination of Chan,
        Golub & LeVeque).  ``other`` is left untouched.  Merging is the
        campaign runner's aggregation primitive: replications collect
        independently (possibly in different processes) and are folded
        together afterwards.
        """
        if other._count == 0:
            return
        if self._count == 0:
            self._count = other._count
            self._mean = other._mean
            self._m2 = other._m2
            self._sum_squares = other._sum_squares
            self._minimum = other._minimum
            self._maximum = other._maximum
            return
        total = self._count + other._count
        delta = other._mean - self._mean
        self._m2 = (
            self._m2
            + other._m2
            + delta * delta * self._count * other._count / total
        )
        self._mean = (
            self._count * self._mean + other._count * other._mean
        ) / total
        self._count = total
        self._sum_squares += other._sum_squares
        self._minimum = min(self._minimum, other._minimum)
        self._maximum = max(self._maximum, other._maximum)

    @classmethod
    def merged(cls, collectors: "list[RunningStats]") -> "RunningStats":
        """A fresh collector equal to merging ``collectors`` in order."""
        result = cls()
        for collector in collectors:
            result.merge(collector)
        return result

    def export_state(self) -> list[float]:
        """The collector's exact accumulator state, as a JSON list.

        The six accumulators are plain floats/ints that survive a JSON
        round-trip bit-for-bit (Python serializes floats with the
        shortest round-tripping ``repr``; empty-collector extrema are
        ``Infinity``/``-Infinity``, which :mod:`json` accepts), so
        :meth:`restore_state` rebuilds a collector whose every future
        observation produces bitwise-identical statistics.  This is the
        snapshot primitive of the always-on recommendation service's
        warm restart.
        """
        return [
            self._count,
            self._mean,
            self._m2,
            self._sum_squares,
            self._minimum,
            self._maximum,
        ]

    @classmethod
    def restore_state(cls, state: list[float]) -> "RunningStats":
        """Rebuild a collector from :meth:`export_state` output."""
        if len(state) != 6:
            raise ValidationError(
                f"RunningStats state needs 6 accumulators, got {len(state)}"
            )
        stats = cls()
        stats._count = int(state[0])
        stats._mean = float(state[1])
        stats._m2 = float(state[2])
        stats._sum_squares = float(state[3])
        stats._minimum = float(state[4])
        stats._maximum = float(state[5])
        return stats


class TimeWeightedStats:
    """Time-average of a piecewise-constant signal (utilization etc.).

    Call :meth:`update` whenever the signal changes; the value between
    updates is held constant.  :meth:`finalize` closes the observation
    window at the given time.
    """

    __slots__ = (
        "_value", "_last_time", "_start_time", "_weighted_sum",
        "_finalized_at", "_merged_weight", "_merged_duration",
    )

    def __init__(self, initial_value: float = 0.0, start_time: float = 0.0):
        self._value = initial_value
        self._last_time = start_time
        self._start_time = start_time
        self._weighted_sum = 0.0
        self._finalized_at: float | None = None
        # Closed windows folded in via merge (weight = value x duration).
        self._merged_weight = 0.0
        self._merged_duration = 0.0

    def update(self, value: float, time: float) -> None:
        """The signal takes ``value`` from ``time`` onwards."""
        last = self._last_time
        if time < last:
            raise ValidationError(
                f"time {time} precedes last update {last}"
            )
        self._weighted_sum += self._value * (time - last)
        self._value = value
        self._last_time = time

    def update_block(self, values, times) -> None:
        """Apply a whole batch of updates in one vectorized step.

        ``values[i]`` takes effect at ``times[i]``; times must be
        non-decreasing and start no earlier than the last update.  The
        result equals calling :meth:`update` pairwise (modulo float
        summation order), but the piecewise integral of the batch is
        computed with one dot product — the buffered busy-time flush of
        the fast-RNG simulation mode.  Falls back to scalar updates
        when numpy is unavailable.
        """
        if len(values) != len(times):
            raise ValidationError(
                "values and times must have the same length"
            )
        if not len(values):
            return
        if np is None or len(values) < 2:
            for value, time in zip(values, times):
                self.update(value, time)
            return
        time_array = np.asarray(times, dtype=float)
        if time_array[0] < self._last_time:
            raise ValidationError(
                f"time {time_array[0]} precedes last update "
                f"{self._last_time}"
            )
        if np.any(np.diff(time_array) < 0.0):
            raise ValidationError("times must be non-decreasing")
        value_array = np.asarray(values, dtype=float)
        # float(...) around the full increment: numpy scalars would
        # otherwise infect _weighted_sum (and every downstream document
        # value) with np.float64.
        self._weighted_sum += float(
            self._value * (time_array[0] - self._last_time)
            + value_array[:-1].dot(np.diff(time_array))
        )
        self._value = float(value_array[-1])
        self._last_time = float(time_array[-1])

    @property
    def current_value(self) -> float:
        """Level set by the most recent update."""
        return self._value

    def finalize(self, time: float) -> None:
        """Close the window; the signal held its value until ``time``."""
        self.update(self._value, time)
        self._finalized_at = time

    def time_average(self, until: float | None = None) -> float:
        """Time-weighted average over the observation window."""
        end = until if until is not None else (
            self._finalized_at
            if self._finalized_at is not None
            else self._last_time
        )
        if end < self._last_time:
            raise ValidationError("averaging window ends before last update")
        total = (end - self._start_time) + self._merged_duration
        if total <= 0.0:
            return self._value
        weighted = (
            self._weighted_sum
            + self._value * (end - self._last_time)
            + self._merged_weight
        )
        return weighted / total

    def merge(self, other: "TimeWeightedStats") -> None:
        """Fold another (disjoint) observation window into this one.

        The merged :meth:`time_average` is the duration-weighted average
        over both windows — exactly what pooling the same signal across
        independent replications requires.  ``other``'s window must be
        closed (:meth:`finalize` called); it is left untouched.
        """
        if other._finalized_at is None:
            raise ValidationError(
                "merge requires the other window to be finalized"
            )
        end = other._finalized_at
        self._merged_weight += (
            other._weighted_sum
            + other._value * (end - other._last_time)
            + other._merged_weight
        )
        self._merged_duration += (
            (end - other._start_time) + other._merged_duration
        )
