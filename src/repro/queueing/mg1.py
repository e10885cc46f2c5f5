"""M/G/1 queueing formulas (Pollaczek-Khinchine).

Section 4.4 of the paper models each server replica as an M/G/1 station:
Poisson request arrivals (justified by the superposition of many
independent workflow instances), a general service time characterized by
its first two moments, one server.  The mean waiting time is::

    w = arrival_rate * second_moment / (2 * (1 - utilization))

Saturated stations (utilization >= 1) yield an infinite waiting time by
default; callers that prefer an exception can pass ``strict=True``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.exceptions import SaturationError, ValidationError


def _validate_inputs(
    arrival_rate: float,
    mean_service_time: float,
    second_moment_service_time: float,
) -> None:
    if arrival_rate < 0.0:
        raise ValidationError("arrival rate must be >= 0")
    if mean_service_time <= 0.0:
        raise ValidationError("mean service time must be positive")
    if second_moment_service_time < mean_service_time**2:
        raise ValidationError(
            "second moment must be at least the squared mean"
        )


def mg1_mean_waiting_time(
    arrival_rate: float,
    mean_service_time: float,
    second_moment_service_time: float | None = None,
    strict: bool = False,
) -> float:
    """Mean waiting time (time in queue before service) of an M/G/1 station.

    ``second_moment_service_time`` defaults to the exponential value
    ``2 * mean**2`` (making the station an M/M/1).  Returns ``inf`` for a
    saturated station unless ``strict`` is set.
    """
    if second_moment_service_time is None:
        second_moment_service_time = 2.0 * mean_service_time**2
    _validate_inputs(arrival_rate, mean_service_time,
                     second_moment_service_time)
    utilization = arrival_rate * mean_service_time
    if utilization >= 1.0:
        if strict:
            raise SaturationError(
                f"station saturated: utilization {utilization:.4f} >= 1"
            )
        return math.inf
    return (arrival_rate * second_moment_service_time
            / (2.0 * (1.0 - utilization)))


def pooled_service_moments(
    arrival_rates: Sequence[float] | Iterable[float],
    mean_service_times: Sequence[float],
    second_moments: Sequence[float],
) -> tuple[float, float]:
    """First two moments of the service time of a merged request stream.

    When several server types share one computer (Section 4.4, generalized
    case), their Poisson streams superpose and the effective service time
    is a probabilistic mixture weighted by each stream's share of the total
    arrival rate.  Returns ``(mean, second_moment)`` of the mixture.
    """
    rates = [float(rate) for rate in arrival_rates]
    if len(rates) != len(mean_service_times) or len(rates) != len(second_moments):
        raise ValidationError("moment sequences must have equal length")
    if not rates:
        raise ValidationError("at least one stream is required")
    if any(rate < 0.0 for rate in rates):
        raise ValidationError("arrival rates must be >= 0")
    total = sum(rates)
    if total <= 0.0:
        raise ValidationError("total arrival rate must be positive")
    mean = sum(
        rate / total * b for rate, b in zip(rates, mean_service_times)
    )
    second = sum(
        rate / total * b2 for rate, b2 in zip(rates, second_moments)
    )
    return mean, second
