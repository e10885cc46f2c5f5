"""Queueing-theory utilities: the M/G/1 station of Section 4.4.

The paper models every server replica as an M/G/1 station (Section 4.4);
server types that share a computer merge their request streams, whose
pooled service-time moments feed the same formula.
"""

from repro.queueing.mg1 import (
    mg1_mean_waiting_time,
    pooled_service_moments,
)

__all__ = [
    "mg1_mean_waiting_time",
    "pooled_service_moments",
]
