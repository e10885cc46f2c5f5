"""Discrete-event simulation kernel: engine, distributions, statistics."""

from repro.sim.distributions import (
    Deterministic,
    Distribution,
    Erlang,
    Exponential,
    HyperExponential,
    LogNormal,
    Uniform,
    distribution_for_moments,
)
from repro.sim.engine import EventHandle, Simulator
from repro.sim.seeding import derive_rng, derive_seed
from repro.sim.statistics import RunningStats, TimeWeightedStats

__all__ = [
    "Deterministic",
    "Distribution",
    "Erlang",
    "EventHandle",
    "Exponential",
    "HyperExponential",
    "LogNormal",
    "RunningStats",
    "Simulator",
    "TimeWeightedStats",
    "Uniform",
    "derive_rng",
    "derive_seed",
    "distribution_for_moments",
]
