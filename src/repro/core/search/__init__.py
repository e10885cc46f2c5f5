"""The configuration-search engine (Section 7.2).

One engine, five candidate-proposal strategies:

* :class:`SearchEngine` — the unified propose → evaluate → observe →
  record loop that the four per-algorithm loops in
  :mod:`repro.core.configuration` collapsed into;
* :class:`GreedyStrategy`, :class:`ExhaustiveStrategy`,
  :class:`BranchAndBoundStrategy`, :class:`SimulatedAnnealingStrategy`
  — the paper's algorithms as pure proposal logic;
* :class:`ParetoFrontier` / :class:`FrontierStrategy` /
  :func:`frontier_search` — the multi-objective generalization: a
  maintained non-dominated set over cost, waiting time, unavailability,
  and performability (see :mod:`repro.core.search.frontier`).

The public convenience wrappers (``greedy_configuration`` etc.) live in
:mod:`repro.core.configuration` for API compatibility.
"""

from repro.core.search.candidates import (
    configurations_by_cost,
    initial_configuration,
    per_type_lower_bounds,
)
from repro.core.search.engine import SearchEngine
from repro.core.search.frontier import (
    OBJECTIVES,
    FrontierPoint,
    FrontierResult,
    FrontierStrategy,
    ParetoFrontier,
    frontier_search,
)
from repro.core.search.strategies import (
    BranchAndBoundStrategy,
    Candidate,
    ExhaustiveStrategy,
    GreedyStrategy,
    SearchStrategy,
    SimulatedAnnealingStrategy,
)
from repro.core.search.types import (
    ConfigurationRecommendation,
    ReplicationConstraints,
    SearchStep,
)

__all__ = [
    "BranchAndBoundStrategy",
    "Candidate",
    "ConfigurationRecommendation",
    "ExhaustiveStrategy",
    "FrontierPoint",
    "FrontierResult",
    "FrontierStrategy",
    "GreedyStrategy",
    "OBJECTIVES",
    "ParetoFrontier",
    "ReplicationConstraints",
    "SearchEngine",
    "SearchStep",
    "SearchStrategy",
    "SimulatedAnnealingStrategy",
    "configurations_by_cost",
    "frontier_search",
    "initial_configuration",
    "per_type_lower_bounds",
]
