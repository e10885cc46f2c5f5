"""Byte-equality goldens for the documents of every configuration search.

The golden files under ``tests/core/goldens/search/`` hold, for two
workloads × two constraint sets × three goal sets, the JSON document of
each of the five searches (greedy, exhaustive, branch-and-bound,
simulated annealing with seed 0, and the Pareto frontier with seed 13)
together with the search's evaluation counters.  A document carries the
``evaluations`` count and, for greedy, the step-by-step ``trace``; an
infeasible search records its error and ``best_found`` recommendation,
as ``repro recommend --json`` prints them.

Together they pin the order in which each strategy consumes its
candidates: a change to proposal order, termination, or evaluation
accounting moves a count, a trace step, or a best-found configuration.

``frontier_digests.json`` in the same directory widens the frontier's
guard beyond seed 13: the sha256 of the canonical JSON document of
:func:`~repro.core.search.frontier_search` on both models (at most 16
servers, loose goals) for seeds 0–19, over all four objective axes and
over ``("cost", "unavailability")`` alone.

Regenerate deliberately (only when a search is *meant* to change)::

    PYTHONPATH=src python tools/capture_search_goldens.py
"""

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro import obs
from repro.core.configuration import SEARCHES, ReplicationConstraints
from repro.core.goals import GoalEvaluator, PerformabilityGoals
from repro.core.performance import PerformanceModel, Workload, WorkloadItem
from repro.core.search import OBJECTIVES, frontier_search
from repro.exceptions import InfeasibleConfigurationError
from repro.workflows import (
    ecommerce_workflow,
    extended_server_types,
    loan_workflow,
    order_processing_workflow,
    standard_server_types,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens" / "search"

FRONTIER_SEED = 13

FRONTIER_DIGESTS = GOLDEN_DIR / "frontier_digests.json"

#: Seeds of the frontier digests.
DIGEST_SEEDS = range(20)

#: Objective sets of the frontier digests, by the name used in their keys.
DIGEST_OBJECTIVES = {
    "all": OBJECTIVES,
    "cost-unavailability": ("cost", "unavailability"),
}


def demo_model() -> PerformanceModel:
    """The ``repro init-demo`` study: three types, EP + OrderProcessing."""
    return PerformanceModel(
        standard_server_types(),
        Workload(
            [
                WorkloadItem(ecommerce_workflow(), 0.4),
                WorkloadItem(order_processing_workflow(), 0.2),
            ]
        ),
    )


def five_type_model() -> PerformanceModel:
    """The five-type model of the benchmark's search-frontier workload."""
    return PerformanceModel(
        extended_server_types(),
        Workload(
            [
                WorkloadItem(ecommerce_workflow(), 0.3),
                WorkloadItem(order_processing_workflow(), 0.15),
                WorkloadItem(loan_workflow(), 0.1),
            ]
        ),
    )


MODELS = {"demo": demo_model, "five_type": five_type_model}

GOALS = {
    "loose": PerformabilityGoals(
        max_waiting_time=0.5, max_unavailability=1e-4
    ),
    "tight": PerformabilityGoals(
        max_waiting_time=0.15, max_unavailability=1e-6
    ),
    "infeasible": PerformabilityGoals(
        max_waiting_time=0.01, max_unavailability=1e-12
    ),
}


def constraints_for(box: str, names) -> ReplicationConstraints:
    """``total16``: at most 16 servers; ``box4``: at most 4 per type."""
    if box == "total16":
        return ReplicationConstraints(max_total_servers=16)
    return ReplicationConstraints(maximum={name: 4 for name in names})


BOXES = ("total16", "box4")

ALGORITHMS = (
    "greedy",
    "exhaustive",
    "branch_and_bound",
    "simulated_annealing",
    "frontier",
)

#: Counters that move with the candidates a search consumes.
COUNTERS = (
    "availability.steady_state_solves",
    "configuration.candidates_evaluated",
    "configuration.goal_violations",
    "configuration.search.iterations",
    "evaluation_cache.assessments.hits",
    "evaluation_cache.assessments.misses",
    "evaluation_cache.type_terms.hits",
    "evaluation_cache.type_terms.misses",
    "performability.evaluations",
    "performance.waiting_time_points",
    "search.frontier.dominated",
    "search.frontier.evaluated",
    "search.frontier.inserted",
    "search.frontier.restarts",
)

CASES = [
    (model, box, goals)
    for model in MODELS
    for box in BOXES
    for goals in GOALS
]


def search_document(model: str, box: str, goals: str, algorithm: str):
    """Document and counters of one search on a fresh evaluator."""
    performance = MODELS[model]()
    evaluator = GoalEvaluator(performance)
    constraints = constraints_for(box, performance.server_types.names)
    obs.reset()
    obs.enable()
    try:
        if algorithm == "frontier":
            document = frontier_search(
                evaluator, GOALS[goals], constraints, seed=FRONTIER_SEED
            ).to_document()
        else:
            document = SEARCHES[algorithm](
                evaluator, GOALS[goals], constraints
            ).to_document()
    except InfeasibleConfigurationError as error:
        best = error.best_found
        document = {
            "error": str(error),
            "best_found": best.to_document() if best is not None else None,
        }
    finally:
        counters = {
            name: obs.registry().counter(name).value for name in COUNTERS
        }
        obs.disable()
        obs.reset()
    return {"document": document, "counters": counters}


def golden_text(model: str, box: str, goals: str) -> str:
    """Canonical golden text of the five searches of one case."""
    documents = {
        algorithm: search_document(model, box, goals, algorithm)
        for algorithm in ALGORITHMS
    }
    return json.dumps(documents, indent=2, sort_keys=True) + "\n"


def golden_path(model: str, box: str, goals: str) -> Path:
    """Where the golden of one case lives."""
    return GOLDEN_DIR / f"{model}-{box}-{goals}.json"


@pytest.mark.parametrize(
    ("model", "box", "goals"), CASES, ids=["-".join(c) for c in CASES]
)
def test_search_documents_match_golden(model, box, goals):
    golden = golden_path(model, box, goals).read_text()
    rebuilt = golden_text(model, box, goals)
    if rebuilt != golden:
        expected = json.loads(golden)
        actual = json.loads(rebuilt)
        diverged = [
            algorithm for algorithm in ALGORITHMS
            if actual[algorithm] != expected[algorithm]
        ]
        pytest.fail(f"search documents diverged from the golden: {diverged}")


@lru_cache(maxsize=None)
def _digest_model(model: str) -> PerformanceModel:
    return MODELS[model]()


def frontier_digests(model: str, objectives: str) -> dict[str, str]:
    """sha256 of each seed's frontier document, keyed ``model/objectives/seed``.

    Each search runs on a fresh evaluator, so no assessment carries
    over from an earlier seed.
    """
    performance = _digest_model(model)
    constraints = constraints_for("total16", performance.server_types.names)
    digests = {}
    for seed in DIGEST_SEEDS:
        document = frontier_search(
            GoalEvaluator(performance),
            GOALS["loose"],
            constraints,
            objectives=DIGEST_OBJECTIVES[objectives],
            seed=seed,
        ).to_document()
        text = json.dumps(document, sort_keys=True).encode()
        digests[f"{model}/{objectives}/{seed}"] = (
            hashlib.sha256(text).hexdigest()
        )
    return digests


DIGEST_CASES = [
    (model, objectives)
    for model in MODELS
    for objectives in DIGEST_OBJECTIVES
]


def frontier_digests_text() -> str:
    """Canonical text of ``frontier_digests.json``."""
    digests = {}
    for case in DIGEST_CASES:
        digests.update(frontier_digests(*case))
    return json.dumps(digests, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    ("model", "objectives"),
    DIGEST_CASES,
    ids=["-".join(case) for case in DIGEST_CASES],
)
def test_frontier_documents_match_digests(model, objectives):
    golden = json.loads(FRONTIER_DIGESTS.read_text())
    rebuilt = frontier_digests(model, objectives)
    diverged = [
        key for key, digest in rebuilt.items() if golden.get(key) != digest
    ]
    assert not diverged, f"frontier documents diverged: {diverged}"
