"""Analytic workloads: spec → recommendation, and the frontier search.

``spec-corpus`` runs the whole §7 chain on one workflow spec per
operation — JSON bytes → :func:`spec_from_dict` → :func:`spec_to_project`
→ :class:`PerformanceModel` → greedy search with a cold
:class:`EvaluationCache` → canonical JSON.  ``search-frontier`` runs
the multi-objective search on one fixed model, so lowering does no work
and the search, cache, performability and availability layers do it all.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
from typing import Any

from repro import obs
from repro.core.configuration import (
    ReplicationConstraints,
    branch_and_bound_configuration,
    exhaustive_configuration,
    greedy_configuration,
    simulated_annealing_configuration,
)
from repro.core.evaluation_cache import EvaluationCache
from repro.core.goals import GoalEvaluator, PerformabilityGoals
from repro.core.performance import PerformanceModel, Workload, WorkloadItem
from repro.core.search import OBJECTIVES, frontier_search
from repro.exceptions import InfeasibleConfigurationError
from repro.scenarios import (
    bundled_scenarios,
    generate_corpus,
    spec_from_dict,
    spec_to_dict,
    spec_to_project,
)
from repro.workflows import (
    ecommerce_workflow,
    extended_server_types,
    loan_workflow,
    order_processing_workflow,
)

from bench import config
from bench.harness import Outcome, units
from bench.stats import MachineSpeed, best_of, percentile, summarize
from bench.tracing import SpanLog, counter, observing

#: Distinct specs: the five registry scenarios plus generated ones.
#: Per-spec cost spreads from about 1 to 12 ms, so a small corpus makes
#: the median depend on which specs a seed draws, while each spec needs
#: several passes within a run for its median pass to be steady.
SPECS = 500

SPEC_GOALS = PerformabilityGoals(max_waiting_time=0.5, max_unavailability=1e-5)
SPEC_CONSTRAINTS = ReplicationConstraints(max_total_servers=32)

FRONTIER_GOALS = PerformabilityGoals(
    max_waiting_time=0.35, max_unavailability=1e-5
)
FRONTIER_TYPES = (
    "comm-server", "wf-engine", "app-server", "wf-engine-2", "app-server-2",
)
FRONTIER_CONSTRAINTS = ReplicationConstraints(
    maximum=dict.fromkeys(FRONTIER_TYPES, 4), max_total_servers=16
)

#: Distinct frontier search seeds; the run repeats rounds over all of
#: them, and each search's cost is its median round.
FRONTIER_SEEDS = 10

DIGESTS = config.ROOT / "bench" / "digests.json"


def _sha256(chunks: list[bytes]) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _canonical(document: Any) -> bytes:
    return json.dumps(document, sort_keys=True).encode()


def _p50_ms(values: list[float]) -> float:
    return percentile(values, 50) * 1000.0 if values else 0.0


class SpecCorpus:
    """Recommend a configuration for each spec of a seeded corpus."""

    name = "spec-corpus"

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.seconds = seconds
        self.generated = SPECS - 5
        self.inputs: list[bytes] = []

    def setup(self) -> None:
        """Generate the corpus as canonical JSON and warm the pipeline."""
        specs = [entry.spec() for entry in bundled_scenarios()]
        specs.extend(generate_corpus(self.generated, master_seed=self.seed))
        self.inputs = [_canonical(spec_to_dict(spec)) for spec in specs]
        for request, document in enumerate(self.inputs[:5]):
            recommend(document, f"warm-{request}")

    def close(self) -> None:
        """Nothing to release."""

    def measure(self, log: SpanLog | None, speed: MachineSpeed) -> Outcome:
        """Recommend every spec of the corpus, pass after pass."""
        samples, errors = [], []
        outputs: list[list[bytes | None]] = []
        for unit in units(self.seconds):
            # Whole passes alternate, so traced and untraced operations
            # cover the same specs.
            on = log is not None and unit % 2 == 1
            outputs.append([])
            for position, document in enumerate(self.inputs):
                speed.tick()
                with observing(on):
                    start = time.perf_counter()
                    try:
                        output = recommend(document, f"doc-{unit}-{position}")
                    except Exception as error:  # counted, run continues
                        output = None
                        errors.append(f"spec {position}: {error!r}")
                    samples.append(
                        (position, start, time.perf_counter() - start, on)
                    )
                if on:
                    log.collect()
                outputs[-1].append(output)

        first = outputs[0]
        complete = None not in first
        corpus_sha = _sha256(self.inputs)
        documents_sha = _sha256(first) if complete else None
        pinned = json.loads(DIGESTS.read_text())["spec-corpus"]
        pinned_here = (
            pinned["seed"] == self.seed and pinned["specs"] == len(first)
        )
        outcome = Outcome(
            samples=samples,
            attempted=len(samples),
            failed=len(errors),
            gates={
                "registry_goldens": all(
                    entry.analytic_results()
                    == (entry.golden_turnaround, entry.golden_requests)
                    for entry in bundled_scenarios()
                ),
                "documents_repeat": all(
                    later == first for later in outputs[1:]
                ),
                "corpus_digest": (
                    corpus_sha == pinned["corpus_sha256"]
                    if pinned_here else None
                ),
                "documents_digest": (
                    documents_sha == pinned["documents_sha256"]
                    if pinned_here and complete else None
                ),
            },
            shape={
                "specs": len(first),
                "registry_specs": 5,
                "generated_specs": self.generated,
                "generator_seed": self.seed,
                "passes": len(outputs),
                "goals": {"max_waiting_time": 0.5, "max_unavailability": 1e-5},
                "max_total_servers": 32,
                "corpus_sha256": corpus_sha,
                "documents_sha256": documents_sha,
            },
            errors=errors,
        )
        if log is not None:
            docs = sum(on for *_, on in samples)
            spans = log.durations
            outcome.per_layer = {
                "scenarios.parse_ms": _p50_ms(spans["scenarios.parse"]),
                "scenarios.lower_ms": _p50_ms(spans["scenarios.lower"]),
                "core.performance.model_p50_ms": _p50_ms(
                    spans["core.performance.model"]
                ),
                "core.performance.model_tail_ms": 1000.0 * summarize(
                    spans["core.performance.model"]
                )["tail"],
                "linalg.direct.solves_per_doc": (
                    counter("linalg.direct.solves") / docs
                ),
                "ctmc.uniformization.steps_per_doc": (
                    counter("ctmc.uniformization.steps") / docs
                ),
                "core.search.greedy_ms": _p50_ms(spans["core.search.greedy"]),
                "core.search.candidates": (
                    counter("configuration.candidates_evaluated") / docs
                ),
            }
        return outcome


def recommend(document: bytes, request: str) -> bytes:
    """One spec → recommendation document, each layer in its own span.

    An infeasible search is a result, not a failure: the document then
    carries the best configuration found and its violations.
    """
    with obs.span("bench.op", request=request):
        with obs.span("scenarios.parse", request=request):
            spec = spec_from_dict(json.loads(document))
        with obs.span("scenarios.lower", request=request):
            project = spec_to_project([spec])
        with obs.span("core.performance.model", request=request):
            model = PerformanceModel(project.server_types, project.workload())
        with obs.span("core.search.greedy", request=request):
            evaluator = GoalEvaluator(model, cache=EvaluationCache())
            try:
                result = greedy_configuration(
                    evaluator, SPEC_GOALS, SPEC_CONSTRAINTS
                ).to_document()
            except InfeasibleConfigurationError as error:
                best = error.best_found
                result = {
                    "feasible": False,
                    "error": str(error),
                    "best_found": best.to_document() if best else None,
                }
        with obs.span("core.search.render", request=request):
            return _canonical(result)


# ----------------------------------------------------------------------
# search-frontier
# ----------------------------------------------------------------------
def frontier_model() -> PerformanceModel:
    """EP, order processing and loan on the extended five-type landscape."""
    workload = Workload(
        [
            WorkloadItem(ecommerce_workflow(), 0.3),
            WorkloadItem(order_processing_workflow(), 0.15),
            WorkloadItem(loan_workflow(), 0.1),
        ]
    )
    return PerformanceModel(extended_server_types(), workload)


def dominated_points(document: dict[str, Any]) -> list[str]:
    """Frontier points some other point dominates, checked pairwise.

    Independent of the library's own dominance code; ``null`` cells
    encode ``inf``.
    """
    def values(point: dict[str, Any]) -> tuple[float, ...]:
        return tuple(
            float("inf") if point[axis] is None else point[axis]
            for axis in OBJECTIVES
        )

    found = []
    points = document["points"]
    for first in points:
        for second in points:
            a, b = values(first), values(second)
            if first is not second and all(
                x <= y for x, y in zip(a, b)
            ) and any(x < y for x, y in zip(a, b)):
                found.append(f"{second['configuration']}")
    return found


class SearchFrontier:
    """Repeated Pareto-frontier searches over one fixed model."""

    name = "search-frontier"

    def __init__(self, seed: int, seconds: int) -> None:
        self.seconds = seconds
        rng = random.Random(seed)
        self.seeds = [rng.randrange(2**31) for _ in range(FRONTIER_SEEDS)]
        self.model: PerformanceModel | None = None

    def setup(self) -> None:
        """Build the model and let its lazy per-workflow analysis run."""
        self.model = frontier_model()
        self.search(self.seeds[0], "warm")

    def close(self) -> None:
        """Nothing to release."""

    def search(self, seed: int, request: str) -> dict[str, Any]:
        """One frontier search with a cold evaluation cache."""
        with obs.span("bench.op", request=request):
            with obs.span("core.search.frontier", request=request):
                evaluator = GoalEvaluator(self.model, cache=EvaluationCache())
                result = frontier_search(
                    evaluator, FRONTIER_GOALS, FRONTIER_CONSTRAINTS, seed=seed
                )
            with obs.span("core.search.render", request=request):
                return result.to_document()

    def measure(self, log: SpanLog | None, speed: MachineSpeed) -> Outcome:
        """Search once per seed, round after round."""
        samples, documents = [], {}
        stable = True
        for unit in units(self.seconds):
            on = log is not None and unit % 2 == 1
            for position, seed in enumerate(self.seeds):
                speed.tick()
                with observing(on):
                    start = time.perf_counter()
                    document = self.search(seed, f"search-{unit}-{position}")
                    samples.append(
                        (position, start, time.perf_counter() - start, on)
                    )
                if on:
                    log.collect()
                output = _canonical(document)
                first = documents.setdefault(seed, output)
                stable = stable and first == output

        optimum = exhaustive_configuration(
            GoalEvaluator(self.model, cache=EvaluationCache()),
            FRONTIER_GOALS,
            FRONTIER_CONSTRAINTS,
        )
        best = dict(sorted(optimum.configuration.replicas.items()))
        parsed = [json.loads(document) for document in documents.values()]
        outcome = Outcome(
            samples=samples,
            attempted=len(samples),
            failed=0,
            gates={
                "documents_repeat": stable,
                "non_dominated": not any(
                    dominated_points(document) for document in parsed
                ),
                "contains_exhaustive_optimum": all(
                    best in [point["configuration"] for point in doc["points"]]
                    and doc["recommended"]["cost"] == optimum.cost
                    for doc in parsed
                ),
            },
            shape={
                "workflows": {"EP": 0.3, "OrderProcessing": 0.15, "Loan": 0.1},
                "landscape": list(FRONTIER_TYPES),
                "max_per_type": 4,
                "max_total_servers": 16,
                "goals": {
                    "max_waiting_time": 0.35, "max_unavailability": 1e-5,
                },
                "search_seeds": self.seeds,
                "rounds": len(samples) // len(self.seeds),
                "evaluations": {
                    str(document["seed"]): document["evaluations"]
                    for document in parsed
                },
            },
        )
        if log is not None:
            outcome.per_layer = self._per_layer(log, outcome, parsed)
        return outcome

    def _per_layer(
        self, log: SpanLog, outcome: Outcome, parsed: list[dict[str, Any]]
    ) -> dict[str, float]:
        searches = sum(on for *_, on in outcome.samples)
        untraced = [t for _, _, t, on in outcome.samples if not on]

        def ratio(family: str) -> float:
            hits = counter(f"evaluation_cache.{family}.hits")
            misses = counter(f"evaluation_cache.{family}.misses")
            return hits / (hits + misses) if hits + misses else 0.0

        mean_evaluations = statistics.fmean(
            document["evaluations"] for document in parsed
        )
        values = {
            "search.frontier.evaluated": (
                counter("search.frontier.evaluated") / searches
            ),
            "performability.evaluations": (
                counter("performability.evaluations") / searches
            ),
            "performance.waiting_time_points": (
                counter("performance.waiting_time_points") / searches
            ),
            "availability.steady_state_solves": (
                counter("availability.steady_state_solves") / searches
            ),
            "core.search.ms_per_evaluation": (
                _p50_ms(untraced) / mean_evaluations
            ),
            "evaluation_cache.waiting_curve.hit_ratio": ratio("waiting_curve"),
            "evaluation_cache.pool_marginals.hit_ratio": ratio(
                "pool_marginals"
            ),
            "evaluation_cache.assessments.hit_ratio": ratio("assessments"),
            "performability.expected_waiting_times.self_ms": 1000.0 * (
                log.self_seconds("performability.expected_waiting_times")
                / searches
            ),
        }
        # The strategy comparison the search-strategy set is decided on,
        # on this workload's input: untraced, fastest of three cold runs.
        strategies = {
            "greedy": greedy_configuration,
            "exhaustive": exhaustive_configuration,
            "branch_and_bound": branch_and_bound_configuration,
            "simulated_annealing": simulated_annealing_configuration,
        }
        for name, search in strategies.items():
            seconds, recommendation = best_of(lambda: search(
                GoalEvaluator(self.model, cache=EvaluationCache()),
                FRONTIER_GOALS,
                FRONTIER_CONSTRAINTS,
            ))
            values[f"core.search.{name}.ms"] = 1000.0 * seconds
            values[f"core.search.{name}.candidates"] = float(
                recommendation.evaluations
            )
        return values
