"""Configuration-search benchmark: cached vs uncached evaluation path.

Runs the four search algorithms (greedy, exhaustive, branch-and-bound,
simulated annealing) on the five-type extended landscape twice:

* **uncached** — every evaluator gets ``EvaluationCache(enabled=False)``,
  so each candidate is assessed from scratch (the reference path);
* **cached** — all evaluators share one :class:`EvaluationCache`, so
  each server type's row (its waiting-time curve and its terms by
  replica count) is built once and reused within and across the
  searches; each evaluator memoizes its own assessments.

Work is measured with the observability counters (primarily
``performance.waiting_time_points``, the number of single-type M/G/1
waiting-time evaluations — the innermost unit of performance-model
work) plus wall-clock time, and the two paths are compared for exact
numerical equality.  The record, written to ``BENCH_search.json``,
states the commit (``git describe --always --dirty``), the mode, and
the input shape: landscape, workload, constraints, goals and
algorithms.

Usage::

    PYTHONPATH=src python benchmarks/bench_search.py --quick --check

``--quick`` shrinks the search space for CI smoke runs; ``--check``
exits non-zero unless the cached path does at least 2x fewer
performance-model evaluations than the uncached path, is no slower,
and produces byte-identical numerics.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

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
from repro.workflows import (
    ecommerce_workflow,
    extended_server_types,
    loan_workflow,
    order_processing_workflow,
)

# The repository root, so the script also runs as a file.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.provenance import commit  # noqa: E402

#: Full-mode goals match benchmark E10; quick mode loosens the
#: waiting-time goal so the feasible region keeps some volume in the
#: shrunken search space (annealing needs more than a single corner).
FULL_GOALS = PerformabilityGoals(
    max_waiting_time=0.2, max_unavailability=1e-5
)
QUICK_GOALS = PerformabilityGoals(
    max_waiting_time=0.35, max_unavailability=1e-5
)

ALGORITHMS = (
    ("greedy", greedy_configuration, {}),
    ("exhaustive", exhaustive_configuration, {}),
    ("branch_and_bound", branch_and_bound_configuration, {}),
    # Slow cooling: the feasible region of this landscape is a small
    # high-replica corner, and a fast schedule freezes the walk first.
    ("simulated_annealing", simulated_annealing_configuration,
     {"iterations": 1000, "cooling": 0.999, "seed": 13}),
)

WORK_COUNTERS = (
    "performance.waiting_time_points",
    "configuration.candidates_evaluated",
    "availability.steady_state_solves",
    "evaluation_cache.assessments.hits",
    "evaluation_cache.type_terms.hits",
)

#: The workflow mix: (workflow factory, arrival rate per minute).
WORKLOAD = (
    (ecommerce_workflow, 0.3),
    (order_processing_workflow, 0.15),
    (loan_workflow, 0.1),
)


def make_performance_model() -> PerformanceModel:
    workload = Workload(
        [WorkloadItem(build(), rate) for build, rate in WORKLOAD]
    )
    return PerformanceModel(extended_server_types(), workload)


def make_constraints(quick: bool) -> ReplicationConstraints:
    per_type_max = 3 if quick else 4
    return ReplicationConstraints(
        maximum={name: per_type_max for name in (
            "comm-server", "wf-engine", "app-server",
            "wf-engine-2", "app-server-2",
        )},
        max_total_servers=14 if quick else 20,
    )


def input_shape(
    goals: PerformabilityGoals, constraints: ReplicationConstraints
) -> dict:
    """The inputs the record was measured on (besides its mode)."""
    return {
        "landscape": list(extended_server_types().names),
        "workload": {build().name: rate for build, rate in WORKLOAD},
        "constraints": {
            "maximum": dict(sorted(constraints.maximum.items())),
            "max_total_servers": constraints.max_total_servers,
        },
        "goals": {
            "max_waiting_time": goals.max_waiting_time,
            "max_unavailability": goals.max_unavailability,
        },
        "algorithms": [name for name, _, _ in ALGORITHMS],
    }


def assessment_numerics(recommendation) -> dict:
    """Exact numeric footprint of a recommendation, for equality checks."""
    assessment = recommendation.assessment
    performability = assessment.performability
    return {
        "configuration": dict(
            sorted(assessment.configuration.replicas.items())
        ),
        "cost": recommendation.cost,
        "satisfied": assessment.satisfied,
        "unavailability": assessment.unavailability,
        "per_type_unavailability": dict(
            sorted(assessment.per_type_unavailability.items())
        ),
        "utilizations": dict(sorted(assessment.utilizations.items())),
        "expected_waiting_times": dict(
            sorted(performability.expected_waiting_times.items())
        ) if performability is not None else None,
    }


def run_suite(
    goals: PerformabilityGoals,
    constraints: ReplicationConstraints,
    cached: bool,
) -> dict:
    """Run every algorithm once; returns numerics, counters, wall-clock."""
    obs.reset()
    obs.enable()
    shared_cache = EvaluationCache(enabled=cached)
    performance = make_performance_model()
    results = {}
    evaluations = {}
    started = time.perf_counter()
    for name, search, kwargs in ALGORITHMS:
        evaluator = GoalEvaluator(performance, cache=shared_cache)
        recommendation = search(evaluator, goals, constraints, **kwargs)
        results[name] = assessment_numerics(recommendation)
        evaluations[name] = recommendation.evaluations
    elapsed = time.perf_counter() - started
    counters = {
        name: obs.registry().counter(name).value for name in WORK_COUNTERS
    }
    obs.disable()
    return {
        "results": results,
        "evaluations": evaluations,
        "counters": counters,
        "wall_clock_seconds": elapsed,
        "cache_stats": shared_cache.stats(),
    }


def compare(record: dict) -> list[str]:
    """Return a list of violated expectations (empty when all hold)."""
    problems: list[str] = []
    cached, uncached = record["cached"], record["uncached"]
    if cached["results"] != uncached["results"]:
        for name in cached["results"]:
            if cached["results"][name] != uncached["results"][name]:
                problems.append(
                    f"numerics differ for {name}: cached="
                    f"{cached['results'][name]} uncached="
                    f"{uncached['results'][name]}"
                )
    points_cached = cached["counters"]["performance.waiting_time_points"]
    points_uncached = uncached["counters"][
        "performance.waiting_time_points"
    ]
    if points_cached * 2 > points_uncached:
        problems.append(
            "cached path must do >= 2x fewer performance-model "
            f"evaluations: cached={points_cached:.0f} "
            f"uncached={points_uncached:.0f}"
        )
    if cached["wall_clock_seconds"] > uncached["wall_clock_seconds"]:
        problems.append(
            "cached path must not be slower: "
            f"cached={cached['wall_clock_seconds']:.3f}s "
            f"uncached={uncached['wall_clock_seconds']:.3f}s"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="shrink the search space (CI smoke mode)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the cache meets its speedup and "
        "exactness expectations",
    )
    parser.add_argument(
        "--output", default="BENCH_search.json",
        help="path of the JSON perf record (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    goals = QUICK_GOALS if args.quick else FULL_GOALS
    constraints = make_constraints(args.quick)
    # Uncached first so the cached run cannot warm anything for it.
    uncached = run_suite(goals, constraints, cached=False)
    cached = run_suite(goals, constraints, cached=True)
    points_cached = cached["counters"]["performance.waiting_time_points"]
    points_uncached = uncached["counters"][
        "performance.waiting_time_points"
    ]
    record = {
        "benchmark": "bench_search",
        "commit": commit(),
        "mode": "quick" if args.quick else "full",
        "input": input_shape(goals, constraints),
        "uncached": uncached,
        "cached": cached,
        "evaluation_reduction": (
            points_uncached / points_cached if points_cached else math.inf
        ),
        "speedup": (
            uncached["wall_clock_seconds"] / cached["wall_clock_seconds"]
            if cached["wall_clock_seconds"] else math.inf
        ),
    }
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")

    print(f"search benchmark ({record['mode']} mode)")
    print(
        "  performance-model evaluations: "
        f"uncached={points_uncached:.0f} cached={points_cached:.0f} "
        f"({record['evaluation_reduction']:.1f}x fewer)"
    )
    print(
        "  wall-clock: "
        f"uncached={uncached['wall_clock_seconds']:.3f}s "
        f"cached={cached['wall_clock_seconds']:.3f}s "
        f"({record['speedup']:.1f}x speedup)"
    )
    print(f"  record written to {args.output}")

    problems = compare(record)
    for problem in problems:
        print(f"  FAIL: {problem}", file=sys.stderr)
    if not problems:
        print("  cache expectations met")
    return 1 if (args.check and problems) else 0


if __name__ == "__main__":
    raise SystemExit(main())
