"""Pareto-frontier sweep benchmark: determinism and dominance gates.

Runs :func:`repro.core.search.frontier_search` over the five-type
extended landscape and records the frontier's size, evaluation count,
``search.frontier.*`` counters, and wall-clock time.  The record is
written to ``BENCH_frontier.json``.

``--check`` exits non-zero unless:

* the emitted frontier is **non-dominated** — verified pairwise here
  with plain comparisons, independent of the library's own dominance
  code;
* the frontier is **seed-stable** — two runs with the same seed emit
  byte-identical JSON documents;
* the frontier **contains the single-objective optimum** — the
  exhaustive search's recommendation for the same goals appears among
  the frontier points and is what the frontier recommends.

Usage::

    PYTHONPATH=src python benchmarks/bench_frontier.py --quick --check

``--quick`` shrinks the search space for CI smoke runs (well under the
30 s budget).  The record states the commit (``git describe --always
--dirty``), the mode, and the input shape: model (landscape and
workload), seed, goals and replica limits.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro import obs
from repro.core.configuration import (
    ReplicationConstraints,
    exhaustive_configuration,
)
from repro.core.evaluation_cache import EvaluationCache
from repro.core.goals import GoalEvaluator, PerformabilityGoals
from repro.core.performance import PerformanceModel, Workload, WorkloadItem
from repro.core.search import OBJECTIVES, frontier_search
from repro.workflows import (
    ecommerce_workflow,
    extended_server_types,
    loan_workflow,
    order_processing_workflow,
)

# The repository root, so the script also runs as a file.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.provenance import commit  # noqa: E402

#: Full-mode goals trace a 7-point frontier; quick mode loosens both
#: bounds so the shrunken space still yields a multi-point frontier
#: with the seeded restarts exercised.
FULL_GOALS = PerformabilityGoals(
    max_waiting_time=0.35, max_unavailability=1e-5
)
QUICK_GOALS = PerformabilityGoals(
    max_waiting_time=0.5, max_unavailability=1e-4
)
SEED = 13
FRONTIER_COUNTERS = (
    "search.frontier.evaluated",
    "search.frontier.inserted",
    "search.frontier.dominated",
    "search.frontier.restarts",
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
        max_total_servers=12 if quick else 16,
    )


def input_shape(
    goals: PerformabilityGoals, constraints: ReplicationConstraints
) -> dict:
    """The inputs the record was measured on (besides its mode)."""
    return {
        "model": {
            "landscape": list(extended_server_types().names),
            "workload": {build().name: rate for build, rate in WORKLOAD},
        },
        "seed": SEED,
        "goals": {
            "max_waiting_time": goals.max_waiting_time,
            "max_unavailability": goals.max_unavailability,
        },
        "constraints": {
            "maximum": dict(sorted(constraints.maximum.items())),
            "max_total_servers": constraints.max_total_servers,
        },
    }


def run_sweep(
    goals: PerformabilityGoals, constraints: ReplicationConstraints
) -> dict:
    """One frontier sweep; returns its document, counters, wall-clock."""
    evaluator = GoalEvaluator(
        make_performance_model(), cache=EvaluationCache()
    )
    obs.reset()
    obs.enable()
    started = time.perf_counter()
    result = frontier_search(evaluator, goals, constraints, seed=SEED)
    elapsed = time.perf_counter() - started
    counters = {
        name: obs.registry().counter(name).value
        for name in FRONTIER_COUNTERS
    }
    obs.disable()
    obs.reset()
    return {
        "document": result.to_document(),
        "counters": counters,
        "wall_clock_seconds": elapsed,
    }


def non_dominance_violations(document: dict) -> list[str]:
    """Pairwise dominance check, independent of ParetoFrontier.

    ``null`` metric cells encode ``inf`` (the document convention), so
    they decode back to the worst possible value before comparison.
    """
    inf = float("inf")

    def values(point):
        return tuple(
            inf if point[axis] is None else point[axis]
            for axis in OBJECTIVES
        )

    problems = []
    points = document["points"]
    for i, first in enumerate(points):
        for j, second in enumerate(points):
            if i == j:
                continue
            a, b = values(first), values(second)
            if all(x <= y for x, y in zip(a, b)) and any(
                x < y for x, y in zip(a, b)
            ):
                problems.append(
                    f"point {second['configuration']} is dominated by "
                    f"{first['configuration']}"
                )
    return problems


def check(record: dict) -> list[str]:
    """Return a list of violated expectations (empty when all hold)."""
    problems = non_dominance_violations(record["serial"]["document"])
    if not record["seed_stable"]:
        problems.append("same-seed reruns must be byte-identical")
    if not record["contains_single_objective_optimum"]:
        problems.append(
            "frontier must contain the exhaustive single-objective "
            "recommendation"
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
        help="exit non-zero unless the dominance/determinism gates hold",
    )
    parser.add_argument(
        "--output", default="BENCH_frontier.json",
        help="path of the JSON perf record (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    goals = QUICK_GOALS if args.quick else FULL_GOALS
    constraints = make_constraints(args.quick)
    serial = run_sweep(goals, constraints)
    rerun = run_sweep(goals, constraints)

    exhaustive = exhaustive_configuration(
        GoalEvaluator(make_performance_model(), cache=EvaluationCache()),
        goals, constraints,
    )
    serial_json = json.dumps(serial["document"], sort_keys=True)
    frontier_configurations = [
        point["configuration"] for point in serial["document"]["points"]
    ]
    record = {
        "benchmark": "bench_frontier",
        "commit": commit(),
        "mode": "quick" if args.quick else "full",
        "input": input_shape(goals, constraints),
        "frontier_size": len(frontier_configurations),
        "evaluations": serial["document"]["evaluations"],
        "restarts": serial["document"]["restarts"],
        "seed_stable": (
            json.dumps(rerun["document"], sort_keys=True) == serial_json
        ),
        "contains_single_objective_optimum": (
            dict(sorted(exhaustive.configuration.replicas.items()))
            in frontier_configurations
            and serial["document"]["recommended"]["cost"]
            == exhaustive.cost
        ),
        "serial": serial,
    }
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")

    print(f"frontier benchmark ({record['mode']} mode, seed {SEED})")
    print(
        f"  frontier: {record['frontier_size']} points from "
        f"{record['evaluations']} evaluations "
        f"({record['restarts']} restarts)"
    )
    print(
        "  counters: "
        + " ".join(
            f"{name.rsplit('.', 1)[1]}={value:.0f}"
            for name, value in serial["counters"].items()
        )
    )
    print(f"  wall-clock: {serial['wall_clock_seconds']:.3f}s")
    print(
        f"  seed-stable={record['seed_stable']} "
        f"contains-optimum="
        f"{record['contains_single_objective_optimum']}"
    )
    print(f"  record written to {args.output}")

    problems = check(record)
    for problem in problems:
        print(f"  FAIL: {problem}", file=sys.stderr)
    if not problems:
        print("  frontier non-dominated, deterministic, and anchored")
    return 1 if (args.check and problems) else 0


if __name__ == "__main__":
    raise SystemExit(main())
