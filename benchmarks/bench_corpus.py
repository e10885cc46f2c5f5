"""Corpus pipeline benchmark: generate, round-trip, assess, simulate.

Exercises the whole scenario-corpus pipeline end-to-end on a seeded
generated corpus (100 specs in full mode):

1. **Generate** the corpus twice and hash the canonical JSON of every
   spec — the two sweeps must produce identical hashes (cross-run
   determinism of the generator).
2. **Round-trip** every spec through ``spec_to_json``/``spec_from_dict``
   and require equality (serialization is lossless).
3. **Assess** every spec analytically (absorbing-CTMC turnaround and
   requests per instance) twice and hash the result documents — the
   hashes must match (deterministic lowering + translation).
4. **Simulate** a validated campaign: a dedicated parallel-free pool
   of specs is generated, the ones with the smallest analytic
   turnaround are simulated for a horizon scaled to that turnaround
   (so the steady state the analytic models describe is actually
   reached), and the campaign is validated against the performance
   model.  Waiting-time rows are skipped — the generated per-instance
   request batches deliberately violate the M/G/1 Poisson-arrivals
   assumption — leaving per-workflow turnaround and per-server-type
   utilization, which must agree.

Records the commit (``git describe --always --dirty``), the input
shape, throughputs (specs/sec generated and assessed), the corpus and
assessment SHA-256 hashes, and the campaign validation verdicts to
``BENCH_corpus.json``.  ``--check`` gates on determinism, round-trip
fidelity, the campaign completing with finite positive turnarounds,
and at least ``VALIDATION_FLOOR`` of the validation rows within CI.

Usage::

    PYTHONPATH=src python benchmarks/bench_corpus.py --quick --check

``--quick`` shrinks the corpus and the campaign for CI smoke runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

from repro.core.performance import PerformanceModel, SystemConfiguration
from repro.scenarios import (
    GeneratorConfig,
    generate_corpus,
    spec_from_dict,
    spec_to_ctmc,
    spec_to_json,
    spec_to_project,
    spec_to_simulated_type,
)
from repro.sim.campaign import (
    CampaignPlan,
    run_campaign,
    validate_against_models,
)
from repro.workflows import standard_server_types

# The repository root, so the script also runs as a file.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.provenance import commit  # noqa: E402

MASTER_SEED = 2000

#: (corpus size, campaign specs, campaign replications) per mode.
FULL_SHAPE = (100, 3, 5)
QUICK_SHAPE = (20, 2, 3)

#: Size of the parallel-free pool the validation campaign picks from.
VALIDATION_POOL = 10

#: The campaign horizon and warm-up as multiples of the largest
#: analytic turnaround among the validated specs: steady-state analytic
#: predictions are meaningless unless the run dwarfs the transient.
DURATION_TURNAROUNDS = 20.0
WARMUP_TURNAROUNDS = 5.0

#: Minimum fraction of validation rows that must be within CI.
VALIDATION_FLOOR = 0.8

CONFIGURATION = {"comm-server": 2, "wf-engine": 2, "app-server": 3}

#: Generator settings of both corpora.  Heavy-ish tails but modest
#: arrival rates: the campaign stage must stay stable (and fast) on the
#: benchmark configuration.
GENERATOR = {
    "service_time_family": "lognormal",
    "min_arrival_rate": 0.005,
    "max_arrival_rate": 0.05,
}


def input_shape(quick: bool) -> dict:
    """The inputs the record was measured on (besides its mode)."""
    count, campaign_specs, replications = (
        QUICK_SHAPE if quick else FULL_SHAPE
    )
    return {
        "corpus_size": count,
        "master_seed": MASTER_SEED,
        "generator": GENERATOR,
        "validation_pool": VALIDATION_POOL,
        "validation_pool_seed": MASTER_SEED + 1,
        "campaign_specs": campaign_specs,
        "campaign_replications": replications,
        "campaign_configuration": CONFIGURATION,
        "duration_turnarounds": DURATION_TURNAROUNDS,
        "warmup_turnarounds": WARMUP_TURNAROUNDS,
    }


def corpus_hash(specs) -> str:
    """SHA-256 over the canonical JSON of every spec, in corpus order."""
    digest = hashlib.sha256()
    for spec in specs:
        digest.update(spec_to_json(spec).encode())
    return digest.hexdigest()


def assess_corpus(specs) -> list[dict]:
    """Analytic assessment rows (turnaround, requests) for every spec."""
    rows = []
    for spec in specs:
        model = spec_to_ctmc(spec)
        rows.append({
            "name": spec.name,
            "turnaround": model.turnaround_time(),
            "requests": list(model.requests_per_instance()),
        })
    return rows


def assessment_hash(rows) -> str:
    """SHA-256 over the canonical JSON of the assessment rows."""
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()
    ).hexdigest()


def run_benchmark(quick: bool) -> dict:
    """Run all four pipeline stages and collect the record."""
    count, campaign_specs, replications = (
        QUICK_SHAPE if quick else FULL_SHAPE
    )
    config = GeneratorConfig(**GENERATOR)

    start = time.perf_counter()
    specs = generate_corpus(count, master_seed=MASTER_SEED, config=config)
    generate_seconds = time.perf_counter() - start
    regenerated = generate_corpus(
        count, master_seed=MASTER_SEED, config=config
    )
    first_hash = corpus_hash(specs)
    generation_deterministic = first_hash == corpus_hash(regenerated)

    round_trip_ok = all(
        spec_from_dict(json.loads(spec_to_json(spec))) == spec
        for spec in specs
    )

    start = time.perf_counter()
    rows = assess_corpus(specs)
    assess_seconds = time.perf_counter() - start
    assessment_deterministic = (
        assessment_hash(rows) == assessment_hash(assess_corpus(specs))
    )

    # Validated campaign over a dedicated parallel-free pool: the
    # analytic turnaround and waiting models assume sequential flow,
    # and the horizon must dwarf the workflow time scale for the
    # steady-state predictions to be reachable at all.
    validation_config = GeneratorConfig(
        **GENERATOR, parallel_probability=0.0, subworkflow_probability=0.0
    )
    pool = generate_corpus(
        VALIDATION_POOL,
        master_seed=MASTER_SEED + 1,
        config=validation_config,
    )
    scored = sorted(
        pool, key=lambda spec: spec_to_ctmc(spec).turnaround_time()
    )
    chosen = scored[:campaign_specs]
    longest = max(
        spec_to_ctmc(spec).turnaround_time() for spec in chosen
    )
    duration = DURATION_TURNAROUNDS * longest
    plan = CampaignPlan(
        server_types=standard_server_types(),
        configuration=SystemConfiguration(CONFIGURATION),
        workflow_types=tuple(
            spec_to_simulated_type(spec) for spec in chosen
        ),
        duration=duration,
        warmup=WARMUP_TURNAROUNDS * longest,
        replications=replications,
        base_seed=MASTER_SEED,
        inject_failures=False,
    )
    start = time.perf_counter()
    result = run_campaign(plan)
    campaign_seconds = time.perf_counter() - start
    project = spec_to_project(chosen)
    performance = PerformanceModel(plan.server_types, project.workload())
    # waiting_times=False: the spec-driven load issues request batches
    # per activity, not Poisson arrivals, so M/G/1 waiting rows are
    # not a meaningful within-CI comparison here.
    validation = validate_against_models(
        result, performance, waiting_times=False
    )

    turnarounds = {
        name: aggregate.turnaround.mean
        for name, aggregate in result.workflow_types.items()
    }
    campaign_ok = bool(turnarounds) and all(
        math.isfinite(value) and value > 0.0
        for value in turnarounds.values()
    )
    verdicts = [row.verdict for row in validation.metrics]
    validation_floor = math.ceil(VALIDATION_FLOOR * len(verdicts))
    return {
        "benchmark": "bench_corpus",
        "commit": commit(),
        "mode": "quick" if quick else "full",
        "input": input_shape(quick),
        "corpus_size": count,
        "master_seed": MASTER_SEED,
        "generate_seconds": generate_seconds,
        "generate_specs_per_second": count / generate_seconds,
        "corpus_sha256": first_hash,
        "generation_deterministic": generation_deterministic,
        "round_trip_ok": round_trip_ok,
        "assess_seconds": assess_seconds,
        "assess_specs_per_second": count / assess_seconds,
        "assessment_sha256": assessment_hash(rows),
        "assessment_deterministic": assessment_deterministic,
        "total_states": sum(spec.state_count() for spec in specs),
        "campaign_specs": [spec.name for spec in chosen],
        "campaign_replications": replications,
        "campaign_duration": duration,
        "campaign_seconds": campaign_seconds,
        "campaign_events": result.total_events,
        "campaign_turnarounds": turnarounds,
        "campaign_ok": campaign_ok,
        "validation_verdicts": verdicts,
        "validation_within_ci": sum(
            1 for verdict in verdicts if verdict == "within CI"
        ),
        "validation_floor": validation_floor,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small corpus and campaign for CI smoke runs",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless generation and assessment are "
        "deterministic, serialization round-trips, the campaign "
        "completes with finite turnarounds, and the validation rows "
        "clear the within-CI floor",
    )
    parser.add_argument("--output", default="BENCH_corpus.json")
    args = parser.parse_args(argv)

    record = run_benchmark(quick=args.quick)
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")

    print(
        f"corpus: {record['corpus_size']} specs "
        f"({record['total_states']} states, seed {MASTER_SEED})"
    )
    print(
        f"  generate {record['generate_seconds']:8.2f} s "
        f"({record['generate_specs_per_second']:,.0f} specs/sec, "
        f"deterministic: "
        f"{'yes' if record['generation_deterministic'] else 'NO'})"
    )
    print(
        f"  assess   {record['assess_seconds']:8.2f} s "
        f"({record['assess_specs_per_second']:,.0f} specs/sec, "
        f"deterministic: "
        f"{'yes' if record['assessment_deterministic'] else 'NO'})"
    )
    print(
        f"  campaign {record['campaign_seconds']:8.2f} s "
        f"({len(record['campaign_specs'])} types x "
        f"{record['campaign_replications']} replications, "
        f"{record['campaign_events']} events)"
    )
    print(
        f"  validation: {record['validation_within_ci']}/"
        f"{len(record['validation_verdicts'])} within CI"
    )
    print(f"wrote {args.output}")

    if args.check:
        failures = [
            label
            for label, ok in (
                ("generation not deterministic",
                 record["generation_deterministic"]),
                ("round-trip failed", record["round_trip_ok"]),
                ("assessment not deterministic",
                 record["assessment_deterministic"]),
                ("campaign produced no finite turnarounds",
                 record["campaign_ok"]),
                ("campaign validation below the within-CI floor "
                 f"({record['validation_within_ci']}/"
                 f"{len(record['validation_verdicts'])} < "
                 f"{record['validation_floor']})",
                 record["validation_within_ci"]
                 >= record["validation_floor"]),
            )
            if not ok
        ]
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print("CHECK PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
