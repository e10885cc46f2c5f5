"""Simulator hot-path benchmark: exact and fast RNG modes, gated.

Runs a single :class:`~repro.wfms.runtime.SimulatedWFMS` (the EP +
order-processing mix on the department-scale configuration, failures
injected) and records to ``BENCH_sim.json``:

* an **interleaved baseline comparison**: the commit preceding the
  hot-path optimization (``BASELINE_REF``) is checked out into a
  temporary git worktree and the two trees are timed in alternating
  subprocess rounds.  Interleaving is essential on shared machines —
  wall-clock throughput here swings by tens of percent with host load,
  so only measurements taken seconds apart are comparable, and the
  best-of estimator over several rounds cancels the remaining noise.
  When the baseline commit is unreachable (shallow CI clones), the
  recorded ``PRE_PR_BASELINE`` constant is used instead and marked as
  such in the output;
* an **interleaved exact-vs-fast comparison**: alternating in-process
  rounds of ``rng_mode="exact"`` and ``rng_mode="fast"`` on the same
  scenario, reported as logical events per second (in fast mode the
  replayed request submissions and completions count as two logical
  events each, mirroring the two calendar events the exact mode
  dispatches per request);
* determinism double-runs for **both** modes — repeated runs with the
  same seed must produce the identical measurement fingerprint — plus
  the fast-mode campaign **worker-identity** check (the aggregate
  document must be byte-identical across worker counts);
* a **statistical parity** check on the department scenario: for every
  turnaround, waiting-time, and utilization estimate, the 95%
  confidence interval on the difference between the exact-mode and
  fast-mode campaign means must contain zero;
* the top functions of a cProfile pass over a separate (never timed)
  run, so the recorded throughput is unaffected by instrumentation.

Before timing, the script pins itself to one CPU, as ``python -m
bench`` does: the lowest CPU of its own affinity set, inherited by the
subprocess rounds and campaign workers it starts.  Unpinned, the
full-mode fast-over-exact gate swings with host noise.

The record states the commit it measured (``git describe --always
--dirty``) and its input shape: the scenario, the measurement rounds,
the parity replications, the identity worker counts, the baseline
commit and the pinned CPU (``null`` where the platform cannot pin).

Usage::

    PYTHONPATH=src python benchmarks/bench_sim_hotpath.py --check
    PYTHONPATH=src python benchmarks/bench_sim_hotpath.py --quick --check

``--check`` gates on exact determinism, fast determinism, fast
worker-identity, and exact/fast parity always; the wall-clock gates —
``--min-speedup`` (vs the pre-optimization baseline) and
``--min-fast-speedup`` (fast over exact) — apply only in full mode:
the quick shape exists for CI smoke runs on arbitrary shared runners,
where wall-clock gates are noise.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# The repository root, so the script also runs as a file.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.stats import pin_to_one_cpu  # noqa: E402
from benchmarks.provenance import commit  # noqa: E402

EP_RATE = 0.4
OP_RATE = 0.2
CONFIGURATION = {"comm-server": 1, "wf-engine": 2, "app-server": 3}
SEED = 23

#: (measured duration, warm-up) per mode.
FULL_SHAPE = (600.0, 60.0)
QUICK_SHAPE = (150.0, 20.0)

#: Interleaved (baseline, current) measurement rounds; each side of a
#: round reports its best of ``RUNS_PER_ROUND`` in-process runs.
ROUNDS = 3
RUNS_PER_ROUND = 3

#: Replications of the exact/fast parity campaigns.
PARITY_REPLICATIONS = {"quick": 3, "full": 5}

#: Campaign worker counts whose aggregate documents must be identical,
#: and the replications of that (quick-shaped) fast campaign.
IDENTITY_WORKERS = {"quick": (1, 2), "full": (1, 2, 4)}
IDENTITY_REPLICATIONS = 3

#: Last commit before the hot-path optimization of the simulator.
BASELINE_REF = "cb8431f"

#: Fallback events/sec of this exact scenario, measured on the original
#: development machine with the interleaved protocol above.  Only used
#: (and flagged in the output) when ``BASELINE_REF`` cannot be checked
#: out; cross-machine wall-clock comparisons are indicative, not gated.
PRE_PR_BASELINE = {"quick": 162319.0, "full": 166502.0}

REPO_ROOT = Path(__file__).resolve().parent.parent


def input_shape(mode: str, cpu: int | None) -> dict:
    """The inputs the record was measured on (besides its mode)."""
    duration, warmup = QUICK_SHAPE if mode == "quick" else FULL_SHAPE
    return {
        "scenario": {
            "configuration": CONFIGURATION,
            "arrival_rates": {"EP": EP_RATE, "OrderProcessing": OP_RATE},
            "seed": SEED,
            "routing_policy": "round_robin",
            "inject_failures": True,
            "duration": duration,
            "warmup": warmup,
        },
        "rounds": ROUNDS,
        "runs_per_round": RUNS_PER_ROUND,
        "parity_replications": PARITY_REPLICATIONS[mode],
        "identity_workers": list(IDENTITY_WORKERS[mode]),
        "identity_replications": IDENTITY_REPLICATIONS,
        "baseline_ref": BASELINE_REF,
        "pinned_cpu": cpu,
    }


def make_wfms(rng_mode: str = "exact"):
    """The benchmark scenario: paper mix, department-scale configuration."""
    from repro.core.performance import SystemConfiguration
    from repro.wfms import RoutingPolicy, SimulatedWorkflowType
    from repro.wfms.runtime import SimulatedWFMS
    from repro.workflows import (
        ecommerce_activities,
        ecommerce_chart,
        order_processing_activities,
        order_processing_chart,
        standard_server_types,
    )

    # Only pass rng_mode when non-default: the subprocess protocol runs
    # this same function against the BASELINE_REF tree, whose
    # SimulatedWFMS predates the keyword.
    extra = {} if rng_mode == "exact" else {"rng_mode": rng_mode}
    return SimulatedWFMS(
        server_types=standard_server_types(),
        configuration=SystemConfiguration(CONFIGURATION),
        workflow_types=[
            SimulatedWorkflowType(
                ecommerce_chart(), ecommerce_activities(), EP_RATE
            ),
            SimulatedWorkflowType(
                order_processing_chart(),
                order_processing_activities(),
                OP_RATE,
            ),
        ],
        seed=SEED,
        routing_policy=RoutingPolicy.ROUND_ROBIN,
        inject_failures=True,
        **extra,
    )


def make_campaign_plan(
    rng_mode: str, duration: float, warmup: float, replications: int
):
    """The same scenario as a replicated campaign plan."""
    from repro.core.performance import SystemConfiguration
    from repro.sim.campaign import CampaignPlan
    from repro.wfms import RoutingPolicy, SimulatedWorkflowType
    from repro.workflows import (
        ecommerce_activities,
        ecommerce_chart,
        order_processing_activities,
        order_processing_chart,
        standard_server_types,
    )

    return CampaignPlan(
        server_types=standard_server_types(),
        configuration=SystemConfiguration(CONFIGURATION),
        workflow_types=(
            SimulatedWorkflowType(
                ecommerce_chart(), ecommerce_activities(), EP_RATE
            ),
            SimulatedWorkflowType(
                order_processing_chart(),
                order_processing_activities(),
                OP_RATE,
            ),
        ),
        duration=duration,
        warmup=warmup,
        replications=replications,
        base_seed=SEED,
        routing_policy=RoutingPolicy.ROUND_ROBIN,
        inject_failures=True,
        rng_mode=rng_mode,
    )


def fingerprint(wfms, report) -> dict:
    """Determinism fingerprint of one finished run (exact floats)."""
    executed = wfms.simulator.executed_events
    return {
        "events": executed,
        # getattr: the BASELINE_REF tree predates logical_events.
        "logical_events": getattr(wfms, "logical_events", executed),
        "system_unavailability": report.system_unavailability,
        "workflows": {
            name: [
                measurement.completed_instances,
                measurement.mean_turnaround_time,
            ]
            for name, measurement in sorted(report.workflow_types.items())
        },
        "servers": {
            name: [
                measurement.completed_requests,
                measurement.mean_waiting_time,
                measurement.utilization,
            ]
            for name, measurement in sorted(report.server_types.items())
        },
    }


def timed_run(
    duration: float, warmup: float, rng_mode: str = "exact"
) -> tuple[int, float, dict]:
    """One run: (logical events, wall seconds, fingerprint)."""
    # Collect before the clock starts: garbage from previous runs
    # (audit trails run to tens of thousands of records) otherwise
    # triggers generational collections inside the timed window.
    gc.collect()
    wfms = make_wfms(rng_mode)
    start = time.perf_counter()
    report = wfms.run(duration=duration, warmup=warmup)
    wall = time.perf_counter() - start
    executed = getattr(
        wfms, "logical_events", wfms.simulator.executed_events
    )
    return executed, wall, fingerprint(wfms, report)


def best_events_per_second(
    duration: float, warmup: float, runs: int, rng_mode: str = "exact"
) -> float:
    """Best throughput over ``runs`` in-process runs."""
    best = 0.0
    for _ in range(runs):
        executed, wall, _ = timed_run(duration, warmup, rng_mode)
        best = max(best, executed / wall)
    return best


def _child_command(src: Path, duration: float, warmup: float) -> list[str]:
    return [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        str(duration),
        str(warmup),
        "--child-src",
        str(src),
    ]


def _run_child(src: Path, duration: float, warmup: float) -> float:
    """Best events/sec of one subprocess round against ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    output = subprocess.run(
        _child_command(src, duration, warmup),
        check=True,
        capture_output=True,
        text=True,
        env=env,
    ).stdout
    return float(output.strip().splitlines()[-1])


def interleaved_baseline(
    duration: float, warmup: float
) -> tuple[float | None, float | None]:
    """(baseline eps, current eps) from alternating subprocess rounds.

    Returns ``(None, None)`` when the baseline commit cannot be checked
    out (e.g. a shallow clone).  Both sides run in exact mode — the
    baseline tree predates the fast mode.
    """
    worktree = Path(tempfile.mkdtemp(prefix="bench-sim-baseline-"))
    added = False
    try:
        probe = subprocess.run(
            [
                "git", "-C", str(REPO_ROOT), "worktree", "add",
                "--detach", str(worktree), BASELINE_REF,
            ],
            capture_output=True,
            text=True,
        )
        if probe.returncode != 0:
            return None, None
        added = True
        baseline_best = 0.0
        current_best = 0.0
        for _ in range(ROUNDS):
            baseline_best = max(
                baseline_best,
                _run_child(worktree / "src", duration, warmup),
            )
            current_best = max(
                current_best,
                _run_child(REPO_ROOT / "src", duration, warmup),
            )
        return baseline_best, current_best
    finally:
        if added:
            subprocess.run(
                [
                    "git", "-C", str(REPO_ROOT), "worktree", "remove",
                    "--force", str(worktree),
                ],
                capture_output=True,
            )


def interleaved_fast(
    duration: float, warmup: float
) -> tuple[float, float]:
    """(exact eps, fast eps) from alternating in-process rounds.

    Logical events per second, best over ``ROUNDS`` rounds of
    ``RUNS_PER_ROUND`` runs per mode, taken back-to-back so host-load
    drift hits both modes alike.
    """
    exact_best = 0.0
    fast_best = 0.0
    for _ in range(ROUNDS):
        exact_best = max(
            exact_best,
            best_events_per_second(
                duration, warmup, RUNS_PER_ROUND, "exact"
            ),
        )
        fast_best = max(
            fast_best,
            best_events_per_second(
                duration, warmup, RUNS_PER_ROUND, "fast"
            ),
        )
    return exact_best, fast_best


def _render_document(result) -> str:
    return json.dumps(result.to_document(), indent=2, sort_keys=True)


def fast_worker_identity(mode: str) -> dict:
    """Fast campaign documents must not depend on the worker count."""
    from repro.sim.campaign import run_campaign

    duration, warmup = QUICK_SHAPE  # identity is structural, keep cheap
    plan = make_campaign_plan(
        "fast", duration, warmup, replications=IDENTITY_REPLICATIONS
    )
    workers = IDENTITY_WORKERS[mode]
    documents = {
        count: _render_document(run_campaign(plan, workers=count))
        for count in workers
    }
    reference = documents[workers[0]]
    return {
        "workers": list(workers),
        "identical": all(
            document == reference for document in documents.values()
        ),
    }


def parity_check(duration: float, warmup: float, replications: int) -> dict:
    """Exact/fast agreement on the E7 department scenario.

    Both campaigns run the same scenario with the same seeds; the fast
    mode draws different variates (by design), so the equivalence
    statement is statistical: for every turnaround, waiting-time, and
    utilization estimate, the 95% confidence interval on the
    *difference* of the two campaign means must contain zero (combined
    half-width ``sqrt(hw_exact² + hw_fast²)``).  Testing whether the
    fast mean falls inside the exact CI alone would ignore the fast
    campaign's own sampling noise — two *exact* campaigns with
    different seeds fail that one-sided criterion on about half the
    metrics of this scenario.
    """
    import math

    from repro.sim.campaign import run_campaign

    exact = run_campaign(
        make_campaign_plan("exact", duration, warmup, replications),
        workers=1,
    )
    fast = run_campaign(
        make_campaign_plan("fast", duration, warmup, replications),
        workers=1,
    )
    metrics = []
    for name, aggregate in sorted(exact.workflow_types.items()):
        metrics.append(
            (
                f"turnaround[{name}]",
                aggregate.turnaround,
                fast.workflow_types[name].turnaround,
            )
        )
    for name, aggregate in sorted(exact.server_types.items()):
        fast_aggregate = fast.server_types[name]
        metrics.append(
            (
                f"waiting[{name}]",
                aggregate.waiting_time,
                fast_aggregate.waiting_time,
            )
        )
        metrics.append(
            (
                f"utilization[{name}]",
                aggregate.utilization,
                fast_aggregate.utilization,
            )
        )
    rows = []
    for label, exact_estimate, fast_estimate in metrics:
        difference = abs(fast_estimate.mean - exact_estimate.mean)
        combined = math.sqrt(
            exact_estimate.half_width**2 + fast_estimate.half_width**2
        )
        rows.append(
            {
                "metric": label,
                "exact_mean": float(exact_estimate.mean),
                "exact_ci95": [
                    float(bound) for bound in exact_estimate.ci95
                ],
                "fast_mean": float(fast_estimate.mean),
                "fast_ci95": [
                    float(bound) for bound in fast_estimate.ci95
                ],
                "difference": float(difference),
                "combined_half_width": float(combined),
                "within": bool(difference <= combined),
            }
        )
    return {
        "replications": replications,
        "metrics": rows,
        "within_ci": sum(1 for row in rows if row["within"]),
        "total": len(rows),
        "all_within": all(row["within"] for row in rows),
    }


def profile_top(duration: float, warmup: float, rows: int = 10) -> list:
    """Top ``rows`` functions (by internal time) of a profiled run."""
    wfms = make_wfms()
    profiler = cProfile.Profile()
    profiler.runcall(wfms.run, duration=duration, warmup=warmup)
    stats = pstats.Stats(profiler)
    stats.sort_stats("tottime")
    top = []
    for func in stats.fcn_list[:rows]:  # type: ignore[attr-defined]
        cc, nc, tt, ct, _ = stats.stats[func]  # type: ignore[attr-defined]
        filename, line, name = func
        top.append(
            {
                "function": f"{Path(filename).name}:{line}({name})",
                "calls": nc,
                "tottime": round(tt, 4),
                "cumtime": round(ct, 4),
            }
        )
    return top


def run_benchmark(quick: bool, cpu: int | None) -> dict:
    """Interleaved throughputs, determinism and parity checks, profile.

    ``cpu`` is the CPU the process was pinned to, for the record.
    """
    mode = "quick" if quick else "full"
    duration, warmup = QUICK_SHAPE if quick else FULL_SHAPE

    # Measure the exact/fast ratio first, in a still-pristine process:
    # later phases (subprocess management, campaign workers, profiling)
    # leave allocator and cache state that depresses the short fast-mode
    # runs by enough to matter at a 2.5x gate.
    exact_eps, fast_eps = interleaved_fast(duration, warmup)

    determinism = {}
    events = {}
    for rng_mode in ("exact", "fast"):
        fingerprints = []
        for _ in range(2):
            executed, _, mark = timed_run(duration, warmup, rng_mode)
            events[rng_mode] = executed
            fingerprints.append(mark)
        determinism[rng_mode] = fingerprints[0] == fingerprints[1]

    baseline_eps, current_eps = interleaved_baseline(duration, warmup)
    if baseline_eps is None:
        baseline_eps = PRE_PR_BASELINE[mode]
        current_eps = best_events_per_second(
            duration, warmup, ROUNDS * RUNS_PER_ROUND
        )
        baseline_source = "recorded"
    else:
        baseline_source = f"interleaved vs {BASELINE_REF}"

    identity = fast_worker_identity(mode)
    parity = parity_check(
        duration, warmup, PARITY_REPLICATIONS[mode]
    )

    return {
        "benchmark": "bench_sim_hotpath",
        "commit": commit(),
        "mode": mode,
        "input": input_shape(mode, cpu),
        "events": events["exact"],
        "events_per_second": round(current_eps, 1),
        "baseline_events_per_second": round(baseline_eps, 1),
        "baseline_source": baseline_source,
        "speedup": round(current_eps / baseline_eps, 3),
        "deterministic": determinism["exact"],
        "fast": {
            "logical_events": events["fast"],
            "calendar_events_removed": events["fast"] - events["exact"],
            "exact_events_per_second": round(exact_eps, 1),
            "fast_events_per_second": round(fast_eps, 1),
            "speedup_over_exact": round(fast_eps / exact_eps, 3),
            "deterministic": determinism["fast"],
            "worker_identity": identity,
        },
        "parity": parity,
        "profile_top": profile_top(duration, warmup),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="short run for CI smoke (no wall-clock gates)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless both modes are deterministic, the "
        "fast campaign is worker-identical, exact/fast parity holds, "
        "and (full mode only) the wall-clock gates hold",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=1.5, metavar="X",
        help="full-mode throughput gate relative to the interleaved "
        "pre-optimization baseline (default: 1.5)",
    )
    parser.add_argument(
        "--min-fast-speedup", type=float, default=2.5, metavar="X",
        help="full-mode gate of fast-mode over exact-mode logical "
        "events per second (default: 2.5)",
    )
    parser.add_argument("--output", default="BENCH_sim.json")
    parser.add_argument(
        "--child", nargs=2, type=float, metavar=("DURATION", "WARMUP"),
        help=argparse.SUPPRESS,
    )
    parser.add_argument("--child-src", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        # Subprocess mode: print the best events/sec for the tree on
        # PYTHONPATH (set by the parent) and exit.
        duration, warmup = args.child
        print(
            f"{best_events_per_second(duration, warmup, RUNS_PER_ROUND):.1f}"
        )
        return 0

    # Pin before anything is timed or started, so every subprocess
    # round and campaign worker inherits the one CPU.
    cpu = pin_to_one_cpu()
    record = run_benchmark(quick=args.quick, cpu=cpu)
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")

    fast = record["fast"]
    parity = record["parity"]
    print(
        f"simulate: {record['events']} events in "
        f"{record['input']['scenario']['warmup']:g}+"
        f"{record['input']['scenario']['duration']:g} time units"
    )
    print(
        f"  events/sec {record['events_per_second']:12,.0f} "
        f"({record['speedup']:.2f}x baseline "
        f"{record['baseline_events_per_second']:,.0f}, "
        f"{record['baseline_source']})"
    )
    print(
        f"  fast mode  {fast['fast_events_per_second']:12,.0f} "
        f"logical events/sec ({fast['speedup_over_exact']:.2f}x exact "
        f"{fast['exact_events_per_second']:,.0f})"
    )
    print(
        f"  deterministic: exact "
        f"{'yes' if record['deterministic'] else 'NO'}, fast "
        f"{'yes' if fast['deterministic'] else 'NO'}, fast workers "
        f"{fast['worker_identity']['workers']} "
        f"{'identical' if fast['worker_identity']['identical'] else 'DIVERGED'}"
    )
    print(
        f"  parity: {parity['within_ci']}/{parity['total']} fast "
        f"difference CIs containing zero"
    )
    print(f"wrote {args.output}")

    if args.check:
        failures = []
        if not record["deterministic"]:
            failures.append(
                "exact-mode runs disagree with the same seed"
            )
        if not fast["deterministic"]:
            failures.append("fast-mode runs disagree with the same seed")
        if not fast["worker_identity"]["identical"]:
            failures.append(
                "fast campaign document depends on the worker count"
            )
        if not parity["all_within"]:
            outliers = [
                row["metric"]
                for row in parity["metrics"]
                if not row["within"]
            ]
            failures.append(
                "exact/fast difference CI excludes zero for: "
                + ", ".join(outliers)
            )
        if not args.quick:
            if record["speedup"] < args.min_speedup:
                failures.append(
                    f"speedup {record['speedup']:.2f}x below the "
                    f"{args.min_speedup:.2f}x baseline gate"
                )
            if fast["speedup_over_exact"] < args.min_fast_speedup:
                failures.append(
                    f"fast mode {fast['speedup_over_exact']:.2f}x below "
                    f"the {args.min_fast_speedup:.2f}x gate over exact"
                )
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print("CHECK PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
