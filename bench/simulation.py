"""Simulation workloads: the replications of one campaign.

The scenario is the department-scale demo mix (EP at 0.4, order
processing at 0.2 per minute) on comm-server=1, wf-engine=2,
app-server=3 with failures injected: a campaign of 8 replications of
600 minutes after a 60-minute warm-up, base seed 23.  One operation is
one replication, built and run the way :func:`run_campaign` runs it
serially; replications are timed one by one so that each gets several
repeats.  Only the simulator (``sim``, ``wfms``) does real work here;
the exact and fast RNG modes use it differently — a per-event calendar
versus block pre-drawing and vectorized replay — so each mode is its
own workload.
"""

from __future__ import annotations

import dataclasses
import time

from repro import obs
from repro.core.performance import SystemConfiguration
from repro.sim.campaign import CampaignPlan, run_replication
from repro.wfms import RoutingPolicy, SimulatedWorkflowType
from repro.workflows import (
    ecommerce_activities,
    ecommerce_chart,
    order_processing_activities,
    order_processing_chart,
    standard_server_types,
)

from bench.harness import Outcome, units
from bench.stats import MachineSpeed, best_per_operation, percentile
from bench.tracing import SpanLog, counter, observing

CONFIGURATION = {"comm-server": 1, "wf-engine": 2, "app-server": 3}
RATES = {"EP": 0.4, "OrderProcessing": 0.2}
REPLICATIONS = 8
DURATION = 600.0
WARMUP = 60.0
#: The campaign's base seed, whatever ``--seed`` is: replication costs
#: vary threefold with the failures each draws, so the median of 8
#: would hinge on the seed.  The scenario is a fixed input, as in
#: ``benchmarks/bench_sim_hotpath.py``.
BASE_SEED = 23


class Campaign:
    """Repeat the replications of one seeded campaign."""

    def __init__(self, mode: str, seed: int, seconds: int) -> None:
        self.name = f"campaign-{mode}"
        self.mode = mode
        self.seconds = seconds

    def setup(self) -> None:
        """Build the campaign plan and warm the simulator up."""
        self.plan = CampaignPlan(
            server_types=standard_server_types(),
            configuration=SystemConfiguration(CONFIGURATION),
            workflow_types=(
                SimulatedWorkflowType(
                    ecommerce_chart(), ecommerce_activities(), RATES["EP"]
                ),
                SimulatedWorkflowType(
                    order_processing_chart(),
                    order_processing_activities(),
                    RATES["OrderProcessing"],
                ),
            ),
            duration=DURATION,
            warmup=WARMUP,
            replications=REPLICATIONS,
            base_seed=BASE_SEED,
            routing_policy=RoutingPolicy.ROUND_ROBIN,
            inject_failures=True,
            rng_mode=self.mode,
        )
        # One warm-up-length replication lets lazy set-up (sampler
        # compilation, chart index tables) finish before timing.
        run_replication(
            dataclasses.replace(
                self.plan, replications=1, duration=WARMUP, warmup=0.0
            ),
            0,
        )

    def close(self) -> None:
        """Nothing to release."""

    def measure(self, log: SpanLog | None, speed: MachineSpeed) -> Outcome:
        """Run every replication of the campaign, campaign after campaign."""
        samples, reports, events = [], {}, {}
        stable = True
        for unit in units(self.seconds):
            on = log is not None and unit % 2 == 1
            for index in range(REPLICATIONS):
                speed.tick()
                with observing(on):
                    start = time.perf_counter()
                    with obs.span(
                        "sim.replication", request=f"campaign-{unit}-{index}"
                    ):
                        wfms = self.plan.build_wfms(index)
                        report = wfms.run(
                            duration=self.plan.duration,
                            warmup=self.plan.warmup,
                        )
                    samples.append(
                        (index, start, time.perf_counter() - start, on)
                    )
                if on:
                    log.collect()
                events[index] = wfms.logical_events
                # The repr covers every measured value, NaNs included,
                # and leaves out the audit trail.
                rendered = repr(report)
                first = reports.setdefault(index, rendered)
                stable = stable and first == rendered
        logical = sum(events.values())
        outcome = Outcome(
            samples=samples,
            attempted=len(samples),
            failed=0,
            gates={"reports_repeat": stable},
            shape={
                "rng_mode": self.mode,
                "configuration": CONFIGURATION,
                "arrival_rates": RATES,
                "replications": REPLICATIONS,
                "duration": DURATION,
                "warmup": WARMUP,
                "base_seed": BASE_SEED,
                "campaigns": len(samples) // REPLICATIONS,
                "logical_events": logical,
            },
        )
        if log is not None:
            campaigns = sum(on for *_, on in samples) / REPLICATIONS
            untraced = best_per_operation(
                (index, seconds) for index, _, seconds, on in samples if not on
            )
            outcome.per_layer = {
                "sim.events_executed": (
                    counter("sim.events_executed") / campaigns
                ),
                "sim.logical_events": float(logical),
                f"sim.events_per_s.{self.mode}": logical / sum(untraced),
                "sim.calendar.max_pending": counter(
                    "sim.calendar.max_pending"
                ),
                "sim.fastdraw.blocks_drawn": (
                    counter("sim.fastdraw.blocks_drawn") / campaigns
                ),
                "wfms.requests_submitted": (
                    counter("wfms.requests_submitted") / campaigns
                ),
                "campaign.replication_ms": 1000.0 * percentile(
                    log.durations["sim.replication"], 50
                ),
            }
        return outcome
