"""Dynamic reconfiguration of a running WFMS (Section 7.1, last step).

The full operational loop: configure the system for the assumed load,
run it (in simulation), replay each monitoring window's audit trail into
a streaming calibrator and drift monitor, re-check the running
configuration against the goals under the calibrated model, and ask the
recommendation pipeline for a new configuration.  The real load first
outgrows the assumption (scale-out), the new configuration then holds,
and when the load drops again the pipeline recommends downsizing.

Run:  python examples/dynamic_reconfiguration.py   (~30 s)
"""

from collections import Counter

from repro.core.configuration import greedy_configuration
from repro.core.goals import GoalEvaluator, PerformabilityGoals
from repro.core.performance import PerformanceModel, SystemConfiguration
from repro.io import Project
from repro.monitor.drift import DriftMonitor
from repro.service.pipeline import (
    calibrated_model,
    recommend_from_calibration,
)
from repro.spec.translator import translate_chart
from repro.wfms import RoutingPolicy, SimulatedWFMS, SimulatedWorkflowType
from repro.workflows import (
    ecommerce_activities,
    ecommerce_chart,
    standard_server_types,
)

GOALS = PerformabilityGoals(max_waiting_time=0.25, max_unavailability=1e-5)
ASSUMED_RATE = 0.3            # EP instances/minute the system was sized for
OBSERVATION = 8_000.0         # length of each monitoring window (minutes)


def run_window(configuration, arrival_rate, seed):
    """One monitoring window on the simulated WFMS."""
    wfms = SimulatedWFMS(
        server_types=standard_server_types(),
        configuration=configuration,
        workflow_types=[
            SimulatedWorkflowType(
                ecommerce_chart(), ecommerce_activities(), arrival_rate
            )
        ],
        seed=seed,
        routing_policy=RoutingPolicy.ROUND_ROBIN,
        inject_failures=False,
    )
    return wfms.run(duration=OBSERVATION, warmup=500.0)


def review(baseline, current, trail):
    """Calibrate from one window's trail; return the next configuration.

    The current configuration is kept while it meets the goals under
    the calibrated model and nothing cheaper does; otherwise the
    pipeline's recommendation replaces it.  The decision rests on that
    goal re-check, not on the drift verdict: each window runs at one
    steady rate, so the detectors' confirmations in it are false alarms.
    """
    monitor = DriftMonitor()
    monitor.observe_all(
        [*trail.state_visits, *trail.service_requests, *trail.instances]
    )
    calibrator = monitor.calibrator
    families = Counter(event.kind for event in monitor.events)
    summary = ", ".join(
        f"{count} {kind}" for kind, count in sorted(families.items())
    )
    print(
        f"Drift confirmations over {calibrator.records_seen} records: "
        f"{summary or 'none'}"
    )
    print(
        f"Measured EP arrival rate: "
        f"{calibrator.arrival_rate('EP', OBSERVATION):.6g}/min"
    )

    model = calibrated_model(calibrator, baseline, OBSERVATION)
    assessment = GoalEvaluator(model).assess(current, GOALS)
    document = recommend_from_calibration(
        calibrator, baseline, GOALS, observation_period=OBSERVATION
    )
    recommended = SystemConfiguration(document["result"]["configuration"])
    types = baseline.server_types
    if not assessment.satisfied:
        print(
            "Decision: current configuration violates the goals under the "
            "observed parameters: "
            + "; ".join(str(violation) for violation in assessment.violations)
        )
    elif recommended.cost(types) < current.cost(types):
        print(
            "Decision: current configuration is oversized for the observed "
            "load; a cheaper feasible configuration exists"
        )
    else:
        print(
            "Decision: current configuration still meets all goals under "
            "the observed parameters"
        )
        return current

    print(f"Reconfigure {current} -> {recommended}:")
    for name in types.names:
        delta = recommended.count(name) - current.count(name)
        if delta > 0:
            print(f"  add {delta} replica(s) of {name}")
        elif delta < 0:
            print(f"  remove {-delta} replica(s) of {name}")
    return recommended


def main() -> None:
    # Mapping: the EP chart becomes the workflow model of the baseline
    # project, the prior the calibration overlays its measurements on.
    workflow = translate_chart(ecommerce_chart(), ecommerce_activities())
    baseline = Project(
        server_types=standard_server_types(),
        workflows=(workflow,),
        arrival_rates={"EP": ASSUMED_RATE},
    )

    # ------------------------------------------------------------------
    # Day 0: size the system for the assumed load.
    # ------------------------------------------------------------------
    evaluator = GoalEvaluator(
        PerformanceModel(baseline.server_types, baseline.workload())
    )
    initial = greedy_configuration(evaluator, GOALS).configuration
    print(f"Initial configuration for {ASSUMED_RATE}/min: {initial}\n")

    # ------------------------------------------------------------------
    # Weeks later: the business has grown to 3x the assumed load.
    # ------------------------------------------------------------------
    print("Monitoring window 1: actual load 3x the assumption ...")
    report = run_window(initial, 3 * ASSUMED_RATE, seed=1)
    scaled_out = review(baseline, initial, report.trail)

    # ------------------------------------------------------------------
    # After the reconfiguration: verify the new configuration holds.
    # ------------------------------------------------------------------
    print("\nMonitoring window 2: after scale-out, same 3x load ...")
    report = run_window(scaled_out, 3 * ASSUMED_RATE, seed=2)
    review(baseline, scaled_out, report.trail)

    # ------------------------------------------------------------------
    # Off-season: load drops far below capacity.
    # ------------------------------------------------------------------
    print("\nMonitoring window 3: load drops to 0.5x the assumption ...")
    report = run_window(scaled_out, 0.5 * ASSUMED_RATE, seed=3)
    review(baseline, scaled_out, report.trail)


if __name__ == "__main__":
    main()
