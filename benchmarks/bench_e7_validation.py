"""E7 — model validation against replicated simulation campaigns.

The paper validates its models against measurements of real WFMS
products ("these measurements are a first touchstone for the accuracy of
our models"); our substitute testbed is the discrete-event WFMS, now
driven through :mod:`repro.sim.campaign` so every comparison carries a
95% confidence interval over independent replications instead of a
single point estimate.

Three campaigns, three regimes:

* **E7a (department scale)** — the paper's EP + order-processing mix at
  0.4/0.2 arrivals per minute on the smallest passing configuration
  ``(1, 2, 3)``.  Turnaround and utilization must fall inside the
  simulated 95% CI (the CTMC's control-flow assumptions hold exactly in
  the simulator).  Waiting times only agree in *shape* here: requests of
  one activity reach the pools clustered inside a short window, a
  burstier-than-Poisson pattern the M/G/1 model idealizes away, so the
  model under-predicts the absolute level (see EXPERIMENTS.md).
* **E7b (enterprise scale)** — the same mix with arrival rates and
  replica counts scaled x40.  Superposing many more independent
  instance streams makes the aggregate request process near-Poisson
  (Palm-Khintchine), so here the *waiting times* must fall inside the
  95% CI as well — the quantitative validation of the paper's M/G/1
  approximation in its intended operating regime.
* **E7c (availability)** — accelerated failure/repair rates so a
  modest campaign observes hundreds of outages; the Section 5 CTMC's
  predicted system unavailability must fall inside the simulated CI.

All campaign seeds are fixed: the verdicts below are reproducible
byte-for-byte (``run_campaign`` is deterministic for any worker count).
"""

from benchmarks.conftest import configuration, emit
from repro.core.availability import AvailabilityModel
from repro.core.model_types import ServerTypeIndex, ServerTypeSpec
from repro.core.performance import PerformanceModel, Workload, WorkloadItem
from repro.sim.campaign import (
    CampaignPlan,
    run_campaign,
    validate_against_models,
)
from repro.wfms import RoutingPolicy, SimulatedWorkflowType
from repro.workflows import (
    ecommerce_activities,
    ecommerce_chart,
    ecommerce_workflow,
    order_processing_activities,
    order_processing_chart,
    order_processing_workflow,
    standard_server_types,
)

EP_RATE = 0.4
OP_RATE = 0.2
DEPARTMENT = (1, 2, 3)

#: Enterprise scale: arrival rates and replica counts both x40.  The
#: configuration keeps every pool at the department-scale utilization.
ENTERPRISE_SCALE = 40.0
ENTERPRISE = (28, 64, 120)

REPLICATIONS = 5
BASE_SEED = 11


def mix_workflow_types(scale: float = 1.0) -> tuple:
    """The paper's EP + order-processing mix, rates scaled by ``scale``."""
    return (
        SimulatedWorkflowType(
            ecommerce_chart(), ecommerce_activities(), EP_RATE * scale
        ),
        SimulatedWorkflowType(
            order_processing_chart(),
            order_processing_activities(),
            OP_RATE * scale,
        ),
    )


def mix_workload(scale: float = 1.0) -> Workload:
    """Analytic twin of :func:`mix_workflow_types`."""
    return Workload(
        [
            WorkloadItem(ecommerce_workflow(), EP_RATE * scale),
            WorkloadItem(order_processing_workflow(), OP_RATE * scale),
        ]
    )


def department_plan() -> CampaignPlan:
    """E7a: the paper's workload on the smallest passing configuration."""
    types = standard_server_types()
    return CampaignPlan(
        server_types=types,
        configuration=configuration(types, DEPARTMENT),
        workflow_types=mix_workflow_types(),
        duration=2_400.0,
        warmup=200.0,
        replications=REPLICATIONS,
        base_seed=BASE_SEED,
        routing_policy=RoutingPolicy.RANDOM,
        inject_failures=False,
    )


def enterprise_plan() -> CampaignPlan:
    """E7b: rates and replicas x40, where M/G/1 holds quantitatively."""
    types = standard_server_types()
    return CampaignPlan(
        server_types=types,
        configuration=configuration(types, ENTERPRISE),
        workflow_types=mix_workflow_types(ENTERPRISE_SCALE),
        duration=500.0,
        warmup=100.0,
        replications=REPLICATIONS,
        base_seed=BASE_SEED,
        routing_policy=RoutingPolicy.RANDOM,
        inject_failures=False,
    )


def accelerated_types() -> ServerTypeIndex:
    """Failure/repair rates sped up so outages are frequent events."""
    return ServerTypeIndex(
        [
            ServerTypeSpec("comm-server", 0.02, failure_rate=1 / 60.0,
                           repair_rate=1 / 4.0),
            ServerTypeSpec("wf-engine", 0.05, failure_rate=1 / 40.0,
                           repair_rate=1 / 4.0),
            ServerTypeSpec("app-server", 0.15, failure_rate=1 / 25.0,
                           repair_rate=1 / 4.0),
        ]
    )


def availability_plan() -> CampaignPlan:
    """E7c: light EP load under accelerated failures on ``(1, 2, 2)``."""
    types = accelerated_types()
    return CampaignPlan(
        server_types=types,
        configuration=configuration(types, (1, 2, 2)),
        workflow_types=(
            SimulatedWorkflowType(
                ecommerce_chart(), ecommerce_activities(), 0.05
            ),
        ),
        duration=16_000.0,
        warmup=1_000.0,
        replications=REPLICATIONS,
        base_seed=BASE_SEED,
        inject_failures=True,
    )


def validation_lines(validation) -> list[str]:
    """EXPERIMENTS-ready rows: analytic, mean +/- CI, error, verdict."""
    lines = [
        "metric                          analytic  "
        "simulated (mean +/- CI)        rel.err   verdict"
    ]
    for row in validation.metrics:
        interval = (
            f"{row.simulated.mean:10.5f} +/- {row.simulated.half_width:.5f}"
        )
        lines.append(
            f"{row.metric:30s} {row.analytic:10.5f} {interval:28s}"
            f" {row.relative_error:+8.2%}   {row.verdict}"
        )
    return lines


def test_e7a_department_turnaround_and_utilization(benchmark):
    plan = department_plan()
    result = benchmark.pedantic(
        lambda: run_campaign(plan), rounds=1, iterations=1
    )
    types = plan.server_types
    model = PerformanceModel(types, mix_workload())
    validation = validate_against_models(result, model)
    emit(
        f"E7a: department scale {DEPARTMENT}, "
        f"{REPLICATIONS} replications x {plan.duration:g} min",
        validation_lines(validation),
    )

    # Turnaround and utilization: quantitative agreement, within CI.
    for workflow in ("EP", "OrderProcessing"):
        assert validation[f"turnaround[{workflow}]"].within_ci
    for name in types.names:
        assert validation[f"utilization[{name}]"].within_ci

    # Waiting times: shape only at this scale.  Clustered arrivals make
    # the true waits sit above the M/G/1 prediction; the ranking of the
    # pools (and hence the bottleneck identity) is still reproduced.
    waits = {
        name: validation[f"waiting[{name}]"] for name in types.names
    }
    predicted_ranking = sorted(
        types.names, key=lambda name: waits[name].analytic
    )
    measured_ranking = sorted(
        types.names, key=lambda name: waits[name].simulated.mean
    )
    assert predicted_ranking == measured_ranking
    for row in waits.values():
        assert row.analytic <= row.simulated.mean <= 4.0 * row.analytic


def test_e7b_enterprise_waiting_times_within_ci(benchmark):
    """Acceptance: turnaround AND waiting inside the simulated 95% CI."""
    plan = enterprise_plan()
    result = benchmark.pedantic(
        lambda: run_campaign(plan), rounds=1, iterations=1
    )
    types = plan.server_types
    model = PerformanceModel(types, mix_workload(ENTERPRISE_SCALE))
    validation = validate_against_models(result, model)
    emit(
        f"E7b: enterprise scale {ENTERPRISE} (rates x{ENTERPRISE_SCALE:g}),"
        f" {REPLICATIONS} replications x {plan.duration:g} min",
        validation_lines(validation),
    )
    for workflow in ("EP", "OrderProcessing"):
        assert validation[f"turnaround[{workflow}]"].within_ci
    for name in types.names:
        assert validation[f"utilization[{name}]"].within_ci
        assert validation[f"waiting[{name}]"].within_ci
    assert validation.all_within


def test_e7c_availability_within_ci(benchmark):
    plan = availability_plan()
    result = benchmark.pedantic(
        lambda: run_campaign(plan), rounds=1, iterations=1
    )
    types = plan.server_types
    model = PerformanceModel(
        types, Workload([WorkloadItem(ecommerce_workflow(), 0.05)])
    )
    availability = AvailabilityModel(types, plan.configuration)
    validation = validate_against_models(
        result, model, availability=availability, waiting_times=False
    )
    row = validation["unavailability"]
    emit(
        "E7c: availability, accelerated rates on (1, 2, 2), "
        f"{REPLICATIONS} replications x {plan.duration:g} min",
        [
            f"predicted system unavailability: {row.analytic:.5e}",
            "measured  system unavailability: "
            f"{row.simulated.mean:.5e} +/- {row.simulated.half_width:.5e}",
            f"relative error: {row.relative_error:+.2%}   {row.verdict}",
        ],
    )
    assert row.within_ci
    # Sanity: the accelerated rates do produce real outage mass.
    assert row.simulated.mean > 1e-3
