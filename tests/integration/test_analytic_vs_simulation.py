"""Integration: the analytic models against the simulated WFMS.

These are the validation experiments of the reproduction: the analytic
predictions of Sections 4-6 are compared with measurements from the
discrete-event WFMS, run as replicated campaigns so each comparison is
made against a 95% confidence interval rather than a point estimate.
Absolute agreement is expected where the analytic assumptions hold
exactly (turnaround times, utilizations, availability, and the M/G/1
waiting under a true Poisson request stream); shape agreement (ranking,
bottleneck identity) is expected where they are approximations (request
clustering inside activities).
"""

import math
import random

import pytest

from repro.core.availability import AvailabilityModel
from repro.core.model_types import ServerTypeSpec
from repro.core.performance import (
    PerformanceModel,
    SystemConfiguration,
    Workload,
    WorkloadItem,
)
from repro.queueing import mg1_mean_waiting_time
from repro.scenarios import (
    GeneratorConfig,
    generate_corpus,
    spec_to_ctmc,
    spec_to_project,
    spec_to_simulated_type,
)
from repro.sim.campaign import (
    CampaignPlan,
    run_campaign,
    validate_against_models,
)
from repro.sim.distributions import Exponential, distribution_for_moments
from repro.sim.engine import Simulator
from repro.wfms import RoutingPolicy, SimulatedWFMS, SimulatedWorkflowType
from repro.wfms.servers import Server
from repro.workflows import (
    ecommerce_activities,
    ecommerce_chart,
    ecommerce_workflow,
    standard_server_types,
)


class TestMG1QueueAgainstFormula:
    """A single simulated server under a true Poisson stream must match
    the Pollaczek-Khinchine formula — isolating the queueing machinery
    from workflow-level arrival correlations."""

    @pytest.mark.parametrize("scv", [0.0, 1.0, 3.0])
    def test_waiting_time_matches_pollaczek_khinchine(self, scv):
        mean_service = 0.8
        second_moment = mean_service**2 * (1.0 + scv)
        arrival_rate = 0.75  # utilization 0.6

        simulator = Simulator()
        spec = ServerTypeSpec(
            "srv", mean_service, second_moment_service_time=second_moment
        )
        server = Server(
            simulator, "srv#0", spec,
            distribution_for_moments(mean_service, second_moment),
            rng=random.Random(1),
        )
        arrivals = Exponential(1.0 / arrival_rate)
        rng = random.Random(2)

        def arrive():
            server.submit(simulator.now, 0)
            simulator.schedule(arrivals.sample(rng), arrive)

        simulator.schedule(arrivals.sample(rng), arrive)
        simulator.run_until(60_000.0)

        predicted = mg1_mean_waiting_time(
            arrival_rate, mean_service, second_moment
        )
        measured = server.statistics.waiting_times.mean
        assert measured == pytest.approx(predicted, rel=0.12)


@pytest.fixture(scope="module")
def ep_campaign():
    types = standard_server_types()
    plan = CampaignPlan(
        server_types=types,
        configuration=SystemConfiguration(
            {"comm-server": 1, "wf-engine": 2, "app-server": 3}
        ),
        workflow_types=(
            SimulatedWorkflowType(
                ecommerce_chart(), ecommerce_activities(), 0.4
            ),
        ),
        duration=8_000.0,
        warmup=800.0,
        replications=3,
        base_seed=17,
        routing_policy=RoutingPolicy.RANDOM,
        inject_failures=False,
    )
    result = run_campaign(plan)
    analytic = PerformanceModel(
        types, Workload([WorkloadItem(ecommerce_workflow(), 0.4)])
    )
    validation = validate_against_models(result, analytic)
    return types, plan, result, analytic, validation


class TestEPWorkflowAgainstModel:
    def test_turnaround_time_within_ci(self, ep_campaign):
        _, _, _, analytic, validation = ep_campaign
        row = validation["turnaround[EP]"]
        assert row.within_ci
        assert abs(row.relative_error) < 0.05

    def test_utilizations_within_ci(self, ep_campaign):
        types, _, _, _, validation = ep_campaign
        for name in types.names:
            row = validation[f"utilization[{name}]"]
            assert row.within_ci
            assert abs(row.relative_error) < 0.1

    def test_request_counts_per_instance(self, ep_campaign):
        types, _, result, analytic, _ = ep_campaign
        instances = result.workflow_types["EP"].total_completed
        predicted = analytic.requests_per_instance("EP")
        for i, name in enumerate(types.names):
            measured = (
                result.server_types[name].total_requests / instances
            )
            assert measured == pytest.approx(predicted[i], rel=0.1)

    def test_waiting_time_ranking_preserved(self, ep_campaign):
        types, _, _, _, validation = ep_campaign
        rows = {
            name: validation[f"waiting[{name}]"] for name in types.names
        }
        predicted_ranking = sorted(
            types.names, key=lambda name: rows[name].analytic
        )
        measured_ranking = sorted(
            types.names, key=lambda name: rows[name].simulated.mean
        )
        assert predicted_ranking == measured_ranking

    def test_analytic_waiting_is_a_lower_bound_of_same_magnitude(
        self, ep_campaign
    ):
        # Within-activity request clustering makes real arrivals burstier
        # than Poisson; under RANDOM routing the model under-predicts the
        # level but stays within a small constant factor.
        types, _, _, _, validation = ep_campaign
        for name in types.names:
            row = validation[f"waiting[{name}]"]
            assert row.simulated.mean >= 0.9 * row.analytic
            assert row.simulated.mean <= 4.0 * row.analytic + 1e-3


class TestGeneratedSpecsAgainstModel:
    def test_validation_rows_clear_the_floor(self):
        # The three quickest specs of a seeded parallel-free pool (the
        # turnaround and waiting models assume sequential flow), run for
        # 20 of the longest analytic turnarounds after 5 of warm-up so
        # the steady state the models describe is reached.  Waiting
        # rows are skipped: spec activities issue request batches, not
        # the Poisson stream the M/G/1 model assumes.
        config = GeneratorConfig(
            service_time_family="lognormal",
            min_arrival_rate=0.005,
            max_arrival_rate=0.05,
            parallel_probability=0.0,
            subworkflow_probability=0.0,
        )
        pool = generate_corpus(10, master_seed=2001, config=config)
        turnaround = {
            spec.name: spec_to_ctmc(spec).turnaround_time() for spec in pool
        }
        chosen = sorted(pool, key=lambda spec: turnaround[spec.name])[:3]
        longest = turnaround[chosen[-1].name]
        plan = CampaignPlan(
            server_types=standard_server_types(),
            configuration=SystemConfiguration(
                {"comm-server": 2, "wf-engine": 2, "app-server": 3}
            ),
            workflow_types=tuple(
                spec_to_simulated_type(spec) for spec in chosen
            ),
            duration=20.0 * longest,
            warmup=5.0 * longest,
            replications=5,
            base_seed=2000,
            inject_failures=False,
        )
        result = run_campaign(plan)
        assert len(result.workflow_types) == 3
        assert all(
            math.isfinite(aggregate.turnaround.mean)
            and aggregate.turnaround.mean > 0.0
            for aggregate in result.workflow_types.values()
        )
        analytic = PerformanceModel(
            plan.server_types, spec_to_project(chosen).workload()
        )
        validation = validate_against_models(
            result, analytic, waiting_times=False
        )
        within = [row.within_ci for row in validation.metrics]
        assert len(within) == 6
        assert sum(within) >= math.ceil(0.8 * len(within))


class TestAvailabilityAgainstModel:
    def test_measured_unavailability_within_campaign_ci(self):
        # Accelerated rates so a modest campaign observes many failures.
        from repro.core.model_types import ServerTypeIndex

        fast_types = ServerTypeIndex(
            [
                ServerTypeSpec("comm-server", 0.02, failure_rate=1 / 80.0,
                               repair_rate=1 / 5.0),
                ServerTypeSpec("wf-engine", 0.05, failure_rate=1 / 50.0,
                               repair_rate=1 / 5.0),
                ServerTypeSpec("app-server", 0.15, failure_rate=1 / 30.0,
                               repair_rate=1 / 5.0),
            ]
        )
        configuration = SystemConfiguration(
            {"comm-server": 1, "wf-engine": 2, "app-server": 2}
        )
        plan = CampaignPlan(
            server_types=fast_types,
            configuration=configuration,
            workflow_types=(
                SimulatedWorkflowType(
                    ecommerce_chart(), ecommerce_activities(), 0.05
                ),
            ),
            duration=20_000.0,
            warmup=1_000.0,
            replications=3,
            base_seed=23,
            inject_failures=True,
        )
        result = run_campaign(plan)
        analytic = PerformanceModel(
            fast_types,
            Workload([WorkloadItem(ecommerce_workflow(), 0.05)]),
        )
        model = AvailabilityModel(fast_types, configuration)
        validation = validate_against_models(
            result, analytic, availability=model, waiting_times=False
        )
        row = validation["unavailability"]
        assert row.within_ci
        assert row.simulated.mean == pytest.approx(
            row.analytic, rel=0.35
        )

    def test_per_type_unavailability_ranking(self):
        from repro.core.model_types import ServerTypeIndex

        fast_types = ServerTypeIndex(
            [
                ServerTypeSpec("stable", 0.02, failure_rate=1 / 500.0,
                               repair_rate=1 / 5.0),
                ServerTypeSpec("flaky", 0.05, failure_rate=1 / 40.0,
                               repair_rate=1 / 5.0),
            ]
        )
        configuration = SystemConfiguration({"stable": 1, "flaky": 1})
        activities = ecommerce_activities()
        # Reuse the EP chart but point loads at the two types via a
        # simple single-activity chart instead.
        from repro.core.model_types import ActivitySpec
        from repro.spec.events import ECARule
        from repro.spec.statechart import (
            ChartState,
            ChartTransition,
            StateChart,
        )
        from repro.spec.translator import ActivityRegistry

        registry = ActivityRegistry(
            {
                "work": ActivitySpec(
                    "work", 2.0, loads={"stable": 1.0, "flaky": 1.0}
                )
            }
        )
        chart = StateChart(
            "w",
            (ChartState("work", activity="work"),
             ChartState("end", mean_duration=0.01)),
            (ChartTransition("work", "end", ECARule("work_DONE")),),
            "work",
        )
        wfms = SimulatedWFMS(
            server_types=fast_types,
            configuration=configuration,
            workflow_types=[SimulatedWorkflowType(chart, registry, 0.05)],
            seed=29,
        )
        report = wfms.run(duration=40_000.0, warmup=500.0)
        assert (
            report.server_types["flaky"].unavailability
            > report.server_types["stable"].unavailability
        )
