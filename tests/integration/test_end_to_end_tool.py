"""Integration: the full configuration-tool loop of Section 7.

map (state charts -> models) -> run the simulated WFMS -> calibrate from
the audit trail (streaming calibrator) -> re-evaluate -> recommend.
This is the "analysis and assessment of an operational system all the
way to ... automatically recommending a reconfiguration" spectrum the
paper describes.
"""

import pytest

from repro.core.configuration import greedy_configuration
from repro.core.goals import GoalEvaluator, PerformabilityGoals
from repro.core.performance import PerformanceModel, SystemConfiguration
from repro.io import Project
from repro.monitor.stream import StreamingCalibrator
from repro.service.pipeline import calibrated_specs
from repro.spec.translator import translate_chart
from repro.wfms import RoutingPolicy, SimulatedWFMS, SimulatedWorkflowType
from repro.workflows import (
    ecommerce_activities,
    ecommerce_chart,
    ecommerce_workflow,
    order_processing_activities,
    order_processing_chart,
    standard_server_types,
)
from repro.workflows.ecommerce import P_PAY_BY_CARD


@pytest.fixture(scope="module")
def operational_run():
    """A 'production' run of the simulated WFMS producing monitoring data."""
    types = standard_server_types()
    configuration = SystemConfiguration(
        {"comm-server": 1, "wf-engine": 2, "app-server": 3}
    )
    wfms = SimulatedWFMS(
        server_types=types,
        configuration=configuration,
        workflow_types=[
            SimulatedWorkflowType(
                ecommerce_chart(), ecommerce_activities(), 0.4
            ),
            SimulatedWorkflowType(
                order_processing_chart(), order_processing_activities(), 0.2
            ),
        ],
        seed=31,
        routing_policy=RoutingPolicy.ROUND_ROBIN,
        inject_failures=False,
    )
    report = wfms.run(duration=20_000.0, warmup=1_000.0)
    return types, configuration, report


RATES = {"EP": 0.4, "OrderProcessing": 0.2}


@pytest.fixture(scope="module")
def baseline():
    """The mapped study: both charts translated onto the §5.2 landscape."""
    return Project(
        server_types=standard_server_types(),
        workflows=(
            translate_chart(ecommerce_chart(), ecommerce_activities()),
            translate_chart(
                order_processing_chart(), order_processing_activities()
            ),
        ),
        arrival_rates=RATES,
    )


@pytest.fixture(scope="module")
def calibrator(operational_run):
    _, _, report = operational_run
    calibrator = StreamingCalibrator()
    calibrator.replay(report.trail)
    return calibrator


def performance_model(baseline, server_types=None):
    return PerformanceModel(
        server_types or baseline.server_types, baseline.workload()
    )


class TestMapEvaluateRecommend:
    def test_evaluate_operational_configuration(self, baseline):
        report = performance_model(baseline).assess(
            SystemConfiguration(
                {"comm-server": 1, "wf-engine": 2, "app-server": 3}
            )
        )
        assert report.is_stable
        assert report.throughput.bottleneck == "app-server"

    def test_recommendation_meets_goals(self, baseline):
        goals = PerformabilityGoals(
            max_waiting_time=0.25, max_unavailability=1e-5
        )
        recommendation = greedy_configuration(
            GoalEvaluator(performance_model(baseline)), goals
        )
        assessment = recommendation.assessment
        assert assessment.satisfied
        assert assessment.performability.max_expected_waiting_time <= 0.25
        assert assessment.unavailability <= 1e-5

    def test_tighter_goals_cost_more(self, baseline):
        evaluator = GoalEvaluator(performance_model(baseline))
        loose = greedy_configuration(
            evaluator,
            PerformabilityGoals(max_waiting_time=0.5,
                                max_unavailability=1e-4),
        )
        tight = greedy_configuration(
            evaluator,
            PerformabilityGoals(max_waiting_time=0.05,
                                max_unavailability=1e-7),
        )
        assert tight.cost > loose.cost


class TestCalibrationRoundTrip:
    def test_service_moments_recovered(self, operational_run, calibrator):
        types, _, _ = operational_run
        estimates = calibrator.service_times()
        for name in types.names:
            assert estimates[name].mean == pytest.approx(
                types.spec(name).mean_service_time, rel=0.05
            )

    def test_arrival_rates_recovered(self, calibrator):
        assert calibrator.arrival_rate("EP", 20_000.0) == pytest.approx(
            0.4, rel=0.1
        )
        assert calibrator.arrival_rate(
            "OrderProcessing", 20_000.0
        ) == pytest.approx(0.2, rel=0.15)

    def test_branching_probabilities_recovered(self, calibrator):
        probabilities = calibrator.transition_probabilities("EP")
        assert probabilities[
            ("NewOrder", "CreditCardCheck")
        ] == pytest.approx(P_PAY_BY_CARD, abs=0.05)

    def test_recalibrated_flat_workflow_matches_measured_turnaround(
        self, operational_run, calibrator
    ):
        types, _, _ = operational_run
        definition = calibrator.flat_workflow("EP", "NewOrder")
        from repro.core.workflow_model import build_workflow_ctmc

        model = build_workflow_ctmc(definition, types)
        measured = calibrator.turnaround_time("EP")
        assert model.turnaround_time() == pytest.approx(measured, rel=0.05)

    def test_calibrated_tool_predictions_stay_consistent(
        self, operational_run, baseline, calibrator
    ):
        _, configuration, _ = operational_run
        before = performance_model(baseline).assess(configuration)
        after = performance_model(
            baseline, calibrated_specs(calibrator, baseline)
        ).assess(configuration)
        # Measured moments are close to the design-time ones, so the
        # assessments must agree closely too.
        for name in baseline.server_types.names:
            assert after.utilizations[name] == pytest.approx(
                before.utilizations[name], rel=0.1
            )

    def test_analytic_turnaround_matches_reference_model(
        self, operational_run, calibrator
    ):
        types, _, _ = operational_run
        from repro.core.workflow_model import build_workflow_ctmc

        reference = build_workflow_ctmc(ecommerce_workflow(), types)
        measured = calibrator.turnaround_time("EP")
        assert measured == pytest.approx(
            reference.turnaround_time(), rel=0.05
        )
