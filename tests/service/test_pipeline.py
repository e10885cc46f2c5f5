"""Tests for the shared calibrate -> evaluate -> recommend pipeline."""

import random

import pytest

from repro.core.evaluation_cache import EvaluationCache
from repro.core.goals import GoalEvaluator, PerformabilityGoals
from repro.core.model_types import (
    ActivitySpec,
    ServerTypeIndex,
    ServerTypeSpec,
)
from repro.core.performance import SystemConfiguration
from repro.core.workflow_model import WorkflowDefinition, WorkflowState
from repro.exceptions import ValidationError
from repro.io import Project
from repro.monitor.audit import InstanceRecord, ServiceRequestRecord
from repro.monitor.stream import StreamingCalibrator
from repro.service import (
    SearchSettings,
    batch_recommendation,
    calibrated_model,
    calibrated_specs,
    goals_to_document,
    parse_goals,
    recommend_from_calibration,
    render_document,
)

from tests.service.conftest import TRAIL_PATH


class TestParseGoals:
    def test_both_goals(self):
        goals = parse_goals("max-waiting=0.5,max-unavailability=1e-4")
        assert goals.max_waiting_time == 0.5
        assert goals.max_unavailability == 1e-4

    def test_single_goal(self):
        goals = parse_goals("max-waiting=2.0")
        assert goals.max_waiting_time == 2.0
        assert goals.max_unavailability is None

    def test_missing_separator_raises(self):
        with pytest.raises(ValidationError):
            parse_goals("max-waiting 0.5")

    def test_unknown_key_raises(self):
        with pytest.raises(ValidationError):
            parse_goals("max-cost=3")

    def test_bad_value_raises(self):
        with pytest.raises(ValidationError):
            parse_goals("max-waiting=fast")

    def test_empty_raises(self):
        with pytest.raises(ValidationError):
            parse_goals("")

    def test_round_trips_into_document(self):
        goals = parse_goals("max-waiting=0.5")
        document = goals_to_document(goals)
        assert document["max_waiting_time"] == 0.5
        assert document["max_unavailability"] is None


class TestSearchSettings:
    def test_unknown_algorithm_raises(self):
        with pytest.raises(ValidationError):
            SearchSettings(algorithm="oracle")

    def test_frontier_ignores_algorithm_choice(self):
        settings = SearchSettings(algorithm="oracle", frontier=True)
        assert settings.to_document()["algorithm"] == "frontier"

    def test_document_sorts_fixed_counts(self):
        settings = SearchSettings(fixed={"b": 2, "a": 1})
        assert list(settings.to_document()["fixed"]) == ["a", "b"]


class TestCalibratedModel:
    def test_unknown_measured_type_raises(self, baseline, trail_records):
        calibrator = StreamingCalibrator()
        calibrator.replay_records(trail_records)
        from repro.core.model_types import ServerTypeIndex
        from repro.io import Project

        partial = Project(
            server_types=ServerTypeIndex(
                list(baseline.server_types.specs)[:1]
            ),
            workflows=baseline.workflows,
            arrival_rates=baseline.arrival_rates,
        )
        with pytest.raises(ValidationError, match="missing from"):
            calibrated_specs(calibrator, partial)

    def test_empty_calibration_raises(self, baseline):
        with pytest.raises(ValidationError, match="observed time span"):
            calibrated_model(StreamingCalibrator(), baseline)

    def test_overlays_measured_moments(self, baseline, trail_records):
        calibrator = StreamingCalibrator()
        calibrator.replay_records(trail_records)
        index = calibrated_specs(calibrator, baseline)
        measured = calibrator.service_times()
        for spec in index.specs:
            assert (
                spec.mean_service_time == measured[spec.name].mean
            ), spec.name

    def test_silent_types_keep_the_baseline(self, two_type_baseline):
        calibrator = StreamingCalibrator()
        for start in (0.0, 10.0, 20.0):
            calibrator.observe(
                ServiceRequestRecord(
                    "engine", "engine#0", start, start + 0.01,
                    start + 0.01 + 0.08,
                )
            )
        index = calibrated_specs(calibrator, two_type_baseline)
        baseline_types = two_type_baseline.server_types
        assert index.spec("engine").mean_service_time == pytest.approx(0.08)
        # Uncalibrated type untouched.
        assert index.spec("app") == baseline_types.spec("app")
        # Failure rates survive the calibration.
        assert index.spec("engine").failure_rate == (
            baseline_types.spec("engine").failure_rate
        )


class TestByteIdentity:
    def test_streaming_equals_batch(
        self, baseline, goals, trail_records
    ):
        calibrator = StreamingCalibrator()
        # Feed in uneven chunks, the way POST /events would.
        for start in range(0, len(trail_records), 113):
            calibrator.replay_records(trail_records[start:start + 113])
        streamed = recommend_from_calibration(calibrator, baseline, goals)
        batch = batch_recommendation(str(TRAIL_PATH), baseline, goals)
        assert render_document(streamed) == render_document(batch)

    def test_warm_cache_changes_nothing(
        self, baseline, goals, trail_records
    ):
        calibrator = StreamingCalibrator()
        calibrator.replay_records(trail_records)
        cache = EvaluationCache()
        cold = recommend_from_calibration(
            calibrator, baseline, goals, cache=cache
        )
        warm = recommend_from_calibration(
            calibrator, baseline, goals, cache=cache
        )
        # Same document bytes *and* the same evaluations accounting --
        # clear_assessments() keeps the warm run's count cold.
        assert render_document(warm) == render_document(cold)

    def test_frontier_streaming_equals_batch(
        self, baseline, goals, trail_records
    ):
        settings = SearchSettings(frontier=True, seed=7)
        calibrator = StreamingCalibrator()
        calibrator.replay_records(trail_records)
        streamed = recommend_from_calibration(
            calibrator, baseline, goals, settings
        )
        batch = batch_recommendation(
            str(TRAIL_PATH), baseline, goals, settings
        )
        assert render_document(streamed) == render_document(batch)
        assert streamed["search"]["algorithm"] == "frontier"


class TestInfeasible:
    def test_infeasible_is_a_result_not_an_error(
        self, baseline, trail_records
    ):
        goals = parse_goals("max-unavailability=1e-30")
        calibrator = StreamingCalibrator()
        calibrator.replay_records(trail_records)
        settings = SearchSettings(max_total_servers=3)
        document = recommend_from_calibration(
            calibrator, baseline, goals, settings
        )
        assert document["feasible"] is False
        assert "error" in document
        render_document(document)  # still canonical JSON


#: Monitoring window of the synthetic trails, and the load the running
#: configuration was sized for (instances of ``wf`` per time unit).
PERIOD = 1_000.0
ASSUMED_RATE = 1.0
RECONFIGURATION_GOALS = PerformabilityGoals(
    max_waiting_time=0.3, max_unavailability=1e-4
)


@pytest.fixture()
def two_type_baseline():
    """A two-type landscape running one single-activity workflow."""
    work = ActivitySpec("work", 5.0, loads={"engine": 3.0, "app": 2.0})
    workflow = WorkflowDefinition(
        name="wf",
        states=(
            WorkflowState("work", activity=work),
            WorkflowState("end", mean_duration=0.1),
        ),
        transitions={("work", "end"): 1.0},
        initial_state="work",
    )
    return Project(
        server_types=ServerTypeIndex(
            [
                ServerTypeSpec(
                    "engine", 0.05, failure_rate=1 / 10080, repair_rate=0.1
                ),
                ServerTypeSpec(
                    "app", 0.2, failure_rate=1 / 1440, repair_rate=0.1
                ),
            ]
        ),
        workflows=(workflow,),
        arrival_rates={"wf": ASSUMED_RATE},
    )


def calibrated_window(arrival_rate, app_service=0.2):
    """A calibrator fed one window of ``wf`` at the given rate.

    Every instance sends the activity's loads (three ``engine``, two
    ``app`` requests), each tagged with its ``instance_id`` so the
    pipeline joins it to the completed instance.  Service durations are
    exponential, matching the specs' default SCV of 1.
    """
    rng = random.Random(0)
    calibrator = StreamingCalibrator()
    count = int(arrival_rate * PERIOD)
    for instance in range(count):
        start = instance * PERIOD / count
        for server_type, service, requests in (
            ("engine", 0.05, 3), ("app", app_service, 2)
        ):
            for _ in range(requests):
                calibrator.observe(
                    ServiceRequestRecord(
                        server_type, f"{server_type}#0", start, start,
                        start + rng.expovariate(1.0 / service),
                        instance_id=instance,
                    )
                )
        calibrator.observe(InstanceRecord(instance, "wf", start, start + 5.1))
    return calibrator


def recommended(calibrator, baseline):
    document = recommend_from_calibration(
        calibrator, baseline, RECONFIGURATION_GOALS,
        observation_period=PERIOD,
    )
    assert document["feasible"]
    return SystemConfiguration(document["result"]["configuration"])


def goal_check(calibrator, baseline, configuration):
    model = calibrated_model(calibrator, baseline, PERIOD)
    return GoalEvaluator(model).assess(configuration, RECONFIGURATION_GOALS)


class TestReconfiguration:
    """Section 7.1's reconfiguration outcomes on the calibrated loop."""

    def test_load_growth_recommends_more_servers(self, two_type_baseline):
        current = recommended(
            calibrated_window(ASSUMED_RATE), two_type_baseline
        )
        grown = recommended(
            calibrated_window(4 * ASSUMED_RATE), two_type_baseline
        )
        assert grown.total_servers > current.total_servers

    def test_oversized_configuration_is_downsized(self, two_type_baseline):
        oversized = SystemConfiguration({"engine": 5, "app": 8})
        calibrator = calibrated_window(0.3)
        assert goal_check(calibrator, two_type_baseline, oversized).satisfied
        cheaper = recommended(calibrator, two_type_baseline)
        types = two_type_baseline.server_types
        assert cheaper.cost(types) < oversized.cost(types)
        assert cheaper.total_servers < oversized.total_servers

    def test_app_slowdown_adds_app_replicas(self, two_type_baseline):
        current = recommended(
            calibrated_window(ASSUMED_RATE), two_type_baseline
        )
        slowed = recommended(
            calibrated_window(ASSUMED_RATE, app_service=0.8),
            two_type_baseline,
        )
        assert slowed.count("app") > current.count("app")

    def test_goal_check_names_the_violated_goal(self, two_type_baseline):
        current = recommended(
            calibrated_window(ASSUMED_RATE), two_type_baseline
        )
        assert goal_check(
            calibrated_window(ASSUMED_RATE), two_type_baseline, current
        ).satisfied
        assessment = goal_check(
            calibrated_window(4 * ASSUMED_RATE), two_type_baseline, current
        )
        assert not assessment.satisfied
        assert [
            (violation.kind, violation.server_type)
            for violation in assessment.violations
        ] == [("waiting_time", "app")]
        assert "waiting time of app" in str(assessment.violations[0])
