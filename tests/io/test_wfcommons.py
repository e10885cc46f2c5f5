"""Tests for the WfCommons instance importer."""

import pytest

from repro.exceptions import ValidationError
from repro.io.wfcommons import MIN_DURATION, wfcommons_to_spec
from repro.scenarios import spec_to_chart, spec_to_ctmc
from repro.scenarios.spec import CompositeBlock


def _legacy_document():
    """Old WorkflowHub layout: inline tasks with runtimes and parents."""
    return {
        "name": "legacy-diamond",
        "workflow": {
            "tasks": [
                {"name": "root", "runtime": 60.0, "parents": []},
                {"name": "left", "runtime": 120.0, "parents": ["root"]},
                {"name": "right", "runtime": 180.0, "parents": ["root"]},
                {"name": "sink", "runtime": 30.0,
                 "parents": ["left", "right"]},
            ]
        },
    }


def _wfformat_document():
    """Current WfFormat: specification/execution split."""
    return {
        "name": "wfformat-chain",
        "workflow": {
            "specification": {
                "tasks": [
                    {"id": "a", "parents": []},
                    {"id": "b", "parents": ["a"]},
                    {"id": "c", "parents": ["b"]},
                ]
            },
            "execution": {
                "tasks": [
                    {"id": "a", "runtimeInSeconds": 30.0},
                    {"id": "b", "runtimeInSeconds": 60.0},
                    {"id": "c", "runtimeInSeconds": 90.0},
                ]
            },
        },
    }


class TestSchemas:
    def test_legacy_layout_imports(self):
        spec = wfcommons_to_spec(_legacy_document())
        assert spec.name == "legacy-diamond"
        # Diamond: three levels, the middle one parallel.
        assert {a.name for a in spec.activities} == {
            "root", "left", "right", "sink",
        }

    def test_wfformat_layout_imports(self):
        spec = wfcommons_to_spec(_wfformat_document())
        # A chain of three tasks: one activity per level, no parallels.
        composites = [
            block
            for block, _ in spec.walk_blocks()
            if isinstance(block, CompositeBlock)
        ]
        assert composites == []
        assert len(spec.activities) == 3

    def test_jobs_alias(self):
        document = _legacy_document()
        document["workflow"]["jobs"] = document["workflow"].pop("tasks")
        assert len(wfcommons_to_spec(document).activities) == 4

    def test_missing_workflow_object(self):
        with pytest.raises(ValidationError):
            wfcommons_to_spec({"name": "empty"})

    def test_missing_tasks(self):
        with pytest.raises(ValidationError):
            wfcommons_to_spec({"workflow": {}})


class TestLevelSynchronization:
    def test_diamond_becomes_sequence_of_levels(self):
        spec = wfcommons_to_spec(_legacy_document())
        composites = [
            block
            for block, _ in spec.walk_blocks()
            if isinstance(block, CompositeBlock)
        ]
        # Exactly one parallel level (left || right).
        assert len(composites) == 1
        assert {r.name for r in composites[0].regions} == {
            "left_SC", "right_SC",
        }

    def test_turnaround_upper_bounds_critical_path(self):
        # Runtimes are seconds; default time unit is minutes.
        model = spec_to_ctmc(wfcommons_to_spec(_legacy_document()))
        critical_path = (60.0 + 180.0 + 30.0) / 60.0
        assert model.turnaround_time() >= critical_path

    def test_cycle_detected(self):
        document = {
            "workflow": {
                "tasks": [
                    {"name": "a", "runtime": 1.0, "parents": ["b"]},
                    {"name": "b", "runtime": 1.0, "parents": ["a"]},
                ]
            }
        }
        with pytest.raises(ValidationError, match="cycle"):
            wfcommons_to_spec(document)

    def test_unknown_parent_rejected(self):
        document = {
            "workflow": {
                "tasks": [
                    {"name": "a", "runtime": 1.0, "parents": ["ghost"]},
                ]
            }
        }
        with pytest.raises(ValidationError, match="unknown parent"):
            wfcommons_to_spec(document)


class TestNormalization:
    def test_weird_task_names_sanitized(self):
        document = {
            "workflow": {
                "tasks": [
                    {"name": "stage 1/prep.sh", "runtime": 10.0,
                     "parents": []},
                ]
            }
        }
        spec = wfcommons_to_spec(document, name="Weird")
        chart = spec_to_chart(spec)  # state names must be chart-safe
        assert len(chart.final_states) == 1

    def test_zero_runtime_clamped(self):
        document = {
            "workflow": {
                "tasks": [
                    {"name": "instant", "runtime": 0.0, "parents": []},
                ]
            }
        }
        spec = wfcommons_to_spec(document)
        assert spec.activity("instant").mean_duration >= MIN_DURATION

    def test_seconds_per_time_unit(self):
        document = _wfformat_document()
        minutes = wfcommons_to_spec(document)
        seconds = wfcommons_to_spec(document, seconds_per_time_unit=1.0)
        assert seconds.activity("a").mean_duration == pytest.approx(
            60.0 * minutes.activity("a").mean_duration
        )

    def test_arrival_rate_passthrough(self):
        spec = wfcommons_to_spec(_wfformat_document(), arrival_rate=0.125)
        assert spec.arrival.rate == pytest.approx(0.125)
