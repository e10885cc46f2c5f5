"""Shared fixtures for the recommendation-service tests.

All service tests run against the bundled sample trail and the service
baseline project, the same pair the benchmark harness's
``sample_trail_equals_batch`` gate and the CLI smoke tool use — one
deterministic workload everywhere.
"""

from pathlib import Path

import pytest

from repro.io import load_project
from repro.monitor.persistence import iter_trail_records
from repro.service import parse_goals

REPO_ROOT = Path(__file__).resolve().parents[2]
TRAIL_PATH = REPO_ROOT / "examples" / "data" / "sample_trail.jsonl"
BASELINE_PATH = (
    REPO_ROOT / "examples" / "data" / "service_baseline.json"
)

GOALS_TEXT = "max-waiting=0.5,max-unavailability=1e-4"


@pytest.fixture()
def baseline():
    return load_project(BASELINE_PATH)


@pytest.fixture()
def goals():
    return parse_goals(GOALS_TEXT)


@pytest.fixture(scope="session")
def trail_records():
    return list(iter_trail_records(TRAIL_PATH))


@pytest.fixture(scope="session")
def trail_lines():
    return TRAIL_PATH.read_bytes()
