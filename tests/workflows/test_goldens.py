"""Byte-equality golden tests for the bundled example workflows.

The golden files under ``tests/workflows/goldens/`` were captured from
the pre-refactor, hand-coded charts (``tools/capture_workflow_goldens.py``).
These tests lower every bundled WorkflowSpec again, render it with that
tool's ``chart_golden``/``model_golden``, and assert **byte equality**,
proving the lowering is behavior-preserving down to state order,
transition order, guard structure, probability annotations, and every
CTMC matrix entry.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.scenarios import spec_to_chart, spec_to_definition

REPO_ROOT = Path(__file__).resolve().parents[2]
_TOOL = importlib.util.spec_from_file_location(
    "capture_workflow_goldens",
    REPO_ROOT / "tools" / "capture_workflow_goldens.py",
)
capture = importlib.util.module_from_spec(_TOOL)
_TOOL.loader.exec_module(capture)


@pytest.mark.parametrize("name", sorted(capture.EXAMPLES))
class TestByteIdenticalLowering:
    def test_chart_matches_golden(self, name):
        spec_factory, _ = capture.EXAMPLES[name]
        golden = (capture.GOLDEN_DIR / f"{name}.chart.json").read_text()
        rebuilt = capture.chart_golden(spec_to_chart(spec_factory()))
        assert rebuilt == golden

    def test_model_matches_golden(self, name):
        spec_factory, types_factory = capture.EXAMPLES[name]
        golden = (capture.GOLDEN_DIR / f"{name}.model.json").read_text()
        rebuilt = capture.model_golden(
            spec_to_definition(spec_factory()), types_factory()
        )
        assert rebuilt == golden
