"""Capture golden chart/CTMC artifacts of the bundled example workflows.

Writes, for every bundled example workflow spec, two golden files under
``tests/workflows/goldens/``:

* ``<name>.chart.json`` — the state chart the spec lowers to
  (:func:`repro.scenarios.spec_to_chart`), rendered by :func:`chart_golden`
  (states, transitions, events, guards, and probability annotations, in
  definition order);
* ``<name>.model.json`` — the workflow definition the spec lowers to
  (:func:`repro.scenarios.spec_to_definition`, serialized by
  :func:`repro.io.serialization.workflow_to_dict`) together with the full
  CTMC translation: jump probabilities, residence times, state names,
  initial state, and the load matrix over the workflow's server landscape.

The committed files were first captured from the hand-coded charts the
specs replaced.  ``tests/workflows/test_goldens.py`` renders every
artifact again with :func:`chart_golden` and :func:`model_golden` and
asserts **byte equality** with the committed files, so a change to the
lowering shows up as a golden diff.

Regenerate deliberately (only when a workflow is *meant* to change)::

    PYTHONPATH=src python tools/capture_workflow_goldens.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.workflow_model import build_workflow_ctmc
from repro.io.serialization import workflow_to_dict
from repro.scenarios import spec_to_chart, spec_to_definition
from repro.scenarios.spec import guard_to_dict
from repro.spec.statechart import ChartState, StateChart
from repro.workflows import (
    ecommerce_spec,
    extended_server_types,
    insurance_spec,
    loan_spec,
    order_processing_spec,
    standard_server_types,
    travel_spec,
)

GOLDEN_DIR = Path(__file__).resolve().parent.parent / (
    "tests/workflows/goldens"
)

#: ``name -> (spec factory, landscape factory)``.
EXAMPLES = {
    "ecommerce": (ecommerce_spec, standard_server_types),
    "order_processing": (order_processing_spec, standard_server_types),
    "insurance": (insurance_spec, standard_server_types),
    "loan": (loan_spec, extended_server_types),
    "travel": (travel_spec, standard_server_types),
}


def _chart_to_dict(chart: StateChart) -> dict[str, Any]:
    """One chart with its nested regions; actions appear in their ECA
    notation (``st!(A)``, ``tr!(C)``), which no bundled chart uses."""
    return {
        "name": chart.name,
        "initial_state": chart.initial_state,
        "states": [_state_to_dict(state) for state in chart.states],
        "transitions": [
            {
                "source": transition.source,
                "target": transition.target,
                "rule": {
                    "event": transition.rule.event,
                    "guard": guard_to_dict(transition.rule.guard),
                    "actions": [str(a) for a in transition.rule.actions],
                },
                "probability": transition.probability,
            }
            for transition in chart.transitions
        ],
    }


def _state_to_dict(state: ChartState) -> dict[str, Any]:
    result: dict[str, Any] = {"name": state.name}
    if state.activity is not None:
        result["activity"] = state.activity
    if state.entry_actions:
        result["entry_actions"] = [str(a) for a in state.entry_actions]
    if state.regions:
        result["regions"] = [_chart_to_dict(r) for r in state.regions]
    if state.mean_duration is not None:
        result["mean_duration"] = state.mean_duration
    return result


def chart_golden(chart: StateChart) -> str:
    """Canonical golden text of one state chart."""
    return json.dumps(_chart_to_dict(chart), indent=2, sort_keys=True) + "\n"


def model_golden(definition, server_types) -> str:
    """Canonical golden text of one definition and its CTMC translation."""
    model = build_workflow_ctmc(definition, server_types)
    document = {
        "definition": workflow_to_dict(definition),
        "ctmc": {
            "state_names": list(model.chain.state_names),
            "initial_state": model.chain.initial_state,
            "jump_probabilities": model.chain.jump_probabilities.tolist(),
            "residence_times": model.chain.residence_times.tolist(),
            "load_matrix": model.load_matrix.tolist(),
            "server_types": list(server_types.names),
        },
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def main() -> int:
    """Write every golden file; prints one line per artifact."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, (spec_factory, types_factory) in EXAMPLES.items():
        chart_path = GOLDEN_DIR / f"{name}.chart.json"
        chart_path.write_text(chart_golden(spec_to_chart(spec_factory())))
        print(f"wrote {chart_path}")
        model_path = GOLDEN_DIR / f"{name}.model.json"
        model_path.write_text(
            model_golden(spec_to_definition(spec_factory()), types_factory())
        )
        print(f"wrote {model_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
