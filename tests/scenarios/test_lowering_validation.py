"""Lowering validates every chart once, with unchanged error messages.

The first six invalid specs put one structural error at the top level
or inside a nested region; each public lowering entry point must raise
the same ``ValidationError`` text for them.  The texts were recorded when
lowering still validated each chart about three times over (once per
enclosing ``ensure_valid``), so they pin that validating each chart once
reports exactly what the repeated validation did.  The last two are
structurally valid charts that only the translation to a definition
rejects (an unannotated branch, an unknown activity): the definition
lowerings must raise what ``translate_chart`` raises on the lowered
chart, which needs neither annotations nor a registry itself.
"""

import pytest

from repro.exceptions import ValidationError
from repro.scenarios import (
    ArrivalSpec,
    WorkflowSpec,
    activity,
    arm,
    branch,
    bundled_scenarios,
    generate_corpus,
    loop,
    parallel,
    region,
    routing,
    sequence,
    spec_to_chart,
    spec_to_definition,
    spec_to_project,
    spec_to_registry,
    subworkflow,
)
from repro.spec import validation
from repro.spec.translator import translate_chart
from repro.workflows.common import automated_activity, standard_server_types

_ACTIVITIES = tuple(
    automated_activity(name, 2.0) for name in ("A", "B", "C", "D", "E")
)


def _spec(name, body):
    return WorkflowSpec(
        name=name,
        body=body,
        activities=_ACTIVITIES,
        server_types=standard_server_types(),
        arrival=ArrivalSpec(rate=0.1),
    )


def _short_branch():
    """Two arms whose probabilities sum to 0.9."""
    return branch(
        arm(block=activity("B"), probability=0.6),
        arm(block=activity("C"), probability=0.3),
    )


def _nested(name, body):
    return sequence(
        activity("D"), subworkflow("Sub", region(name, body)),
        routing("End", 0.5),
    )


_SHORT = "outgoing probabilities sum to 0.8999999999999999, expected 1"

INVALID = {
    "top_level_branch": (
        _spec("TopBranch", sequence(
            activity("A"), _short_branch(), routing("End", 0.5),
        )),
        f"invalid state chart:\n  [error] TopBranch: state A: {_SHORT}",
    ),
    "subworkflow_branch": (
        _spec("SubBranch", _nested("Inner", sequence(
            activity("A"), _short_branch(), routing("InnerEnd", 0.5),
        ))),
        f"invalid state chart:\n  [error] Inner: state A: {_SHORT}",
    ),
    "parallel_branch": (
        _spec("ParBranch", sequence(
            activity("D"),
            parallel(
                "Par",
                region("Left", sequence(
                    activity("A"), _short_branch(), routing("LeftEnd", 0.5),
                )),
                region("Right", sequence(
                    activity("E"), routing("RightEnd", 0.5),
                )),
            ),
            routing("End", 0.5),
        )),
        f"invalid state chart:\n  [error] Left: state A: {_SHORT}",
    ),
    "region_partial_annotations": (
        _spec("Partial", _nested("Inner", sequence(
            activity("A"),
            branch(
                arm(block=activity("B"), probability=0.6),
                arm(block=activity("C")),
            ),
            routing("InnerEnd", 0.5),
        ))),
        "invalid state chart:\n  [error] Inner: state A: only some "
        "outgoing transitions carry probability annotations",
    ),
    "region_loop_without_exit": (
        _spec("NoExit", _nested("Inner", sequence(
            loop(activity("A"), arm(block=activity("B"), next="loop")),
            routing("InnerEnd", 0.5),
        ))),
        "invalid state chart:\n"
        "  [error] Inner: states unreachable from the initial state: "
        "['InnerEnd']\n"
        "  [error] Inner: states from which the final state is "
        "unreachable (workflow may never terminate): ['A', 'B']",
    ),
    "underflowed_probability": (
        # A's exit through both 1e-200 arms carries 1e-200 * 1e-200 = 0.
        _spec("Tiny", sequence(
            activity("A"),
            branch(arm(probability=1e-200),
                   arm(block=activity("B"), probability=1.0)),
            branch(arm(block=activity("C"), probability=1e-200),
                   arm(block=activity("D"), probability=1.0)),
            routing("End", 0.5),
        )),
        "transition A->C: probability 0.0 must lie in (0, 1]",
    ),
    "unannotated_branch": (
        _spec("Unannotated", sequence(
            activity("A"),
            branch(arm(block=activity("B")), arm(block=activity("C"))),
            routing("End", 0.5),
        )),
        "chart Unannotated: state A branches without probability "
        "annotations; annotate every outgoing transition (designer "
        "estimate or calibrated from audit trails)",
    ),
    "region_unknown_activity": (
        _spec("Unknown", _nested("Inner", sequence(
            activity("A"), activity("F", "Missing"),
            routing("InnerEnd", 0.5),
        ))),
        "unknown activity 'Missing'; registered: "
        "['A', 'B', 'C', 'D', 'E']",
    ),
}

#: The cases whose chart is valid; only its translation raises.
TRANSLATION_ERRORS = {"unannotated_branch", "region_unknown_activity"}

LOWERINGS = {
    "spec_to_chart": spec_to_chart,
    "spec_to_definition": spec_to_definition,
    "spec_to_project": lambda spec: spec_to_project([spec]),
}


@pytest.mark.parametrize("lowering", sorted(LOWERINGS))
@pytest.mark.parametrize("case", sorted(INVALID))
def test_lowering_error_text_is_unchanged(case, lowering):
    spec, message = INVALID[case]
    lower = LOWERINGS[lowering]
    if lowering == "spec_to_chart" and case in TRANSLATION_ERRORS:
        chart = spec_to_chart(spec)

        def lower(spec):
            return translate_chart(chart, spec_to_registry(spec))

    with pytest.raises(ValidationError) as raised:
        lower(spec)
    assert str(raised.value) == message


def test_each_chart_is_validated_once(monkeypatch):
    specs = [entry.spec() for entry in bundled_scenarios()]
    specs.extend(generate_corpus(40, master_seed=2000))
    charts = sum(
        len(list(spec_to_chart(spec, validate=False).walk_charts()))
        for spec in specs
    )
    checked = []
    structure = validation._validate_structure

    def counting(name, initial_state, outgoing):
        checked.append(name)
        return structure(name, initial_state, outgoing)

    monkeypatch.setattr(validation, "_validate_structure", counting)
    for spec in specs:
        spec_to_project([spec])
    assert charts == 219
    assert len(checked) == charts
