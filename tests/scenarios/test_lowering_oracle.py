"""Lowering a spec straight to a definition equals the chart detour.

``spec_to_definition`` assembles the :class:`WorkflowDefinition` from the
lowering's validated edges without building a state chart.  The oracle
is the detour it replaced: ``translate_chart(spec_to_chart(spec),
spec_to_registry(spec))``.  Over the registry specs and a seeded corpus
(219 charts and regions, parallel and subworkflow regions included) both
must agree recursively: state order, activity objects, durations, the
transitions in insertion order, and every float to the bit.
"""

from repro.scenarios import (
    bundled_scenarios,
    generate_corpus,
    spec_to_chart,
    spec_to_definition,
    spec_to_project,
    spec_to_registry,
)
from repro.spec.events import And, ECARule, TrueGuard
from repro.spec.statechart import ChartState, ChartTransition, StateChart
from repro.spec.translator import translate_chart

SPECS = [entry.spec() for entry in bundled_scenarios()]
SPECS.extend(generate_corpus(40, master_seed=2000))


def _bits(value):
    return None if value is None else float(value).hex()


def _assert_same(direct, oracle):
    assert direct.name == oracle.name
    assert direct.initial_state == oracle.initial_state
    assert [
        (key, _bits(probability))
        for key, probability in direct.transitions.items()
    ] == [
        (key, _bits(probability))
        for key, probability in oracle.transitions.items()
    ]
    assert [state.name for state in direct.states] == [
        state.name for state in oracle.states
    ]
    for mine, theirs in zip(direct.states, oracle.states):
        assert mine.activity == theirs.activity
        assert _bits(mine.mean_duration) == _bits(theirs.mean_duration)
        assert len(mine.subworkflows) == len(theirs.subworkflows)
        for child, oracle_child in zip(mine.subworkflows, theirs.subworkflows):
            _assert_same(child, oracle_child)


def test_direct_definition_equals_translated_chart():
    charts = 0
    for spec in SPECS:
        chart = spec_to_chart(spec)
        charts += len(list(chart.walk_charts()))
        oracle = translate_chart(chart, spec_to_registry(spec))
        direct = spec_to_definition(spec)
        _assert_same(direct, oracle)
        assert direct == oracle
    assert charts == 219


def test_spec_to_project_builds_no_chart(monkeypatch):
    built = []
    probes = (
        (StateChart, "__post_init__"),
        (ChartState, "__post_init__"),
        (ChartTransition, "__post_init__"),
        (ECARule, "__post_init__"),
        (And, "__init__"),
        (TrueGuard, "__init__"),
    )
    for cls, method in probes:
        original = getattr(cls, method)

        def recording(self, *args, _cls=cls, _original=original, **kwargs):
            built.append(_cls.__name__)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, recording)
    for spec in SPECS:
        spec_to_project([spec])
    assert built == []
    # The probes see the chart path.
    spec_to_chart(SPECS[0])
    assert {"StateChart", "ChartState", "ChartTransition", "ECARule",
            "TrueGuard"} <= set(built)
