"""Workflow chains keep their numbers, and solve turnarounds on demand.

``TestChainDigest`` pins one sha256 over every chain that the five
registry specs and a seeded 40-spec corpus lower to (the 219 charts and
regions of ``tests/scenarios/test_lowering_oracle.py``): each chain's
turnaround, request vector, jump matrix, residence times and load
matrix, as raw float bytes with their shapes.  A change to how a chain
is built must leave every one of those bits where it was.

``PerformanceModel`` computes the request counts (§4.2) when it is
built and a turnaround (§4.1, a first-passage solve) only when one is
read; the configuration search reads request rates alone.  A malformed
chain still fails when the model is built.
"""

import hashlib

import numpy as np
import pytest

from repro.core import linalg
from repro.core.model_types import ActivitySpec, ServerTypeIndex, ServerTypeSpec
from repro.core.performance import PerformanceModel, Workload, WorkloadItem
from repro.core.workflow_model import (
    WorkflowDefinition,
    WorkflowState,
    build_workflow_ctmc,
)
from repro.exceptions import ModelError, ValidationError
from repro.scenarios import (
    bundled_scenarios,
    generate_corpus,
    spec_to_definition,
    spec_to_project,
)

SPECS = [entry.spec() for entry in bundled_scenarios()]
SPECS.extend(generate_corpus(40, master_seed=2000))

#: sha256 of every chain's numbers, in the walk order of ``_chains``.
CHAIN_DIGEST = (
    "196bf3bcc8ae04861caac0079b138de74c3dc4ff8b83f41400789fb9e3d7e983"
)


def _definitions(definition):
    """The definition and all its subworkflow definitions, depth first."""
    yield definition
    for state in definition.states:
        for child in state.subworkflows:
            yield from _definitions(child)


def _chains():
    for spec in SPECS:
        for definition in _definitions(spec_to_definition(spec)):
            yield build_workflow_ctmc(definition, spec.server_types)


def _update(digest, array):
    array = np.asarray(array)
    digest.update(repr((array.dtype.str, array.shape)).encode())
    digest.update(array.tobytes())


class TestChainDigest:
    def test_every_chain_keeps_its_bits(self):
        digest = hashlib.sha256()
        chains = 0
        for model in _chains():
            chains += 1
            digest.update(model.definition.name.encode())
            _update(digest, np.float64(model.turnaround_time()))
            _update(digest, model.requests_per_instance())
            _update(digest, model.chain.jump_probabilities)
            _update(digest, model.chain.residence_times)
            _update(digest, model.load_matrix)
        assert chains == 219
        assert digest.hexdigest() == CHAIN_DIGEST


def _ecommerce_model():
    project = spec_to_project(
        [next(e for e in bundled_scenarios() if e.name == "ecommerce").spec()]
    )
    return project, PerformanceModel(project.server_types, project.workload())


@pytest.fixture
def solves(monkeypatch):
    """One entry per ``linalg.solve_linear`` call from here on."""
    calls = []
    solve = linalg.solve_linear

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(linalg, "solve_linear", counting)
    return calls


class TestTurnaroundOnDemand:
    def test_model_construction_solves_no_first_passage_system(self, solves):
        project, model = _ecommerce_model()
        (definition,) = project.workflows
        assert any(state.subworkflows for state in definition.states)
        assert solves == []
        turnaround = model.turnaround_time(definition.name)
        assert solves
        reference = build_workflow_ctmc(
            definition, project.server_types
        ).turnaround_time()
        assert turnaround.hex() == reference.hex()

    def test_turnaround_is_solved_once(self, solves):
        project, model = _ecommerce_model()
        (definition,) = project.workflows
        first = model.turnaround_time(definition.name)
        solves.clear()
        assert model.turnaround_time(definition.name) == first
        assert model.active_instances(definition.name) == (
            project.arrival_rates[definition.name] * first
        )
        assert solves == []


SERVER_TYPES = ServerTypeIndex([ServerTypeSpec("comm", 0.1)])


def _model_of(definition):
    return PerformanceModel(
        SERVER_TYPES, Workload([WorkloadItem(definition, 1.0)])
    )


def _trapped_loop():
    # a <-> b never reaches the final state c.
    return WorkflowDefinition(
        name="trapped",
        states=(
            WorkflowState("a", mean_duration=1.0),
            WorkflowState("b", mean_duration=1.0),
            WorkflowState("c", mean_duration=1.0),
        ),
        transitions={("a", "b"): 1.0, ("b", "a"): 1.0},
        initial_state="a",
    )


def _certain_self_loop():
    return WorkflowDefinition(
        name="stuck",
        states=(
            WorkflowState("a", mean_duration=1.0),
            WorkflowState("b", mean_duration=1.0),
        ),
        transitions={("a", "a"): 1.0},
        initial_state="a",
    )


def _unknown_load():
    activity = ActivitySpec("work", 1.0, loads={"mainframe": 1.0})
    return WorkflowDefinition(
        name="unknown-load",
        states=(WorkflowState("a", activity=activity),),
        transitions={},
        initial_state="a",
    )


def _in_region(child):
    return WorkflowDefinition(
        name=f"outer-{child.name}",
        states=(
            WorkflowState("par", subworkflows=(child,)),
            WorkflowState("end", mean_duration=1.0),
        ),
        transitions={("par", "end"): 1.0},
        initial_state="par",
    )


MALFORMED = [
    (
        _trapped_loop,
        ModelError,
        "absorption is not certain: states cannot reach an absorbing "
        "state: ['a', 'b']",
    ),
    (
        _certain_self_loop,
        ValidationError,
        "state 0 is a self-loop trap (p_aa = 1.0); the workflow can "
        "never leave it",
    ),
    (
        _unknown_load,
        ModelError,
        "activity work loads unknown server types ['mainframe']",
    ),
]


class TestMalformedChainsFailAtConstruction:
    @pytest.mark.parametrize(
        ("factory", "error", "message"), MALFORMED,
        ids=["trapped-loop", "certain-self-loop", "unknown-server-type"],
    )
    def test_top_level(self, factory, error, message):
        with pytest.raises(error) as raised:
            _model_of(factory())
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        ("factory", "error", "message"), MALFORMED,
        ids=["trapped-loop", "certain-self-loop", "unknown-server-type"],
    )
    def test_in_a_region(self, factory, error, message):
        with pytest.raises(error) as raised:
            _model_of(_in_region(factory()))
        assert str(raised.value) == message
