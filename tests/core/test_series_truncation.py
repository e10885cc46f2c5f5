"""The paper's truncated visit series against the exact fundamental matrix.

Section 4.2.1 sums taboo probabilities of the uniformized chain up to
``z_max``, the depth by which the chain has been absorbed with
probability ``confidence``.  Truncation can only drop visits, and what it
drops is bounded: the chain survives ``z_max`` steps with probability at
most ``1 - confidence``, and a surviving chain makes at most
``max_a sum_b N[a, b]`` further visits, ``N`` being the embedded chain's
fundamental matrix.  Checked on every chain of the registry scenarios and
the seed-2000 generated corpus, nested regions included.
"""

import numpy as np
import pytest

from repro.core.workflow_model import build_workflow_ctmc
from repro.scenarios import (
    bundled_scenarios,
    generate_corpus,
    spec_to_definition,
)

CONFIDENCE = 0.99


def _definitions(definition):
    """A definition and, depth-first, every nested subworkflow."""
    yield definition
    for state in definition.states:
        for child in state.subworkflows:
            yield from _definitions(child)


def _chains():
    specs = [entry.spec() for entry in bundled_scenarios()]
    specs.extend(generate_corpus(40, master_seed=2000))
    return [
        build_workflow_ctmc(definition, spec.server_types).chain
        for spec in specs
        for definition in _definitions(spec_to_definition(spec))
    ]


@pytest.fixture(scope="module")
def chains():
    return _chains()


def test_corpus_has_one_chain_per_chart(chains):
    assert len(chains) == 219


def test_series_visits_bounded_by_fundamental_matrix(chains):
    worst = 0.0
    for chain in chains:
        exact = chain.expected_visits("fundamental")
        series = chain.expected_visits("series", confidence=CONFIDENCE)
        assert np.all(series <= exact + 1e-12)
        steps = chain.embedded_chain.fundamental_matrix().sum(axis=1)
        bound = (1.0 - CONFIDENCE) * float(steps.max())
        shortfall = float((exact - series).sum())
        assert shortfall <= bound, chain.state_names
        worst = max(worst, shortfall / bound)
    # The bound is not vacuous: some chain uses a good part of it.
    assert worst > 0.1
