"""The shipped starter corpus under ``examples/data/corpus/`` stays valid."""

import json
from pathlib import Path

import pytest

from repro.io.wfcommons import wfcommons_to_spec
from repro.scenarios import (
    generate_spec,
    load_spec,
    spec_to_chart,
    spec_to_ctmc,
)

CORPUS_DIR = (
    Path(__file__).resolve().parent.parent.parent
    / "examples" / "data" / "corpus"
)
SPEC_FILES = sorted(CORPUS_DIR.glob("*.spec.json"))


class TestStarterCorpus:
    def test_corpus_is_shipped(self):
        assert len(SPEC_FILES) == 5

    @pytest.mark.parametrize(
        "path", SPEC_FILES, ids=lambda p: p.stem
    )
    def test_spec_loads_and_assesses(self, path):
        spec = load_spec(path)
        chart = spec_to_chart(spec)
        assert len(chart.final_states) == 1
        assert spec_to_ctmc(spec).turnaround_time() > 0.0

    def test_corpus_matches_its_seed(self):
        # The shipped files are exactly `corpus generate --count 5
        # --seed 42 --prefix Corpus`; regenerating must reproduce them.
        for index, path in enumerate(SPEC_FILES):
            from repro.scenarios import GeneratorConfig, spec_to_json

            config = GeneratorConfig(name_prefix="Corpus")
            regenerated = generate_spec(42, index=index, config=config)
            assert spec_to_json(regenerated) == path.read_text()

    def test_wfcommons_sample_imports(self):
        path = CORPUS_DIR / "wfcommons_epigenomics_sample.json"
        spec = wfcommons_to_spec(
            json.loads(path.read_text()), arrival_rate=0.05
        )
        assert spec.name == "epigenomics-test"
        assert spec_to_ctmc(spec).turnaround_time() > 0.0
