"""CLI tests: the corpus subcommand and --spec study inputs."""

import json

import pytest

from repro.cli import main
from repro.scenarios import (
    bundled_scenarios,
    generate_spec,
    save_spec,
    spec_to_dict,
)


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "gen.spec.json"
    save_spec(generate_spec(0, index=0), path)
    return path


@pytest.fixture
def wfcommons_path(tmp_path):
    document = {
        "name": "wfc-mini",
        "workflow": {
            "specification": {
                "tasks": [
                    {"id": "split", "parents": []},
                    {"id": "work_1", "parents": ["split"]},
                    {"id": "work_2", "parents": ["split"]},
                    {"id": "merge", "parents": ["work_1", "work_2"]},
                ]
            },
            "execution": {
                "tasks": [
                    {"id": "split", "runtimeInSeconds": 30.0},
                    {"id": "work_1", "runtimeInSeconds": 120.0},
                    {"id": "work_2", "runtimeInSeconds": 90.0},
                    {"id": "merge", "runtimeInSeconds": 15.0},
                ]
            },
        },
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(document))
    return path


class TestCorpusGenerate:
    def test_writes_spec_files(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        status = main([
            "corpus", "generate", "--count", "4", "--seed", "7",
            "--out", str(out),
        ])
        assert status == 0
        assert sorted(p.name for p in out.glob("*.spec.json")) == [
            "Gen0.spec.json", "Gen1.spec.json",
            "Gen2.spec.json", "Gen3.spec.json",
        ]
        assert "wrote 4 specs" in capsys.readouterr().out

    def test_generation_is_deterministic(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        for out in (first, second):
            assert main([
                "corpus", "generate", "--count", "2", "--seed", "3",
                "--out", str(out),
            ]) == 0
        for name in ("Gen0.spec.json", "Gen1.spec.json"):
            assert (first / name).read_text() == (second / name).read_text()

    def test_family_and_prefix_options(self, tmp_path):
        out = tmp_path / "pareto"
        assert main([
            "corpus", "generate", "--count", "1", "--out", str(out),
            "--family", "pareto", "--prefix", "Heavy",
            "--landscape", "extended",
        ]) == 0
        document = json.loads((out / "Heavy0.spec.json").read_text())
        assert len(document["server_types"]) == 5


class TestCorpusDescribe:
    def test_mixed_inputs(self, spec_path, capsys):
        status = main([
            "corpus", "describe", "--scenario", "ecommerce",
            "--spec", str(spec_path), "--generated", "2",
        ])
        assert status == 0
        output = capsys.readouterr().out
        assert "EP" in output
        assert "Gen0" in output

    def test_no_inputs_is_an_error(self, capsys):
        assert main(["corpus", "describe"]) == 2
        assert "--spec FILE" in capsys.readouterr().err

    def test_unknown_scenario(self, capsys):
        assert main(["corpus", "describe", "--scenario", "nope"]) == 2


class TestCorpusAssess:
    def test_scenario_assessment(self, capsys):
        status = main(["corpus", "assess", "--scenario", "loan"])
        assert status == 0
        output = capsys.readouterr().out
        assert "LoanApproval" in output
        assert "turnaround" in output

    def test_wfcommons_assessment(self, wfcommons_path, capsys):
        status = main(["corpus", "assess", "--spec", str(wfcommons_path)])
        assert status == 0
        assert "wfc-mini" in capsys.readouterr().out


class TestStudyInputs:
    def test_recommend_with_spec(self, spec_path, capsys):
        status = main([
            "recommend", "--spec", str(spec_path),
            "--max-waiting", "5", "--max-unavailability", "1e-4",
        ])
        assert status == 0
        assert "Recommended configuration" in capsys.readouterr().out

    def test_recommend_with_wfcommons_spec(self, wfcommons_path, capsys):
        status = main([
            "recommend", "--spec", str(wfcommons_path),
            "--arrival-rate", "0.05", "--max-waiting", "5",
            "--max-unavailability", "1e-4",
        ])
        assert status == 0
        assert "Recommended configuration" in capsys.readouterr().out

    def test_simulate_with_spec(self, spec_path, capsys):
        status = main([
            "simulate", "--spec", str(spec_path),
            "--config", "comm-server=2,wf-engine=2,app-server=2",
            "--duration", "200",
        ])
        assert status == 0
        assert "Simulation report" in capsys.readouterr().out

    def test_campaign_with_spec(self, spec_path, capsys):
        status = main([
            "campaign", "--spec", str(spec_path),
            "--config", "comm-server=2,wf-engine=2,app-server=2",
            "--duration", "100", "-n", "2",
        ])
        assert status == 0
        assert "Campaign" in capsys.readouterr().out

    def test_project_and_spec_are_exclusive(self, spec_path, tmp_path,
                                            capsys):
        project = tmp_path / "demo.json"
        assert main(["init-demo", str(project)]) == 0
        status = main([
            "recommend", "--project", str(project),
            "--spec", str(spec_path), "--max-waiting", "5",
        ])
        assert status == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_neither_project_nor_spec(self, capsys):
        status = main(["recommend", "--max-waiting", "5"])
        assert status == 2
        assert "--project FILE or --spec FILE" in capsys.readouterr().err

    def test_missing_spec_file(self, tmp_path, capsys):
        absent = tmp_path / "absent.json"
        status = main(["corpus", "assess", "--spec", str(absent)])
        assert status == 2
        assert f"error: spec file not found: {absent}" in (
            capsys.readouterr().err
        )

    def test_service_time_whose_square_overflows(self, tmp_path, capsys):
        # A finite mean past sqrt(max float) used to end in a traceback
        # (OverflowError, exit 1) when its square was taken.
        document = spec_to_dict(bundled_scenarios()[0].spec())
        document["server_types"][0]["mean_service_time"] = 1e160
        path = tmp_path / "huge.spec.json"
        path.write_text(json.dumps(document))
        status = main([
            "recommend", "--spec", str(path), "--max-waiting", "5",
            "--max-unavailability", "1e-4",
        ])
        assert status == 2
        name = document["server_types"][0]["name"]
        assert capsys.readouterr().err == (
            f"error: {name}: mean service time 1e+160 is too large: its "
            "square must be finite\n"
        )

    def test_invalid_json_spec_file(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text("not json")
        status = main([
            "recommend", "--spec", str(broken), "--max-waiting", "5",
        ])
        assert status == 2
        assert f"error: invalid JSON in {broken}: " in (
            capsys.readouterr().err
        )
