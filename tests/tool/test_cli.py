"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def project_path(tmp_path):
    path = tmp_path / "demo.json"
    assert main(["init-demo", str(path)]) == 0
    return path


class TestParser:
    def test_build_parser_lists_all_commands(self):
        from repro.cli import build_parser

        parser = build_parser()
        help_text = parser.format_help()
        for command in (
            "init-demo", "assess", "availability", "throughput",
            "breakdown", "sensitivity", "quantile", "recommend",
            "simulate", "campaign", "monitor", "corpus",
        ):
            assert command in help_text


class TestInitDemo:
    def test_writes_loadable_project(self, tmp_path, capsys):
        from repro.io import load_project

        path = tmp_path / "fresh.json"
        assert main(["init-demo", str(path)]) == 0
        assert "wrote demo project" in capsys.readouterr().out
        project = load_project(path)
        assert {w.name for w in project.workflows} == {
            "EP", "OrderProcessing",
        }


class TestAssess:
    def test_full_assessment(self, project_path, capsys):
        status = main(
            [
                "assess",
                "--project", str(project_path),
                "--config", "comm-server=1,wf-engine=2,app-server=3",
            ]
        )
        assert status == 0
        output = capsys.readouterr().out
        assert "Performance assessment" in output
        assert "Performability assessment" in output
        assert "unavailability" in output

    def test_bad_config_syntax(self, project_path, capsys):
        status = main(
            ["assess", "--project", str(project_path), "--config", "x"]
        )
        assert status == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_server_type_is_a_usage_error(
        self, project_path, capsys
    ):
        status = main(
            [
                "assess",
                "--project", str(project_path),
                "--config", "comm-server=1,wf-engine=2,app-server=3,bogus=4",
            ]
        )
        assert status == 2
        captured = capsys.readouterr()
        assert "unknown server type 'bogus' in --config" in captured.err
        assert "bogus" not in captured.out

    def test_missing_project_file(self, tmp_path, capsys):
        status = main(
            [
                "assess",
                "--project", str(tmp_path / "none.json"),
                "--config", "a=1",
            ]
        )
        assert status == 2
        assert "not found" in capsys.readouterr().err


class TestAvailability:
    def test_reports_downtime(self, project_path, capsys):
        status = main(
            [
                "availability",
                "--project", str(project_path),
                "--config", "comm-server=2,wf-engine=2,app-server=3",
            ]
        )
        assert status == 0
        output = capsys.readouterr().out
        assert "downtime/year" in output
        assert "per-type unavailability" in output


class TestThroughput:
    def test_reports_bottleneck(self, project_path, capsys):
        status = main(
            [
                "throughput",
                "--project", str(project_path),
                "--config", "comm-server=1,wf-engine=2,app-server=3",
            ]
        )
        assert status == 0
        output = capsys.readouterr().out
        assert "bottleneck: app-server" in output


class TestBreakdown:
    def test_shares_printed(self, project_path, capsys):
        status = main(["breakdown", "--project", str(project_path)])
        assert status == 0
        output = capsys.readouterr().out
        assert "Load breakdown" in output
        assert "EP" in output and "OrderProcessing" in output
        assert "%" in output


class TestSensitivity:
    def test_ranking_printed(self, project_path, capsys):
        status = main(
            [
                "sensitivity",
                "--project", str(project_path),
                "--config", "comm-server=1,wf-engine=1,app-server=1",
            ]
        )
        assert status == 0
        output = capsys.readouterr().out
        assert "unavailability reduction" in output
        # The least reliable type (app-server) comes first.
        lines = [l for l in output.splitlines() if l.strip().startswith("+1")]
        assert "app-server" in lines[0]


class TestQuantile:
    def test_default_quantiles(self, project_path, capsys):
        status = main(["quantile", "--project", str(project_path)])
        assert status == 0
        output = capsys.readouterr().out
        assert "P50=" in output and "P95=" in output
        assert "EP" in output

    def test_custom_quantile(self, project_path, capsys):
        status = main(
            [
                "quantile", "--project", str(project_path),
                "-p", "0.99",
            ]
        )
        assert status == 0
        assert "P99=" in capsys.readouterr().out

    def test_invalid_probability(self, project_path, capsys):
        status = main(
            [
                "quantile", "--project", str(project_path),
                "-p", "1.5",
            ]
        )
        assert status == 2
        assert "must lie in" in capsys.readouterr().err


class TestRecommend:
    @pytest.mark.parametrize(
        "algorithm", ["greedy", "branch_and_bound", "exhaustive"]
    )
    def test_algorithms_agree_on_cost(self, project_path, capsys, algorithm):
        status = main(
            [
                "recommend",
                "--project", str(project_path),
                "--max-waiting", "0.15",
                "--max-unavailability", "1e-5",
                "--algorithm", algorithm,
                "--max-total-servers", "12",
            ]
        )
        assert status == 0
        output = capsys.readouterr().out
        assert "cost: 7" in output
        assert "goals satisfied: True" in output

    def test_fix_option(self, project_path, capsys):
        status = main(
            [
                "recommend",
                "--project", str(project_path),
                "--max-unavailability", "1e-5",
                "--fix", "comm-server=3",
            ]
        )
        assert status == 0
        assert "comm-server=3" in capsys.readouterr().out

    def test_no_goals_is_a_usage_error(self, project_path, capsys):
        status = main(
            ["recommend", "--project", str(project_path)]
        )
        assert status == 2
        assert "at least one goal" in capsys.readouterr().err

    def test_json_output(self, project_path, capsys):
        status = main(
            [
                "recommend",
                "--project", str(project_path),
                "--max-waiting", "0.15",
                "--max-unavailability", "1e-5",
                "--max-total-servers", "12",
                "--json",
            ]
        )
        assert status == 0
        document = json.loads(capsys.readouterr().out)
        assert document["algorithm"] == "greedy"
        assert document["satisfied"] is True
        assert document["cost"] == 7
        assert sum(document["configuration"].values()) <= 12
        assert document["trace"]

    @pytest.mark.parametrize(
        ("entry", "message"),
        [
            ("app-server", "bad --fix entry 'app-server'"),
            ("app-server=x", "bad replica count in 'app-server=x'"),
            ("app-sever=3", "unknown server type 'app-sever' in --fix"),
        ],
        ids=["no-count", "bad-count", "unknown-type"],
    )
    def test_bad_fix_is_a_usage_error(
        self, project_path, capsys, entry, message
    ):
        # A malformed pin must not escape as a traceback, and a misspelt
        # type name must not be dropped, leaving the type unpinned.
        status = main(
            [
                "recommend",
                "--project", str(project_path),
                "--max-unavailability", "1e-5",
                "--fix", entry,
            ]
        )
        assert status == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.out == ""

    def test_workers_is_a_usage_error(self, project_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "recommend",
                    "--project", str(project_path),
                    "--max-unavailability", "1e-5",
                    "--workers", "2",
                ]
            )
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_infeasible_goals_exit_1_with_violations(
        self, project_path, capsys
    ):
        # Satellite: a search that runs but finds no goal-satisfying
        # configuration is exit status 1 (not 0, not usage-error 2)
        # and reports what was violated.
        arguments = [
            "recommend",
            "--project", str(project_path),
            "--max-waiting", "1e-9",
            "--max-total-servers", "4",
        ]
        assert main(arguments) == 1
        err = capsys.readouterr().err
        assert "best configuration found" in err
        assert "violated:" in err
        assert main(arguments + ["--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["satisfied"] is False
        assert document["violations"]
        assert document["violations"][0]["kind"] == "waiting_time"
        assert document["best_found"]["cost"] > 0

    def test_infeasible_exhaustive_also_exits_1(
        self, project_path, capsys
    ):
        status = main(
            [
                "recommend",
                "--project", str(project_path),
                "--max-waiting", "1e-9",
                "--max-total-servers", "4",
                "--algorithm", "exhaustive",
                "--json",
            ]
        )
        assert status == 1
        document = json.loads(capsys.readouterr().out)
        assert document["satisfied"] is False
        assert document["violations"]


class TestNoEvaluationCache:
    """``--no-evaluation-cache`` moves only the evaluation count.

    The uncached path memoizes no assessment, so it counts every visit
    of a candidate: a greedy walk visits each candidate once, and its
    documents are byte-equal; an annealing walk revisits candidates, and
    only its ``evaluations`` grows.
    """

    def _recommend(self, project_path, capsys, algorithm, *flags):
        status = main(
            [
                "recommend",
                "--project", str(project_path),
                "--max-waiting", "0.15",
                "--max-unavailability", "1e-5",
                "--algorithm", algorithm,
                "--json",
                *flags,
            ]
        )
        assert status == 0
        return capsys.readouterr().out

    def test_greedy_documents_are_byte_equal(self, project_path, capsys):
        cached = self._recommend(project_path, capsys, "greedy")
        uncached = self._recommend(
            project_path, capsys, "greedy", "--no-evaluation-cache"
        )
        assert uncached == cached

    def test_annealing_counts_every_revisit_uncached(
        self, project_path, capsys
    ):
        cached = json.loads(
            self._recommend(project_path, capsys, "simulated_annealing")
        )
        uncached = json.loads(
            self._recommend(
                project_path, capsys, "simulated_annealing",
                "--no-evaluation-cache",
            )
        )
        assert uncached["evaluations"] > cached["evaluations"]
        assert {**uncached, "evaluations": None} == {
            **cached, "evaluations": None
        }


class TestRecommendFrontier:
    ARGUMENTS = [
        "--max-waiting", "0.5",
        "--max-unavailability", "1e-4",
        "--max-total-servers", "10",
    ]

    def test_prints_ranked_trade_off_table(self, project_path, capsys):
        status = main(
            ["recommend", "--project", str(project_path), "--frontier"]
            + self.ARGUMENTS
        )
        assert status == 0
        output = capsys.readouterr().out
        assert "Pareto frontier" in output
        assert "rank" in output
        assert "Recommended (cheapest satisfying)" in output

    def test_json_document_seed_stable(self, project_path, capsys):
        arguments = (
            ["recommend", "--project", str(project_path), "--frontier",
             "--seed", "7", "--json"]
            + self.ARGUMENTS
        )
        assert main(arguments) == 0
        first = capsys.readouterr().out
        assert main(arguments) == 0
        second = capsys.readouterr().out
        assert first == second
        document = json.loads(first)
        assert document["schema"] == "repro.search.frontier/v1"
        assert document["seed"] == 7
        assert document["points"]
        assert document["recommended"]["satisfied"] is True
        # Ranked by cost, and the recommendation is the cheapest point.
        costs = [p["cost"] for p in document["points"]]
        assert costs == sorted(costs)
        assert document["recommended"]["cost"] == costs[0]

    def test_objectives_subset(self, project_path, capsys):
        arguments = (
            ["recommend", "--project", str(project_path), "--frontier",
             "--json",
             "--objectives", "cost", "--objectives", "unavailability"]
            + self.ARGUMENTS
        )
        assert main(arguments) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["objectives"] == ["cost", "unavailability"]

    def test_frontier_contains_single_objective_result(
        self, project_path, capsys
    ):
        goal_arguments = [
            "--project", str(project_path),
            "--max-waiting", "0.15",
            "--max-unavailability", "1e-5",
            "--max-total-servers", "12",
            "--json",
        ]
        assert main(
            ["recommend", "--algorithm", "exhaustive"] + goal_arguments
        ) == 0
        exact = json.loads(capsys.readouterr().out)
        assert main(["recommend", "--frontier"] + goal_arguments) == 0
        frontier = json.loads(capsys.readouterr().out)
        configurations = [
            p["configuration"] for p in frontier["points"]
        ]
        assert exact["configuration"] in configurations
        assert frontier["recommended"]["cost"] == exact["cost"]

    def test_infeasible_frontier_exits_1(self, project_path, capsys):
        status = main(
            [
                "recommend",
                "--project", str(project_path),
                "--frontier",
                "--max-waiting", "1e-9",
                "--max-total-servers", "4",
                "--json",
            ]
        )
        assert status == 1
        document = json.loads(capsys.readouterr().out)
        assert document["satisfied"] is False
        assert document["violations"]


class TestSimulate:
    def test_runs_demo_project(self, project_path, capsys):
        status = main(
            [
                "simulate",
                "--project", str(project_path),
                "--config", "comm-server=2,wf-engine=2,app-server=3",
                "--duration", "200",
                "--warmup", "20",
                "--seed", "5",
            ]
        )
        assert status == 0
        output = capsys.readouterr().out
        assert "Simulation report" in output
        assert "EP" in output and "OrderProcessing" in output
        assert "simulator events executed:" in output

    def test_no_failures_flag_reports_full_availability(
        self, project_path, capsys
    ):
        status = main(
            [
                "simulate",
                "--project", str(project_path),
                "--config", "comm-server=1,wf-engine=1,app-server=1",
                "--duration", "200",
                "--no-failures",
            ]
        )
        assert status == 0
        assert "unavailability" in capsys.readouterr().out


class TestObservability:
    def test_recommend_writes_metrics_json(
        self, project_path, tmp_path, capsys
    ):
        metrics_path = tmp_path / "metrics.json"
        status = main(
            [
                "recommend",
                "--project", str(project_path),
                "--max-waiting", "0.15",
                "--max-unavailability", "1e-5",
                "--metrics-out", str(metrics_path),
            ]
        )
        assert status == 0
        assert "wrote metrics to" in capsys.readouterr().out
        document = json.loads(metrics_path.read_text())
        assert document["schema"] == "repro.obs/v1"
        metrics = document["metrics"]
        # Solver and search counters were exercised by the run.
        assert metrics["configuration.candidates_evaluated"]["value"] > 0
        assert metrics["performability.evaluations"]["value"] > 0
        # Per-stage span timings are aggregated by name.
        assert document["spans"]["configuration.search"]["count"] >= 1
        assert document["spans"]["configuration.search"]["total_s"] > 0.0

    def test_simulate_metrics_include_event_counts(
        self, project_path, tmp_path, capsys
    ):
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.jsonl"
        status = main(
            [
                "simulate",
                "--project", str(project_path),
                "--config", "comm-server=2,wf-engine=2,app-server=3",
                "--duration", "200",
                "--metrics-out", str(metrics_path),
                "--trace-out", str(trace_path),
            ]
        )
        assert status == 0
        output = capsys.readouterr().out
        assert "wrote metrics to" in output
        assert "trace records to" in output
        document = json.loads(metrics_path.read_text())
        metrics = document["metrics"]
        assert metrics["sim.events_executed"]["value"] > 0
        assert metrics["wfms.requests_submitted"]["value"] > 0
        assert document["spans"]["wfms.run"]["count"] == 1
        # Every trace line is one valid JSON object.
        lines = trace_path.read_text().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert record["type"] in {"span", "event"}

    def test_verbose_prints_run_report(self, project_path, capsys):
        status = main(
            [
                "assess",
                "--project", str(project_path),
                "--config", "comm-server=1,wf-engine=2,app-server=3",
                "--verbose",
            ]
        )
        assert status == 0
        output = capsys.readouterr().out
        assert "Observability run report" in output

    def test_unwritable_metrics_path_is_a_clean_error(
        self, project_path, tmp_path, capsys
    ):
        status = main(
            [
                "breakdown",
                "--project", str(project_path),
                "--metrics-out", str(tmp_path / "no-such-dir" / "m.json"),
            ]
        )
        assert status == 2
        assert "error:" in capsys.readouterr().err

    def test_observability_is_off_by_default(self, project_path, capsys):
        from repro import obs

        status = main(
            [
                "assess",
                "--project", str(project_path),
                "--config", "comm-server=1,wf-engine=2,app-server=3",
            ]
        )
        assert status == 0
        assert not obs.is_enabled()
        assert "Observability" not in capsys.readouterr().out


@pytest.fixture
def trail_path(tmp_path):
    from repro.monitor.audit import (
        AuditTrail,
        InstanceRecord,
        StateVisitRecord,
    )
    from repro.monitor.persistence import save_trail

    trail = AuditTrail()
    for i in range(40):
        start = float(i)
        trail.record_state_visit(
            StateVisitRecord(
                instance_id=i, workflow_type="wf", state="a",
                entered_at=start, left_at=start + 0.5,
                next_state="__TERMINATED__",
            )
        )
        trail.record_instance(
            InstanceRecord(
                instance_id=i, workflow_type="wf",
                started_at=start, completed_at=start + 0.5,
            )
        )
    path = tmp_path / "trail.jsonl"
    save_trail(trail, path)
    return path


class TestMonitor:
    def test_replay_prints_estimates_and_verdict(self, trail_path, capsys):
        status = main(["monitor", "--trail", str(trail_path)])
        assert status == 0
        output = capsys.readouterr().out
        assert "Replayed 80 audit records" in output
        assert "workflow wf:" in output
        assert "Drift verdict" in output
        assert "no drift confirmed" in output

    def test_json_document(self, trail_path, capsys):
        status = main(["monitor", "--trail", str(trail_path), "--json"])
        assert status == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.monitor.replay/v1"
        assert document["estimates"]["records_seen"] == 80
        assert document["drift"]["has_drift"] is False
        assert (
            document["estimates"]["workflow_types"]["wf"][
                "completed_instances"
            ]
            == 40
        )

    def test_missing_trail_is_a_clean_error(self, tmp_path, capsys):
        status = main(
            ["monitor", "--trail", str(tmp_path / "none.jsonl")]
        )
        assert status == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["window", "observation-period"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-5"])
    def test_bad_window_or_period_exits_2(
        self, trail_path, tmp_path, capsys, flag, value
    ):
        # A bad window fails before the trail is read: here it does not
        # exist, which a later check would report instead.
        trail = tmp_path / "none.jsonl" if flag == "window" else trail_path
        status = main(
            ["monitor", "--trail", str(trail), f"--{flag}={value}", "--json"]
        )
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert f"{flag.replace('-', ' ')} must be positive and finite" in (
            captured.err
        )

    def test_overflowing_observed_span_exits_2(self, tmp_path, capsys):
        # Two valid instance rows about 3.4e308 apart: the default
        # observation period overflows to inf, which JSON cannot hold.
        trail = tmp_path / "far_apart.jsonl"
        trail.write_text("".join(
            json.dumps({
                "completed_at": at, "instance_id": i, "kind": "instance",
                "started_at": at, "workflow_type": "wf",
            }) + "\n"
            for i, at in enumerate((-1.7e308, 1.7e308))
        ))
        status = main(["monitor", "--trail", str(trail), "--json"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert (
            "observation period must be positive and finite, got inf"
            in captured.err
        )

    def test_bundled_sample_trail_replays_clean(self, capsys):
        from pathlib import Path

        sample = (
            Path(__file__).resolve().parents[2]
            / "examples" / "data" / "sample_trail.jsonl"
        )
        status = main(["monitor", "--trail", str(sample), "--json"])
        assert status == 0
        document = json.loads(capsys.readouterr().out)
        assert document["estimates"]["records_seen"] > 0


class TestServeMetrics:
    def test_serves_while_the_command_runs(self, trail_path, capsys):
        from repro import obs

        status = main(
            [
                "monitor",
                "--trail", str(trail_path),
                "--serve-metrics", "0",
                "--json",
            ]
        )
        assert status == 0
        captured = capsys.readouterr()
        assert "serving metrics on http://127.0.0.1:" in captured.err
        json.loads(captured.out)  # --json output stays clean
        assert not obs.is_enabled()  # switch restored afterwards


class TestServe:
    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_bad_window_exits_2_before_binding(
        self, project_path, capsys, monkeypatch, value
    ):
        from repro import obs
        from repro.service.server import RecommendationService

        def bind(self):
            raise AssertionError("the service started")

        monkeypatch.setattr(RecommendationService, "start", bind)
        try:
            status = main([
                "serve", "--project", str(project_path),
                "--goals", "max-waiting=0.5", f"--window={value}",
            ])
        finally:
            obs.disable()  # serve switches instrumentation on itself
        assert status == 2
        assert "window must be positive and finite" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("enabled", [False, True])
    def test_bad_window_leaves_instrumentation_as_found(
        self, project_path, enabled
    ):
        from repro import obs

        (obs.enable if enabled else obs.disable)()
        try:
            status = main([
                "serve", "--project", str(project_path),
                "--goals", "max-waiting=0.5", "--window=nan",
            ])
            assert status == 2
            assert obs.is_enabled() is enabled
        finally:
            obs.disable()
