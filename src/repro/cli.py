"""Command-line interface to the configuration tool.

Operates on a *project file* (JSON: server types, workflow definitions,
arrival rates — see :mod:`repro.io`) and exposes the tool's evaluation
and recommendation functions:

.. code-block:: console

   $ python -m repro.cli init-demo study.json
   $ python -m repro.cli assess --project study.json \\
         --config comm-server=1,wf-engine=2,app-server=3
   $ python -m repro.cli recommend --project study.json \\
         --max-waiting 0.15 --max-unavailability 1e-5
   $ python -m repro.cli availability --project study.json \\
         --config comm-server=2,wf-engine=2,app-server=3

Exit status 0 on success, 1 when ``recommend`` finds no admissible
configuration satisfying the goals, 2 on usage/validation errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro import obs
from repro.core.availability import AvailabilityModel
from repro.core.configuration import SEARCHES, ReplicationConstraints
from repro.core.evaluation_cache import EvaluationCache
from repro.core.goals import GoalEvaluator, PerformabilityGoals
from repro.core.model_types import ServerTypeIndex
from repro.core.performance import PerformanceModel, SystemConfiguration
from repro.core.performability import PerformabilityModel
from repro.exceptions import (
    InfeasibleConfigurationError,
    ReproError,
    ValidationError,
)
from repro.io import Project, load_project, save_project
from repro.scenarios.generator import LANDSCAPES, SERVICE_TIME_FAMILIES

def _parse_configuration(
    text: str, server_types: ServerTypeIndex, flag: str = "--config"
) -> SystemConfiguration:
    """Parse ``name=count,name=count`` into a configuration.

    Every name must be a server type of the study's landscape, so a
    typo is a usage error rather than a silently ignored entry.
    """
    replicas: dict[str, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValidationError(
                f"bad {flag} entry {part!r}; expected name=count"
            )
        name, _, count = part.partition("=")
        name = name.strip()
        if name not in server_types.names:
            raise ValidationError(
                f"unknown server type {name!r} in {flag}; known: "
                + ", ".join(server_types.names)
            )
        try:
            replicas[name] = int(count)
        except ValueError:
            raise ValidationError(
                f"bad replica count in {part!r}"
            ) from None
    if not replicas:
        raise ValidationError(f"{flag} must name at least one server type")
    return SystemConfiguration(replicas)


def _performance_model(project: Project) -> PerformanceModel:
    return PerformanceModel(project.server_types, project.workload())


def _load_spec_file(path: str, default_rate: float):
    """Load one spec file: WorkflowSpec JSON or a WfCommons instance.

    The format is sniffed from the document: WfCommons instances carry a
    top-level ``workflow`` object, spec files a ``body`` block.  Specs
    without an arrival rate get ``default_rate``; specs without a server
    landscape get the standard three-type one.
    """
    import dataclasses
    import json

    from repro.io.wfcommons import wfcommons_to_spec
    from repro.scenarios.spec import ArrivalSpec, spec_from_dict

    try:
        document = json.loads(open(path).read())
    except FileNotFoundError:
        raise ValidationError(f"spec file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON in {path}: {exc}") from exc
    if isinstance(document, dict) and "workflow" in document:
        spec = wfcommons_to_spec(document)
    else:
        spec = spec_from_dict(document)
    if spec.server_types is None:
        from repro.workflows.common import standard_server_types

        spec = dataclasses.replace(
            spec, server_types=standard_server_types()
        )
    if spec.arrival.rate <= 0.0 and default_rate > 0.0:
        spec = dataclasses.replace(
            spec, arrival=ArrivalSpec(rate=default_rate)
        )
    return spec


def _load_study(args: argparse.Namespace) -> Project:
    """Resolve ``--project`` / ``--spec`` into a project bundle."""
    specs = getattr(args, "spec", None)
    project_path = getattr(args, "project", None)
    if specs:
        if project_path:
            raise ValidationError(
                "--project and --spec are mutually exclusive"
            )
        from repro.scenarios import spec_to_project

        default_rate = getattr(args, "arrival_rate", 0.0) or 0.0
        return spec_to_project(
            _load_spec_file(path, default_rate) for path in specs
        )
    if not project_path:
        raise ValidationError("pass --project FILE or --spec FILE")
    return load_project(project_path)


def _goals_from_args(args: argparse.Namespace) -> PerformabilityGoals:
    return PerformabilityGoals(
        max_waiting_time=args.max_waiting,
        max_unavailability=args.max_unavailability,
    )


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def _cmd_init_demo(args: argparse.Namespace) -> int:
    from repro.workflows import (
        ecommerce_workflow,
        order_processing_workflow,
        standard_server_types,
    )

    project = Project(
        server_types=standard_server_types(),
        workflows=(ecommerce_workflow(), order_processing_workflow()),
        arrival_rates={"EP": 0.4, "OrderProcessing": 0.2},
    )
    save_project(project, args.path)
    print(f"wrote demo project (EP + OrderProcessing) to {args.path}")
    return 0


def _cmd_assess(args: argparse.Namespace) -> int:
    project = load_project(args.project)
    configuration = _parse_configuration(args.config, project.server_types)
    performance = _performance_model(project)
    print(performance.assess(configuration).format_text())

    availability = AvailabilityModel(project.server_types, configuration)
    print(
        f"\nSystem unavailability: {availability.unavailability():.3e} "
        f"(~{availability.downtime_per_year('hours'):.2f} hours/year)"
    )
    performability = PerformabilityModel(performance, availability)
    print()
    print(performability.expected_waiting_times().format_text())
    return 0


def _cmd_availability(args: argparse.Namespace) -> int:
    project = load_project(args.project)
    configuration = _parse_configuration(args.config, project.server_types)
    model = AvailabilityModel(project.server_types, configuration)
    print(f"Configuration {configuration}")
    print(f"  system unavailability: {model.unavailability():.6e}")
    for unit in ("hours", "minutes", "seconds"):
        print(
            f"  downtime/year: {model.downtime_per_year(unit):12.4f} {unit}"
        )
    print("  per-type unavailability:")
    for name, value in model.per_type_unavailability().items():
        print(f"    {name:20s} {value:.6e}")
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    import json

    project = _load_study(args)
    cache = EvaluationCache(enabled=not args.no_evaluation_cache)
    evaluator = GoalEvaluator(_performance_model(project), cache=cache)
    goals = _goals_from_args(args)
    fixed = (
        _parse_configuration(
            ",".join(args.fix), project.server_types, "--fix"
        ).replicas
        if args.fix else {}
    )
    constraints = ReplicationConstraints(
        fixed=fixed, max_total_servers=args.max_total_servers
    )
    try:
        if args.frontier:
            from repro.core.search import OBJECTIVES, frontier_search

            objectives = (
                tuple(args.objectives) if args.objectives else OBJECTIVES
            )
            result = frontier_search(
                evaluator,
                goals,
                constraints,
                objectives=objectives,
                seed=args.seed,
            )
            if args.json:
                print(json.dumps(result.to_document(), indent=2))
            else:
                print(result.format_text())
            return 0
        search = SEARCHES[args.algorithm]
        recommendation = search(evaluator, goals, constraints)
    except InfeasibleConfigurationError as error:
        return _report_infeasible(error, json_output=args.json)
    if args.json:
        print(json.dumps(recommendation.to_document(), indent=2))
    else:
        print(recommendation.format_text())
    return 0


def _report_infeasible(
    error: InfeasibleConfigurationError, json_output: bool
) -> int:
    """Report an exhausted search: exit status 1, violations included.

    Distinguishes "the search ran but no admissible configuration meets
    the goals" (exit 1, structured ``violations`` from the best
    configuration found) from usage/validation errors (exit 2).
    """
    import json

    best = error.best_found
    if json_output:
        document = {
            "satisfied": False,
            "error": str(error),
            "violations": (
                best.to_document()["violations"] if best is not None else []
            ),
            "best_found": (
                best.to_document() if best is not None else None
            ),
        }
        print(json.dumps(document, indent=2))
    else:
        print(f"error: {error}", file=sys.stderr)
        if best is not None:
            print(
                f"best configuration found: {best.configuration} "
                f"(cost {best.cost:g})",
                file=sys.stderr,
            )
            for violation in best.assessment.violations:
                print(f"  violated: {violation}", file=sys.stderr)
    return 1


def _cmd_breakdown(args: argparse.Namespace) -> int:
    project = load_project(args.project)
    model = _performance_model(project)
    breakdown = model.load_breakdown()
    totals = model.total_request_rates()
    print("Load breakdown per server type (share of request rate):")
    for i, name in enumerate(project.server_types.names):
        print(f"  {name} (total {totals[i]:.4f} requests/unit):")
        shares = breakdown[name]
        if not shares:
            print("    (no load)")
            continue
        for workflow, share in sorted(
            shares.items(), key=lambda item: -item[1]
        ):
            print(f"    {workflow:24s} {share:7.2%}")
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    project = load_project(args.project)
    configuration = _parse_configuration(args.config, project.server_types)
    model = AvailabilityModel(project.server_types, configuration)
    print(f"Configuration {configuration}")
    print(
        f"  system unavailability: {model.unavailability():.6e}"
    )
    print("  unavailability reduction from one extra replica:")
    sensitivity = model.replication_sensitivity()
    for name, value in sorted(
        sensitivity.items(), key=lambda item: -item[1]
    ):
        print(f"    +1 {name:20s} -{value:.6e}")
    return 0


def _cmd_quantile(args: argparse.Namespace) -> int:
    project = load_project(args.project)
    from repro.core.workflow_model import build_workflow_ctmc

    probabilities = sorted(set(args.probability or [0.5, 0.9, 0.95]))
    for probability in probabilities:
        if not 0.0 < probability < 1.0:
            raise ValidationError(
                f"quantile probability {probability} must lie in (0, 1)"
            )
    print("Turnaround-time quantiles (transient first-passage analysis):")
    for workflow in project.workflows:
        model = build_workflow_ctmc(workflow, project.server_types)
        mean = model.turnaround_time()
        cells = "  ".join(
            f"P{int(p * 100):02d}={model.turnaround_quantile(p):.2f}"
            for p in probabilities
        )
        print(f"  {workflow.name:24s} mean={mean:9.2f}  {cells}")
    return 0


def _simulated_workflow_types(project: Project) -> list:
    """The project's workflows as simulator inputs, each at its arrival
    rate (0 for a workflow the project gives no rate)."""
    from repro.spec.translator import definition_to_chart
    from repro.wfms.runtime import SimulatedWorkflowType

    workflow_types = []
    for workflow in project.workflows:
        chart, activities = definition_to_chart(workflow)
        workflow_types.append(
            SimulatedWorkflowType(
                chart=chart,
                activities=activities,
                arrival_rate=project.arrival_rates.get(workflow.name, 0.0),
            )
        )
    return workflow_types


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.wfms.runtime import SimulatedWFMS

    project = _load_study(args)
    configuration = _parse_configuration(args.config, project.server_types)
    wfms = SimulatedWFMS(
        server_types=project.server_types,
        configuration=configuration,
        workflow_types=_simulated_workflow_types(project),
        seed=args.seed,
        inject_failures=not args.no_failures,
        rng_mode=args.rng_mode,
        record_trail=False,
    )
    report = wfms.run(duration=args.duration, warmup=args.warmup)
    print(f"Simulated configuration {configuration}")
    print(report.format_text())
    print(
        f"  simulator events executed: {wfms.simulator.executed_events} "
        f"(calendar high-water mark: {wfms.simulator.max_pending_events})"
    )
    if args.rng_mode == "fast":
        print(
            f"  logical events (incl. vectorized requests): "
            f"{wfms.logical_events}"
        )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    import json

    from repro.sim.campaign import (
        CampaignPlan,
        run_campaign,
        validate_against_models,
    )

    project = _load_study(args)
    configuration = _parse_configuration(args.config, project.server_types)
    plan = CampaignPlan(
        server_types=project.server_types,
        configuration=configuration,
        workflow_types=tuple(_simulated_workflow_types(project)),
        duration=args.duration,
        warmup=args.warmup,
        replications=args.replications,
        base_seed=args.seed,
        inject_failures=not args.no_failures,
        rng_mode=args.rng_mode,
    )
    result = run_campaign(plan, workers=args.workers)
    performance = _performance_model(project)
    availability = None
    performability = None
    if plan.inject_failures:
        availability = AvailabilityModel(project.server_types, configuration)
        performability = PerformabilityModel(performance, availability)
    validation = validate_against_models(
        result,
        performance,
        availability=availability,
        performability=performability,
    )
    if args.json:
        print(
            json.dumps(
                {
                    "campaign": result.to_document(),
                    "validation": validation.to_document(),
                },
                indent=2,
            )
        )
    else:
        print(f"Campaign over configuration {configuration}")
        print(result.format_text())
        print()
        print(validation.format_text())
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    import json

    from repro.monitor.drift import DriftMonitor
    from repro.monitor.persistence import iter_trail_rows
    from repro.monitor.stream import StreamingCalibrator

    calibrator = StreamingCalibrator(window=args.window)
    monitor = DriftMonitor(calibrator=calibrator)
    monitor.observe_rows(iter_trail_rows(args.trail))
    estimates = calibrator.document(args.observation_period)
    if args.json:
        print(
            json.dumps(
                {
                    "schema": "repro.monitor.replay/v1",
                    "trail": str(args.trail),
                    "estimates": estimates,
                    "drift": monitor.document(),
                },
                indent=2,
            )
        )
        return 0
    print(
        f"Replayed {calibrator.records_seen} audit records from "
        f"{args.trail} "
        f"(observation period {estimates['observation_period']:g})"
    )
    for name, entry in estimates["workflow_types"].items():
        print(f"  workflow {name}:")
        print(f"    completed instances: {entry['completed_instances']}")
        if entry["turnaround_time"] is not None:
            print(f"    mean turnaround:     {entry['turnaround_time']:.4f}")
        if entry["arrival_rate"] is not None:
            print(
                f"    arrival rate:        {entry['arrival_rate']:.6f} "
                f"(windowed {entry['windowed_arrival_rate']:.6f})"
            )
        for transition, probability in entry[
            "transition_probabilities"
        ].items():
            print(f"    P[{transition}] = {probability:.4f}")
    for name, entry in estimates["server_types"].items():
        print(
            f"  server {name}: mean service "
            f"{entry['mean_service_time']:.4f}, mean wait "
            f"{entry['mean_waiting_time']:.4f} "
            f"({entry['sample_count']} samples)"
        )
    print(monitor.format_text())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.service import (
        RecommendationService,
        SearchSettings,
        parse_goals,
    )

    baseline = _load_study(args)
    goals = parse_goals(args.goals)
    settings = SearchSettings(
        algorithm=args.algorithm,
        frontier=args.frontier,
        objectives=tuple(args.objectives or ()),
        seed=args.seed,
        max_total_servers=args.max_total_servers,
    )
    # The service serves /metrics itself, so instrumentation is always
    # on for `serve` (main() only enables it for explicit flags, and
    # restores the switch when the subcommand returns).
    obs.enable()
    service = RecommendationService(
        baseline,
        goals,
        settings,
        host=args.host,
        port=args.port,
        window=args.window,
        snapshot_path=args.snapshot,
    )
    restored = len(service.state.tenants)
    service.start()
    if restored:
        print(
            f"restored {restored} tenant(s) from {args.snapshot}",
            file=sys.stderr,
        )
    print(
        f"serving recommendations on {service.url}",
        file=sys.stderr,
    )
    stop = threading.Event()

    def _request_stop(signum: int, frame: object) -> None:
        stop.set()

    previous = {
        signal.SIGINT: signal.signal(signal.SIGINT, _request_stop),
        signal.SIGTERM: signal.signal(signal.SIGTERM, _request_stop),
    }
    try:
        while not stop.is_set():
            stop.wait(0.5)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        service.stop()
        if args.snapshot is not None:
            print(f"wrote snapshot to {args.snapshot}", file=sys.stderr)
    return 0


def _corpus_specs(args: argparse.Namespace) -> list:
    """Resolve corpus describe/assess inputs into workflow specs.

    Accepts any mix of ``--spec`` files (WorkflowSpec JSON or WfCommons
    instances), ``--scenario`` registry names, and ``--generated N``
    seeded random specs.
    """
    from repro.scenarios import generate_corpus, scenario

    specs = [
        _load_spec_file(path, default_rate=0.0)
        for path in (args.spec or [])
    ]
    for name in args.scenario or []:
        specs.append(scenario(name).spec())
    if args.generated:
        specs.extend(generate_corpus(args.generated, master_seed=args.seed))
    if not specs:
        raise ValidationError(
            "pass --spec FILE, --scenario NAME, or --generated COUNT"
        )
    return specs


def _cmd_corpus_generate(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.scenarios import GeneratorConfig, generate_corpus, save_spec

    config = GeneratorConfig(
        max_depth=args.max_depth,
        service_time_family=args.family,
        landscape=args.landscape,
        name_prefix=args.prefix,
    )
    specs = generate_corpus(args.count, master_seed=args.seed, config=config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for spec in specs:
        save_spec(spec, out / f"{spec.name}.spec.json")
    print(
        f"wrote {len(specs)} specs (seed {args.seed}, family "
        f"{args.family}) to {out}"
    )
    return 0


def _cmd_corpus_describe(args: argparse.Namespace) -> int:
    from repro.scenarios import spec_to_chart

    specs = _corpus_specs(args)
    print(f"{'name':28s} {'states':>6s} {'depth':>5s} "
          f"{'activities':>10s} {'arrival':>8s}")
    for spec in specs:
        spec_to_chart(spec)  # validates the lowering
        print(
            f"{spec.name:28s} {spec.state_count():6d} "
            f"{spec.nesting_depth():5d} {len(spec.activities):10d} "
            f"{spec.arrival.rate:8.4f}"
        )
    return 0


def _cmd_corpus_assess(args: argparse.Namespace) -> int:
    from repro.scenarios import spec_to_ctmc

    specs = _corpus_specs(args)
    print("Analytic assessment (absorbing-CTMC translation):")
    for spec in specs:
        model = spec_to_ctmc(spec)
        requests = ", ".join(
            f"{name}={value:.2f}"
            for name, value in zip(
                model.server_types.names, model.requests_per_instance()
            )
        )
        print(
            f"  {spec.name:28s} turnaround {model.turnaround_time():10.3f}"
            f"  requests/instance: {requests}"
        )
    return 0


def _cmd_throughput(args: argparse.Namespace) -> int:
    project = load_project(args.project)
    configuration = _parse_configuration(args.config, project.server_types)
    model = _performance_model(project)
    report = model.max_sustainable_throughput(configuration)
    print(f"Configuration {configuration}")
    print(
        f"  max sustainable throughput: "
        f"{report.max_workflow_throughput:.6f} workflows/time-unit"
    )
    print(f"  bottleneck: {report.bottleneck}")
    print(f"  headroom over current load: x{report.headroom:.3f}")
    for name, capacity in report.request_capacity.items():
        print(f"    {name:20s} capacity {capacity:12.4f} requests/unit")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _add_observability_arguments(
    subparser: argparse.ArgumentParser, serve_metrics: bool = True
) -> None:
    """Attach the shared instrumentation flags to one subcommand.

    ``serve`` gets no ``--serve-metrics``: its own port answers
    ``/metrics``, ``/health`` and ``/report``.
    """
    group = subparser.add_argument_group("observability")
    group.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write solver/search/simulator metrics as JSON",
    )
    group.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the span/event trace as JSON lines",
    )
    group.add_argument(
        "--verbose", "-v", action="store_true",
        help="print an observability run report after the command",
    )
    if not serve_metrics:
        return
    group.add_argument(
        "--serve-metrics", type=int, default=None, metavar="PORT",
        help="serve /metrics (Prometheus text), /health, and /report "
        "on 127.0.0.1:PORT while the command runs (0 picks a free "
        "port; implies instrumentation)",
    )


def _add_profile_argument(subparser: argparse.ArgumentParser) -> None:
    """Attach the ``--profile`` flag to a simulation subcommand."""
    subparser.add_argument(
        "--profile", nargs="?", const="-", default=None, metavar="PATH",
        help="profile the run with cProfile; prints the hottest "
        "functions, or dumps pstats data to PATH when one is given",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Performance/availability/performability assessment and "
            "configuration of distributed WFMSs (Gillmann et al., EDBT "
            "2000)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    init_demo = commands.add_parser(
        "init-demo", help="write a demo project file (EP e-commerce mix)"
    )
    init_demo.add_argument("path", help="output JSON path")
    init_demo.set_defaults(handler=_cmd_init_demo)

    def add_project(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--project", required=True, help="project JSON file"
        )

    def add_study(subparser: argparse.ArgumentParser) -> None:
        """``--project`` or repeatable ``--spec`` (workflow-spec files)."""
        subparser.add_argument(
            "--project", default=None, help="project JSON file"
        )
        subparser.add_argument(
            "--spec", action="append", metavar="FILE",
            help="workflow-spec JSON (repro.scenarios.WorkflowSpec) or "
            "WfCommons instance; repeatable, alternative to --project",
        )
        subparser.add_argument(
            "--arrival-rate", type=float, default=0.0, metavar="RATE",
            help="arrival rate for --spec files that carry none "
            "(e.g. WfCommons imports)",
        )

    assess = commands.add_parser(
        "assess", help="full assessment of one configuration"
    )
    add_project(assess)
    assess.add_argument(
        "--config", required=True,
        help="replica counts, e.g. comm-server=1,wf-engine=2",
    )
    assess.set_defaults(handler=_cmd_assess)

    availability = commands.add_parser(
        "availability", help="availability analysis of one configuration"
    )
    add_project(availability)
    availability.add_argument("--config", required=True)
    availability.set_defaults(handler=_cmd_availability)

    throughput = commands.add_parser(
        "throughput", help="maximum sustainable throughput analysis"
    )
    add_project(throughput)
    throughput.add_argument("--config", required=True)
    throughput.set_defaults(handler=_cmd_throughput)

    breakdown = commands.add_parser(
        "breakdown", help="per-workflow share of each server type's load"
    )
    add_project(breakdown)
    breakdown.set_defaults(handler=_cmd_breakdown)

    sensitivity = commands.add_parser(
        "sensitivity",
        help="unavailability reduction per additional replica",
    )
    add_project(sensitivity)
    sensitivity.add_argument("--config", required=True)
    sensitivity.set_defaults(handler=_cmd_sensitivity)

    quantile = commands.add_parser(
        "quantile", help="turnaround-time quantiles per workflow type"
    )
    add_project(quantile)
    quantile.add_argument(
        "--probability", "-p", type=float, action="append",
        help="quantile level, repeatable (default: 0.5, 0.9, 0.95)",
    )
    quantile.set_defaults(handler=_cmd_quantile)

    recommend = commands.add_parser(
        "recommend", help="search a minimum-cost configuration for goals"
    )
    add_study(recommend)
    recommend.add_argument(
        "--max-waiting", type=float, default=None,
        help="waiting-time goal (performability metric)",
    )
    recommend.add_argument(
        "--max-unavailability", type=float, default=None,
        help="system unavailability goal",
    )
    recommend.add_argument(
        "--algorithm", choices=sorted(SEARCHES), default="greedy",
    )
    recommend.add_argument(
        "--frontier", action="store_true",
        help="multi-objective mode: emit the whole Pareto frontier of "
        "goal-satisfying configurations (ranked trade-off table) "
        "instead of a single recommendation",
    )
    recommend.add_argument(
        "--objectives", action="append", metavar="AXIS",
        choices=[
            "cost", "max_waiting_time", "unavailability",
            "performability_waiting_time",
        ],
        help="frontier objective axis, repeatable "
        "(default: all four axes)",
    )
    recommend.add_argument(
        "--seed", type=int, default=0,
        help="random seed of the frontier shotgun/restart sampling "
        "(same seed => byte-identical frontier)",
    )
    recommend.add_argument(
        "--max-total-servers", type=int, default=32,
        help="search bound on the total number of servers",
    )
    recommend.add_argument(
        "--fix", action="append", metavar="NAME=COUNT",
        help="pin a server type's replica count (repeatable)",
    )
    recommend.add_argument(
        "--no-evaluation-cache", action="store_true",
        help="disable the shared evaluation cache (reference path; "
        "every candidate is assessed from scratch)",
    )
    recommend.add_argument(
        "--json", action="store_true",
        help="print the recommendation (configuration, cost, "
        "violations, trace) as machine-readable JSON",
    )
    recommend.set_defaults(handler=_cmd_recommend)

    simulate = commands.add_parser(
        "simulate",
        help="run the simulated WFMS against a project's workload",
    )
    add_study(simulate)
    simulate.add_argument(
        "--config", required=True,
        help="replica counts, e.g. comm-server=1,wf-engine=2",
    )
    simulate.add_argument(
        "--duration", type=float, default=10_000.0,
        help="measured simulation time after the warm-up window",
    )
    simulate.add_argument(
        "--warmup", type=float, default=0.0,
        help="warm-up time excluded from the measurements",
    )
    simulate.add_argument(
        "--seed", type=int, default=0, help="random seed"
    )
    simulate.add_argument(
        "--no-failures", action="store_true",
        help="disable failure injection (failure-free run)",
    )
    simulate.add_argument(
        "--rng-mode", choices=("exact", "fast"), default="exact",
        help="random-number mode: 'exact' keeps the bit-identical "
        "random.Random streams, 'fast' pre-draws variates in numpy "
        "blocks (statistically equivalent, much faster)",
    )
    _add_profile_argument(simulate)
    simulate.set_defaults(handler=_cmd_simulate)

    campaign = commands.add_parser(
        "campaign",
        help="replicated simulation campaign with confidence intervals "
        "and analytic-model validation verdicts",
    )
    add_study(campaign)
    campaign.add_argument(
        "--config", required=True,
        help="replica counts, e.g. comm-server=1,wf-engine=2",
    )
    campaign.add_argument(
        "--duration", type=float, default=2_000.0,
        help="measured time per replication after its warm-up window",
    )
    campaign.add_argument(
        "--warmup", type=float, default=0.0,
        help="warm-up time excluded from each replication's measurements",
    )
    campaign.add_argument(
        "--replications", "-n", type=int, default=10,
        help="number of independent replications",
    )
    campaign.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="run replications on N worker processes (the aggregate "
        "document is byte-identical to the serial run)",
    )
    campaign.add_argument(
        "--seed", type=int, default=0,
        help="base seed; per-replication seeds are derived from it",
    )
    campaign.add_argument(
        "--no-failures", action="store_true",
        help="disable failure injection (validates against the "
        "failure-free M/G/1 waiting times instead of performability)",
    )
    campaign.add_argument(
        "--rng-mode", choices=("exact", "fast"), default="exact",
        help="random-number mode per replication: 'exact' keeps the "
        "bit-identical random.Random streams, 'fast' pre-draws "
        "variates in numpy blocks (statistically equivalent, much "
        "faster; the aggregate stays byte-identical across worker "
        "counts in both modes)",
    )
    campaign.add_argument(
        "--json", action="store_true",
        help="print the campaign aggregate and validation verdicts as "
        "machine-readable JSON",
    )
    _add_profile_argument(campaign)
    campaign.set_defaults(handler=_cmd_campaign)

    monitor = commands.add_parser(
        "monitor",
        help="replay an audit-trail JSONL through the streaming "
        "calibrator and drift detectors",
    )
    monitor.add_argument(
        "--trail", required=True, metavar="PATH",
        help="audit-trail JSONL file "
        "(written by repro.monitor.persistence.save_trail)",
    )
    monitor.add_argument(
        "--window", type=float, default=1_000.0,
        help="sliding window (simulation time units, positive and "
        "finite) of the windowed arrival-rate estimator",
    )
    monitor.add_argument(
        "--observation-period", type=float, default=None,
        help="period (positive and finite) for cumulative arrival rates "
        "(default: the observed time span)",
    )
    monitor.add_argument(
        "--json", action="store_true",
        help="print the streaming estimates and drift verdicts as "
        "machine-readable JSON",
    )
    monitor.set_defaults(handler=_cmd_monitor)

    serve = commands.add_parser(
        "serve",
        help="run the always-on recommendation service (ingests audit "
        "events over HTTP, re-searches on drift, serves the current "
        "recommendation)",
    )
    add_study(serve)
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port to bind (default: 0 = ephemeral; the announced "
        "URL is printed to stderr)",
    )
    serve.add_argument(
        "--goals", required=True, metavar="SPEC",
        help="goal thresholds as key=value pairs, e.g. "
        "max-waiting=0.5,max-unavailability=1e-4",
    )
    serve.add_argument(
        "--snapshot", default=None, metavar="PATH",
        help="snapshot file: restored on startup when present, "
        "written on graceful shutdown (warm restart)",
    )
    serve.add_argument(
        "--window", type=float, default=1_000.0,
        help="sliding window (simulation time units, positive and "
        "finite) of the windowed arrival-rate estimator",
    )
    serve.add_argument(
        "--algorithm", choices=sorted(SEARCHES), default="greedy",
        help="point-search algorithm for each re-search",
    )
    serve.add_argument(
        "--frontier", action="store_true",
        help="multi-objective mode: each re-search emits the whole "
        "Pareto frontier instead of a single recommendation",
    )
    serve.add_argument(
        "--objectives", action="append", metavar="AXIS",
        choices=[
            "cost", "max_waiting_time", "unavailability",
            "performability_waiting_time",
        ],
        help="frontier objective axis, repeatable "
        "(default: all four axes)",
    )
    serve.add_argument(
        "--seed", type=int, default=0,
        help="random seed of the frontier shotgun/restart sampling",
    )
    serve.add_argument(
        "--max-total-servers", type=int, default=32,
        help="search bound on the total number of servers",
    )
    serve.set_defaults(handler=_cmd_serve)

    corpus = commands.add_parser(
        "corpus",
        help="generate, describe, or assess workflow-spec corpora",
    )
    corpus_commands = corpus.add_subparsers(
        dest="corpus_command", required=True
    )

    corpus_generate = corpus_commands.add_parser(
        "generate", help="write a seeded random spec corpus to a directory"
    )
    corpus_generate.add_argument(
        "--count", type=int, default=10, help="number of specs to generate"
    )
    corpus_generate.add_argument(
        "--seed", type=int, default=0, help="master seed of the corpus"
    )
    corpus_generate.add_argument(
        "--out", required=True, metavar="DIR",
        help="output directory for <name>.spec.json files",
    )
    corpus_generate.add_argument(
        "--prefix", default="Gen", help="workflow name prefix"
    )
    corpus_generate.add_argument(
        "--max-depth", type=int, default=2,
        help="maximum nesting depth of generated structure blocks",
    )
    corpus_generate.add_argument(
        "--family", choices=sorted(SERVICE_TIME_FAMILIES),
        default="exponential",
        help="service-time distribution family of activity durations",
    )
    corpus_generate.add_argument(
        "--landscape", choices=sorted(LANDSCAPES), default="standard",
        help="server landscape the specs are assessed on",
    )
    corpus_generate.set_defaults(handler=_cmd_corpus_generate)

    def add_corpus_inputs(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--spec", action="append", metavar="FILE",
            help="workflow-spec JSON or WfCommons instance (repeatable)",
        )
        subparser.add_argument(
            "--scenario", action="append", metavar="NAME",
            help="bundled scenario name, e.g. ecommerce (repeatable)",
        )
        subparser.add_argument(
            "--generated", type=int, default=0, metavar="N",
            help="include N seeded random specs",
        )
        subparser.add_argument(
            "--seed", type=int, default=0,
            help="master seed of the --generated specs",
        )

    corpus_describe = corpus_commands.add_parser(
        "describe",
        help="table of structural properties (validates the lowering)",
    )
    add_corpus_inputs(corpus_describe)
    corpus_describe.set_defaults(handler=_cmd_corpus_describe)

    corpus_assess = corpus_commands.add_parser(
        "assess",
        help="analytic turnaround and requests/instance per spec",
    )
    add_corpus_inputs(corpus_assess)
    corpus_assess.set_defaults(handler=_cmd_corpus_assess)

    for name, subcommand in commands.choices.items():
        _add_observability_arguments(
            subcommand, serve_metrics=name != "serve"
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    serve_port = getattr(args, "serve_metrics", None)
    observing = bool(
        getattr(args, "metrics_out", None)
        or getattr(args, "trace_out", None)
        or getattr(args, "verbose", False)
        or serve_port is not None
    )
    server = None
    # Subcommands may switch instrumentation on (`serve` always does);
    # whatever they do, the switch ends as it was found.
    was_enabled = obs.is_enabled()
    if observing:
        obs.reset()
        obs.enable()
    try:
        if serve_port is not None:
            from repro.obs.server import MetricsServer

            server = MetricsServer(port=serve_port)
            server.start()
            print(f"serving metrics on {server.url}", file=sys.stderr)
        status = _run_handler(args)
        if observing:
            _emit_observability(args)
        return status
    except BrokenPipeError:
        # A downstream pager/`head` closed the pipe; not an error.
        try:
            sys.stdout.close()
        except OSError:  # pragma: no cover - depends on the consumer
            pass
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        # Unwritable --metrics-out/--trace-out paths and the like.
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if server is not None:
            server.stop()
        if was_enabled:
            obs.enable()
        else:
            obs.disable()


def _run_handler(args: argparse.Namespace) -> int:
    """Dispatch to the subcommand handler, optionally under cProfile."""
    target = getattr(args, "profile", None)
    if not target:
        return args.handler(args)
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    status = profiler.runcall(args.handler, args)
    if target == "-":
        print()
        print("Profile (top 15 functions by internal time):")
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("tottime").print_stats(15)
    else:
        profiler.dump_stats(target)
        print(f"wrote profile to {target}")
    return status


def _emit_observability(args: argparse.Namespace) -> None:
    """Write the requested metric/trace outputs after a successful run."""
    if args.verbose:
        print()
        print(obs.run_report())
    if args.metrics_out:
        obs.write_metrics_json(args.metrics_out)
        print(f"wrote metrics to {args.metrics_out}")
    if args.trace_out:
        records = obs.write_trace_jsonl(args.trace_out)
        print(f"wrote {records} trace records to {args.trace_out}")


if __name__ == "__main__":
    sys.exit(main())
