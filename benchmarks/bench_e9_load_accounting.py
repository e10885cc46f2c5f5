"""E9 — Figure 1 / Section 2: per-activity request accounting.

The paper reads off the sequence diagram of Figure 1 that the automated
activity induces 3 requests at the workflow engine, 2 at the
communication server, and 3 at the application server, while the
interactive activity (executed on a client) skips the application
server.  This experiment traces those counts through the whole stack:
activity spec -> state chart -> load matrix -> per-instance requests ->
simulated request counts.
"""

import pytest

from benchmarks.conftest import configuration, emit
from repro.core.workflow_model import build_workflow_ctmc
from repro.spec.events import ECARule
from repro.spec.statechart import ChartState, ChartTransition, StateChart
from repro.spec.translator import ActivityRegistry, translate_chart
from repro.wfms import RoutingPolicy, SimulatedWFMS, SimulatedWorkflowType
from repro.workflows import (
    automated_activity,
    interactive_activity,
    standard_server_types,
)


def figure1_chart():
    """A two-activity workflow shaped like Figure 1: one automated
    activity followed by one interactive activity."""
    return StateChart(
        "Figure1",
        (ChartState("Automated", activity="Automated"),
         ChartState("Interactive", activity="Interactive"),
         ChartState("End", mean_duration=0.01)),
        (ChartTransition("Automated", "Interactive",
                         ECARule("Automated_DONE")),
         ChartTransition("Interactive", "End", ECARule("Interactive_DONE"))),
        "Automated",
    )


def figure1_registry():
    return ActivityRegistry(
        {
            "Automated": automated_activity("Automated", 2.0),
            "Interactive": interactive_activity("Interactive", 5.0),
        }
    )


def test_e9_load_matrix_matches_figure_1(benchmark):
    types = standard_server_types()
    definition = translate_chart(figure1_chart(), figure1_registry())
    model = benchmark(lambda: build_workflow_ctmc(definition, types))

    requests = model.requests_per_instance()
    by_name = dict(zip(types.names, requests))
    lines = [
        "server type        automated   interactive   per instance",
        f"wf-engine                  3             3 "
        f"{by_name['wf-engine']:14.1f}",
        f"comm-server                2             2 "
        f"{by_name['comm-server']:14.1f}",
        f"app-server                 3             0 "
        f"{by_name['app-server']:14.1f}",
    ]
    emit("E9a: Figure-1 request counts through the model stack", lines)

    # 3 + 3 engine, 2 + 2 comm, 3 + 0 app.
    assert by_name["wf-engine"] == pytest.approx(6.0)
    assert by_name["comm-server"] == pytest.approx(4.0)
    assert by_name["app-server"] == pytest.approx(3.0)


def test_e9_simulated_request_counts(benchmark):
    types = standard_server_types()
    arrival_rate = 0.5
    wfms = SimulatedWFMS(
        server_types=types,
        configuration=configuration(types, (1, 1, 1)),
        workflow_types=[
            SimulatedWorkflowType(
                figure1_chart(), figure1_registry(), arrival_rate
            )
        ],
        seed=211,
        routing_policy=RoutingPolicy.ROUND_ROBIN,
        inject_failures=False,
    )
    report = benchmark.pedantic(
        lambda: wfms.run(duration=8_000.0, warmup=500.0),
        rounds=1, iterations=1,
    )
    instances = report.workflow_types["Figure1"].completed_instances
    lines = ["server type        expected/instance   simulated/instance"]
    expectations = {"wf-engine": 6.0, "comm-server": 4.0, "app-server": 3.0}
    for name, expected in expectations.items():
        measured = report.server_types[name].completed_requests / instances
        lines.append(f"{name:18s} {expected:17.1f} {measured:20.3f}")
        assert measured == pytest.approx(expected, rel=0.05)
    emit("E9b: Figure-1 request counts measured in simulation", lines)


def test_e9_interactive_activities_skip_application_servers(benchmark):
    """An all-interactive workflow must induce zero application load."""
    types = standard_server_types()
    registry = ActivityRegistry(
        {"Interactive": interactive_activity("Interactive", 5.0)}
    )
    chart = StateChart(
        "ClientOnly",
        (ChartState("Interactive", activity="Interactive"),),
        (),
        "Interactive",
    )
    definition = translate_chart(chart, registry)
    model = benchmark(lambda: build_workflow_ctmc(definition, types))
    requests = dict(zip(types.names, model.requests_per_instance()))
    emit(
        "E9c: interactive-only workflow leaves app servers idle",
        [f"{name}: {value:.1f} requests/instance"
         for name, value in requests.items()],
    )
    assert requests["app-server"] == 0.0
    assert requests["wf-engine"] > 0.0
