"""E3 — Sections 4.3/4.4: total load, sustainable throughput, waiting.

Regenerates the aggregate stage of the performance model on a two-type
workflow mix (EP + order processing): per-type request arrival rates,
the maximum sustainable throughput with bottleneck identification, and
the M/G/1 waiting-time-vs-arrival-rate curves for three configurations.
Shape claims: waiting times grow superlinearly towards saturation;
replicating the bottleneck type moves the knee to higher load; the
bottleneck shifts once the first type is sufficiently replicated.
"""

import math

from benchmarks.conftest import configuration, emit
from repro.core.performance import PerformanceModel, Workload, WorkloadItem
from repro.workflows import (
    ecommerce_workflow,
    order_processing_workflow,
    standard_server_types,
)

BASE_EP_RATE = 0.4
BASE_OP_RATE = 0.2


def make_model(scale=1.0):
    types = standard_server_types()
    workload = Workload(
        [
            WorkloadItem(ecommerce_workflow(), BASE_EP_RATE * scale),
            WorkloadItem(order_processing_workflow(), BASE_OP_RATE * scale),
        ]
    )
    return types, PerformanceModel(types, workload)


def test_e3_total_load_and_throughput(benchmark):
    types, model = make_model()
    report = benchmark(
        lambda: model.max_sustainable_throughput(
            configuration(types, (1, 2, 3))
        )
    )
    totals = model.total_request_rates()
    lines = ["server type        l_x (req/min)   capacity (req/min)"]
    for i, name in enumerate(types.names):
        lines.append(
            f"{name:18s} {totals[i]:12.4f} "
            f"{report.request_capacity[name]:16.4f}"
        )
    lines.append(
        f"max sustainable throughput = "
        f"{report.max_workflow_throughput:.4f} workflows/min "
        f"(bottleneck: {report.bottleneck})"
    )
    emit("E3a: total load and sustainable throughput (Section 4.3)", lines)

    assert report.bottleneck == "app-server"
    assert report.max_workflow_throughput > BASE_EP_RATE + BASE_OP_RATE


def test_e3_replicating_bottleneck_scales_throughput(benchmark):
    types, model = make_model()

    def sweep():
        return [
            model.max_sustainable_throughput(
                configuration(types, (2, 3, app_replicas))
            )
            for app_replicas in (1, 2, 3, 4, 6, 8)
        ]

    reports = benchmark(sweep)
    lines = ["app replicas   max throughput   bottleneck"]
    previous = 0.0
    bottlenecks = []
    for app_replicas, report in zip((1, 2, 3, 4, 6, 8), reports):
        lines.append(
            f"{app_replicas:12d} {report.max_workflow_throughput:16.4f}"
            f"   {report.bottleneck}"
        )
        assert report.max_workflow_throughput >= previous
        previous = report.max_workflow_throughput
        bottlenecks.append(report.bottleneck)
    emit("E3b: throughput vs bottleneck replication", lines)
    # Crossover: with enough app servers another type saturates first.
    assert bottlenecks[0] == "app-server"
    assert bottlenecks[-1] != "app-server"


def test_e3_waiting_time_curves(benchmark):
    types, _ = make_model()
    configurations = {
        "(1,1,1)": (1, 1, 1),
        "(1,2,3)": (1, 2, 3),
        "(2,3,5)": (2, 3, 5),
    }
    scales = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0]

    def sweep():
        curves = {}
        for label, counts in configurations.items():
            waits = []
            for scale in scales:
                _, model = make_model(scale)
                w = model.waiting_times(configuration(types, counts))
                waits.append(float(max(w)))
            curves[label] = waits
        return curves

    curves = benchmark(sweep)

    lines = ["scale   " + "   ".join(f"{label:>12s}" for label in curves)]
    for i, scale in enumerate(scales):
        cells = []
        for label in curves:
            value = curves[label][i]
            cells.append(f"{value:12.4f}" if math.isfinite(value)
                         else "         inf")
        lines.append(f"{scale:5.2f}   " + "   ".join(cells))
    emit("E3c: worst waiting time vs load scale (Section 4.4)", lines)

    # Bigger configurations dominate smaller ones at every load level.
    for i in range(len(scales)):
        small = curves["(1,1,1)"][i]
        medium = curves["(1,2,3)"][i]
        large = curves["(2,3,5)"][i]
        assert large <= medium + 1e-12
        assert (medium <= small + 1e-12) or math.isinf(small)
    # The smallest configuration saturates within the swept range while
    # the largest stays finite: the knee moves right with replication.
    assert math.isinf(curves["(1,1,1)"][-1])
    assert math.isfinite(curves["(2,3,5)"][-1])


def test_e3_colocation_generalization(benchmark):
    """Section 4.4's multi-type-per-computer extension."""
    types, model = make_model()
    from repro.core.performance import Computer

    dedicated = benchmark(
        lambda: model.waiting_times_colocated(
            [
                Computer("c1", ("comm-server",)),
                Computer("c2", ("wf-engine",)),
                Computer("c3", ("app-server",)),
                Computer("c4", ("app-server",)),
                Computer("c5", ("app-server",)),
            ]
        )
    )
    consolidated = model.waiting_times_colocated(
        [
            Computer("c1", ("comm-server", "wf-engine")),
            Computer("c2", ("app-server",)),
            Computer("c3", ("app-server",)),
            Computer("c4", ("app-server",)),
        ]
    )
    lines = ["server type        dedicated (5 hosts)   colocated (4 hosts)"]
    for name in types.names:
        lines.append(
            f"{name:18s} {dedicated[name]:18.5f} {consolidated[name]:18.5f}"
        )
    emit("E3d: co-locating comm + engine on one computer", lines)
    # Sharing a host cannot improve either type's waiting time.
    assert consolidated["comm-server"] >= dedicated["comm-server"]
    assert consolidated["wf-engine"] >= dedicated["wf-engine"]
