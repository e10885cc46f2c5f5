"""E5 — Section 6: performability under failures.

Regenerates the performability analysis: the expected waiting time
``W^Y`` including degraded states, compared with the failure-free
waiting time, as a function of the replication degree and the load
level.  Shape claims: degradation factors exceed 1 and shrink rapidly
with replication; higher utilization amplifies the degradation (losing
one of two replicas near saturation hurts much more than at low load);
the three degraded-state policies are ordered CONDITIONAL <= PENALTY <=
INFINITE.
"""

import math

from benchmarks.conftest import configuration, emit
from repro.core.availability import AvailabilityModel
from repro.core.performance import PerformanceModel, Workload, WorkloadItem
from repro.core.performability import (
    DegradedStatePolicy,
    PerformabilityModel,
)
from repro.workflows import (
    ecommerce_workflow,
    order_processing_workflow,
    standard_server_types,
)


def make_performance(scale=1.0):
    types = standard_server_types()
    workload = Workload(
        [
            WorkloadItem(ecommerce_workflow(), 0.4 * scale),
            WorkloadItem(order_processing_workflow(), 0.2 * scale),
        ]
    )
    return types, PerformanceModel(types, workload)


def performability_report(types, performance, counts,
                          policy=DegradedStatePolicy.CONDITIONAL,
                          penalty=None):
    availability = AvailabilityModel(
        types, configuration(types, counts)
    )
    return PerformabilityModel(
        performance, availability, policy=policy,
        penalty_waiting_time=penalty,
    ).expected_waiting_times()


def test_e5_degradation_vs_replication(benchmark):
    types, performance = make_performance()
    rows = [(1, 2, 3), (2, 2, 3), (2, 3, 4), (3, 3, 5)]

    def analyze():
        return [
            performability_report(types, performance, counts)
            for counts in rows
        ]

    reports = benchmark(analyze)
    lines = [
        "config       failure-free w_max   performability W_max"
        "   degradation"
    ]
    degradations = []
    for counts, report in zip(rows, reports):
        failure_free = max(report.failure_free_waiting_times.values())
        expected = report.max_expected_waiting_time
        degradation = expected / failure_free
        degradations.append(degradation)
        lines.append(
            f"{str(counts):12s} {failure_free:18.5f} {expected:20.5f}"
            f"   x{degradation:.5f}"
        )
    emit("E5a: performability degradation vs replication (Section 6)", lines)

    # Degradation strictly above 1 (failures hurt), shrinking with
    # replication.
    assert all(d > 1.0 for d in degradations)
    assert degradations[0] > degradations[-1]


def test_e5_degradation_grows_with_load(benchmark):
    types, _ = make_performance()
    counts = (1, 2, 3)

    def analyze():
        results = []
        for scale in (0.4, 0.8, 1.2):
            _, performance = make_performance(scale)
            results.append(
                performability_report(types, performance, counts)
            )
        return results

    reports = benchmark(analyze)
    lines = ["load scale   degradation of app-server waiting"]
    factors = []
    for scale, report in zip((0.4, 0.8, 1.2), reports):
        factor = report.degradation_factor("app-server")
        factors.append(factor)
        lines.append(f"{scale:10.2f}   x{factor:.5f}")
    emit("E5b: degradation vs load level", lines)
    # Near saturation, losing a replica is catastrophic; at low load it
    # barely matters.
    assert factors[0] < factors[1] < factors[2]


def test_e5_policy_ordering(benchmark):
    types, performance = make_performance()
    counts = (1, 2, 3)

    conditional = benchmark(
        lambda: performability_report(
            types, performance, counts, DegradedStatePolicy.CONDITIONAL
        )
    )
    penalty = performability_report(
        types, performance, counts, DegradedStatePolicy.PENALTY,
        penalty=120.0,
    )
    infinite = performability_report(
        types, performance, counts, DegradedStatePolicy.INFINITE
    )

    lines = ["policy        W_max (app-server)"]
    for label, report in (
        ("CONDITIONAL", conditional),
        ("PENALTY", penalty),
        ("INFINITE", infinite),
    ):
        value = report.expected_waiting_times["app-server"]
        text = f"{value:.6f}" if math.isfinite(value) else "inf"
        lines.append(f"{label:12s} {text}")
    emit("E5c: degraded-state policy comparison", lines)

    w_conditional = conditional.expected_waiting_times["app-server"]
    w_penalty = penalty.expected_waiting_times["app-server"]
    w_infinite = infinite.expected_waiting_times["app-server"]
    assert w_conditional <= w_penalty <= w_infinite
    assert math.isinf(w_infinite)  # some state always has the type down
    assert math.isfinite(w_penalty)


def test_e5_operational_probability(benchmark):
    types, performance = make_performance()
    report = benchmark(
        lambda: performability_report(types, performance, (2, 2, 3))
    )
    emit(
        "E5d: operational-and-stable probability for (2,2,3)",
        [
            f"feasible probability: {report.feasible_probability:.9f}",
            f"system unavailability: {report.unavailability:.3e}",
        ],
    )
    # Almost always operational, and the feasible mass accounts for the
    # (tiny) unavailability plus saturated degraded states.
    assert report.feasible_probability > 0.999
    assert report.feasible_probability <= 1.0 - report.unavailability + 1e-12
