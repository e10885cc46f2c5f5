"""E8 — ablations of the paper's modelling choices.

(a) z_max truncation (Section 4.2.1): relative error of the truncated
    uniformization series against the exact fundamental-matrix visits as
    a function of the confidence level — the "99 percent" rule lands at
    ~1% error, and the error decays towards machine precision.
(b) Non-exponential repairs (Section 5.1 remark): phase-type (Erlang-k)
    expansion of the repair time, sweeping k, against the exponential
    base case — at equal mean repair time, less variable repairs change
    per-type unavailability measurably once replicas exist.
(c) Load-partitioning cost: the paper models Y_x replicas as Y_x
    independent M/G/1 queues; an idealized shared-queue M/M/c bound
    quantifies what the partitioning gives up.
"""

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.core.availability import RepairPolicy, ServerPoolAvailability
from repro.core.model_types import ServerTypeSpec
from repro.core.phase_type import PhaseTypeRepairPool, erlang_phase
from repro.core.workflow_model import build_workflow_ctmc
from repro.queueing import mg1_mean_waiting_time
from repro.workflows import ecommerce_workflow, standard_server_types


def test_e8a_zmax_truncation_error(benchmark):
    model = build_workflow_ctmc(ecommerce_workflow(), standard_server_types())
    exact = model.requests_per_instance(method="fundamental")
    confidences = [0.9, 0.99, 0.999, 0.9999, 0.999999]

    def sweep():
        errors = []
        for confidence in confidences:
            series = model.requests_per_instance(
                method="series", confidence=confidence
            )
            errors.append(float(np.max(np.abs(series - exact) / exact)))
        return errors

    errors = benchmark(sweep)
    lines = ["confidence     z_max   max relative error"]
    for confidence, error in zip(confidences, errors):
        z = model.chain.z_max(confidence)
        lines.append(f"{confidence:10.6f} {z:8d} {error:18.2e}")
    emit("E8a: series truncation error vs confidence", lines)

    # Monotone decay; the paper's 99% rule keeps the error near 1%.
    assert all(a >= b for a, b in zip(errors, errors[1:]))
    assert errors[1] < 0.02
    assert errors[-1] < 1e-5


def test_e8b_erlang_repair_expansion(benchmark):
    spec = ServerTypeSpec(
        "app-server", 0.15, failure_rate=1.0 / 1440.0, repair_rate=0.1
    )
    stages_list = [1, 2, 4, 8, 16]

    def sweep():
        results = {}
        for count in (1, 2, 3):
            row = []
            for stages in stages_list:
                pool = PhaseTypeRepairPool(
                    spec, count,
                    erlang_phase(stages, mean=spec.mean_time_to_repair),
                )
                row.append(pool.unavailability)
            results[count] = row
        return results

    results = benchmark(sweep)

    lines = ["replicas   " + "   ".join(
        f"Erlang-{stages:<3d}" for stages in stages_list
    )]
    for count, row in results.items():
        lines.append(
            f"{count:8d}   " + "   ".join(f"{u:.3e}" for u in row)
        )
    emit("E8b: unavailability with Erlang-k repairs (single crew)", lines)

    # Erlang-1 equals the exponential single-crew base case.
    for count in (1, 2, 3):
        base = ServerPoolAvailability(
            spec, count, RepairPolicy.SINGLE_CREW
        ).unavailability
        assert results[count][0] == pytest.approx(base, rel=1e-9)
    # With one replica only the mean matters: flat across k.
    row1 = results[1]
    assert max(row1) == pytest.approx(min(row1), rel=1e-9)
    # With replication, more deterministic repairs (larger k) reduce the
    # chance that a second failure lands inside a repair window's tail:
    # unavailability decreases monotonically in k.
    for count in (2, 3):
        row = results[count]
        assert all(a >= b for a, b in zip(row, row[1:]))
        assert row[0] > row[-1]


def mmc_mean_waiting_time(arrival_rate, service_rate, num_servers):
    """Mean waiting time of a stable M/M/c queue with one shared queue.

    The Erlang-C wait probability comes from the Erlang-B recursion,
    which stays numerically stable for any ``num_servers``.
    """
    offered_load = arrival_rate / service_rate
    blocking = 1.0
    for k in range(1, num_servers + 1):
        blocking = offered_load * blocking / (k + offered_load * blocking)
    utilization = offered_load / num_servers
    wait_probability = blocking / (1.0 - utilization * (1.0 - blocking))
    return wait_probability / (num_servers * service_rate - arrival_rate)


def test_e8c_partitioned_vs_shared_queue(benchmark):
    """Cost of modelling replicas as independent M/G/1 stations."""
    service_rate = 1.0
    replica_counts = [2, 3, 4]
    utilizations = [0.5, 0.7, 0.9]

    def sweep():
        table = {}
        for count in replica_counts:
            row = []
            for utilization in utilizations:
                arrival = utilization * count * service_rate
                partitioned = mg1_mean_waiting_time(
                    arrival / count, 1.0 / service_rate
                )
                shared = mmc_mean_waiting_time(
                    arrival, service_rate, count
                )
                row.append((partitioned, shared))
            table[count] = row
        return table

    table = benchmark(sweep)
    lines = ["replicas  rho    partitioned M/M/1   shared M/M/c   penalty"]
    for count, row in table.items():
        for utilization, (partitioned, shared) in zip(utilizations, row):
            lines.append(
                f"{count:8d} {utilization:5.2f} {partitioned:17.4f}"
                f" {shared:14.4f}   x{partitioned / shared:.2f}"
            )
    emit("E8c: per-replica partitioning vs idealized shared queue", lines)

    for count, row in table.items():
        for partitioned, shared in row:
            assert shared <= partitioned
        # The penalty of partitioning grows with the replica count.
    penalty_2 = table[2][1][0] / table[2][1][1]
    penalty_4 = table[4][1][0] / table[4][1][1]
    assert penalty_4 > penalty_2
