"""Simulated distributed WFMS (the measurement substrate).

Replicated server pools with FCFS replicas, failure/repair injection,
routing with failover, Poisson workflow arrivals, state-chart-driven
instance execution, and measurement reports comparable to the analytic
models' predictions.
"""

from repro.wfms.measurement import (
    ServerTypeMeasurement,
    WFMSMeasurementReport,
    WorkflowTypeMeasurement,
)
from repro.wfms.routing import RoutingPolicy, ServerPool
from repro.wfms.runtime import (
    DurationSampling,
    SimulatedWFMS,
    SimulatedWorkflowType,
)
from repro.wfms.servers import FailureInjector, Server, ServerStatistics

__all__ = [
    "DurationSampling",
    "FailureInjector",
    "RoutingPolicy",
    "Server",
    "ServerPool",
    "ServerStatistics",
    "ServerTypeMeasurement",
    "SimulatedWFMS",
    "SimulatedWorkflowType",
    "WFMSMeasurementReport",
    "WorkflowTypeMeasurement",
]
