"""repro — performability-driven configuration of distributed WFMSs.

A complete, from-scratch reproduction of *"Performance and Availability
Assessment for the Configuration of Distributed Workflow Management
Systems"* (Gillmann, Weissenfels, Weikum, Kraiss — EDBT 2000):

* :mod:`repro.core` — the analytic models: workflow CTMCs, the
  performance model (turnaround times, loads, sustainable throughput,
  M/G/1 waiting times), the availability model (system-state CTMC), the
  performability model, and the greedy/exhaustive/annealing configuration
  search.
* :mod:`repro.spec` — a Harel-style state-chart workflow specification
  language with ECA rules, nesting, and orthogonal components, plus the
  translation into the model layer.
* :mod:`repro.sim` / :mod:`repro.wfms` — a discrete-event simulated
  distributed WFMS (replicated server pools, routing, failures) used to
  validate the analytic predictions.
* :mod:`repro.monitor` — audit trails, streaming calibration of model
  parameters from monitoring data, and drift detection.
* :mod:`repro.service` — the configuration tool of Section 7 as one
  calibrate → evaluate → recommend pipeline, in batch and as the
  always-on ``repro serve``.
* :mod:`repro.queueing` — M/G/1, M/M/1, M/M/c, and Little's-law utilities.
* :mod:`repro.workflows` — ready-made example workflows, including the
  paper's e-commerce workflow (Figures 3 and 4).
"""

from repro.core import (
    ActivitySpec,
    AvailabilityModel,
    DegradedStatePolicy,
    GoalEvaluator,
    PerformabilityGoals,
    PerformabilityModel,
    PerformanceModel,
    RepairPolicy,
    ReplicationConstraints,
    ServerRole,
    ServerTypeIndex,
    ServerTypeSpec,
    SystemConfiguration,
    Workload,
    WorkloadItem,
    WorkflowDefinition,
    WorkflowState,
    analyze_workflow,
    build_workflow_ctmc,
    exhaustive_configuration,
    greedy_configuration,
    simulated_annealing_configuration,
)
from repro.exceptions import (
    ConvergenceError,
    InfeasibleConfigurationError,
    ModelError,
    ReproError,
    SaturationError,
    ValidationError,
)

__version__ = "1.0.0"

__all__ = [
    "ActivitySpec",
    "AvailabilityModel",
    "ConvergenceError",
    "DegradedStatePolicy",
    "GoalEvaluator",
    "InfeasibleConfigurationError",
    "ModelError",
    "PerformabilityGoals",
    "PerformabilityModel",
    "PerformanceModel",
    "RepairPolicy",
    "ReplicationConstraints",
    "ReproError",
    "SaturationError",
    "ServerRole",
    "ServerTypeIndex",
    "ServerTypeSpec",
    "SystemConfiguration",
    "ValidationError",
    "Workload",
    "WorkloadItem",
    "WorkflowDefinition",
    "WorkflowState",
    "__version__",
    "analyze_workflow",
    "build_workflow_ctmc",
    "exhaustive_configuration",
    "greedy_configuration",
    "simulated_annealing_configuration",
]
