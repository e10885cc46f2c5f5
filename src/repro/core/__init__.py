"""Core analytic models of the paper (Sections 3-7).

Layering: the CTMC/DTMC kernel at the bottom (absorbing chains give the
reward until absorption of Section 4.2, ergodic chains the steady states
of Sections 5 and 6); the workflow translation (Section 3) on top of it;
then the performance (Section 4), availability (Section 5), and
performability (Section 6) models; and the goal evaluation plus
configuration search (Section 7) at the top.
"""

from repro.core.availability import (
    AvailabilityModel,
    RepairPolicy,
    ServerPoolAvailability,
    minimum_replicas_for_availability,
)
from repro.core.configuration import (
    ConfigurationRecommendation,
    ReplicationConstraints,
    SearchStep,
    branch_and_bound_configuration,
    exhaustive_configuration,
    greedy_configuration,
    simulated_annealing_configuration,
)
from repro.core.ctmc import (
    AbsorbingCTMC,
    ErgodicCTMC,
    Uniformization,
    remove_self_loops,
)
from repro.core.dtmc import AbsorbingDTMC
from repro.core.evaluation_cache import EvaluationCache
from repro.core.goals import (
    GoalAssessment,
    GoalEvaluator,
    GoalViolation,
    PerformabilityGoals,
)
from repro.core.model_types import (
    ActivitySpec,
    ServerRole,
    ServerTypeIndex,
    ServerTypeSpec,
)
from repro.core.performance import (
    Computer,
    PerformanceModel,
    PerformanceReport,
    SystemConfiguration,
    ThroughputReport,
    Workload,
    WorkloadItem,
)
from repro.core.performability import (
    DegradedStatePolicy,
    PerformabilityModel,
    PerformabilityReport,
)
from repro.core.search import SearchEngine
from repro.core.phase_type import (
    PhaseTypeDistribution,
    PhaseTypeRepairPool,
    erlang_phase,
    exponential_phase,
    hyperexponential_phase,
)
from repro.core.transient import (
    first_passage_cdf,
    first_passage_quantile,
    poisson_weights,
    transient_distribution,
)
from repro.core.workflow_model import (
    WorkflowCTMC,
    WorkflowDefinition,
    WorkflowState,
    build_workflow_ctmc,
)

__all__ = [
    "AbsorbingCTMC",
    "AbsorbingDTMC",
    "ActivitySpec",
    "AvailabilityModel",
    "Computer",
    "ConfigurationRecommendation",
    "DegradedStatePolicy",
    "ErgodicCTMC",
    "EvaluationCache",
    "GoalAssessment",
    "GoalEvaluator",
    "GoalViolation",
    "PerformabilityGoals",
    "PerformabilityModel",
    "PerformabilityReport",
    "PerformanceModel",
    "PerformanceReport",
    "PhaseTypeDistribution",
    "PhaseTypeRepairPool",
    "RepairPolicy",
    "ReplicationConstraints",
    "SearchEngine",
    "SearchStep",
    "ServerPoolAvailability",
    "ServerRole",
    "ServerTypeIndex",
    "ServerTypeSpec",
    "SystemConfiguration",
    "ThroughputReport",
    "Uniformization",
    "Workload",
    "WorkloadItem",
    "WorkflowCTMC",
    "WorkflowDefinition",
    "WorkflowState",
    "branch_and_bound_configuration",
    "build_workflow_ctmc",
    "erlang_phase",
    "exhaustive_configuration",
    "exponential_phase",
    "first_passage_cdf",
    "first_passage_quantile",
    "greedy_configuration",
    "hyperexponential_phase",
    "minimum_replicas_for_availability",
    "poisson_weights",
    "remove_self_loops",
    "simulated_annealing_configuration",
    "transient_distribution",
]
