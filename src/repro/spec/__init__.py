"""State-chart workflow specification language (Section 3.1).

State charts with ECA rules, nested states, and orthogonal components;
structural validation; an executable interpreter for the simulated WFMS;
and the translation into the stochastic model layer.  A chart comes from
lowering a :class:`~repro.scenarios.spec.WorkflowSpec`, from a workflow
definition (:func:`~repro.spec.translator.definition_to_chart`), or from
the :class:`StateChart` constructors.
"""

from repro.spec.events import (
    And,
    ECARule,
    Guard,
    Not,
    Or,
    RaiseEvent,
    SetCondition,
    StartActivity,
    TrueGuard,
    Var,
    completion_event,
)
from repro.spec.interpreter import (
    ActiveState,
    BranchResolver,
    GuardedResolver,
    InterpreterListener,
    ProbabilisticResolver,
    StateChartInterpreter,
    StatePath,
)
from repro.spec.statechart import ChartState, ChartTransition, StateChart
from repro.spec.translator import (
    DEFAULT_ROUTING_DURATION,
    ActivityRegistry,
    translate_chart,
)
from repro.spec.validation import (
    ChartIssue,
    IssueLevel,
    ensure_valid,
    validate_chart,
)

__all__ = [
    "ActiveState",
    "ActivityRegistry",
    "And",
    "BranchResolver",
    "ChartIssue",
    "ChartState",
    "ChartTransition",
    "DEFAULT_ROUTING_DURATION",
    "ECARule",
    "Guard",
    "GuardedResolver",
    "InterpreterListener",
    "IssueLevel",
    "Not",
    "Or",
    "ProbabilisticResolver",
    "RaiseEvent",
    "SetCondition",
    "StartActivity",
    "StateChart",
    "StateChartInterpreter",
    "StatePath",
    "TrueGuard",
    "Var",
    "completion_event",
    "ensure_valid",
    "translate_chart",
    "validate_chart",
]
