"""A loan-approval workflow on the extended server landscape.

Unlike the other examples, this workflow spreads its activities over
*two* workflow engine types and *two* application server types (the
``m`` engines / ``n`` application servers of Figure 2): the credit-check
subworkflow runs on the second engine/application pair, modelling a
separate organizational unit.  Exercises configurations where the
critical server type differs per workflow type.

Expressed as a declarative :class:`~repro.scenarios.spec.WorkflowSpec`
(:func:`loan_spec`); chart and model lower from it.
"""

from __future__ import annotations

from repro.core.model_types import ActivitySpec
from repro.core.workflow_model import WorkflowDefinition
from repro.scenarios.adapters import (
    spec_to_chart,
    spec_to_definition,
)
from repro.scenarios.spec import (
    ArrivalSpec,
    RegionSpec,
    WorkflowSpec,
    activity,
    arm,
    loop,
    parallel,
    region,
    sequence,
)
from repro.spec.events import Not, Var
from repro.spec.statechart import StateChart
from repro.spec.translator import ActivityRegistry
from repro.workflows.common import (
    APPLICATION_SERVER_2,
    WORKFLOW_ENGINE_2,
    automated_activity,
    extended_server_types,
    interactive_activity,
)

#: Probability that the application is approved directly.
P_APPROVE = 0.55
#: Probability that the application is escalated for a senior review
#: (loop through an additional review state).
P_ESCALATE = 0.25

DURATION_APPLICATION = 20.0
DURATION_SCORING = 1.0
DURATION_CREDIT_BUREAU = 10.0
DURATION_COLLATERAL = 45.0
DURATION_DECISION = 15.0
DURATION_SENIOR_REVIEW = 120.0
DURATION_SIGNING = 60.0
DURATION_DISBURSE = 2.0
DURATION_CLOSE = 0.5

#: Default arrival rate in the benchmark mixes (documented choice).
ARRIVAL_RATE = 0.02


def _activity_specs() -> tuple[ActivitySpec, ...]:
    """The loan activities; credit activities live on the second pair."""
    return (
        interactive_activity("LoanApplication", DURATION_APPLICATION),
        automated_activity("Scoring", DURATION_SCORING),
        automated_activity(
            "CreditBureauQuery",
            DURATION_CREDIT_BUREAU,
            engine=WORKFLOW_ENGINE_2,
            app_server=APPLICATION_SERVER_2,
        ),
        interactive_activity(
            "CollateralAssessment",
            DURATION_COLLATERAL,
            engine=WORKFLOW_ENGINE_2,
        ),
        interactive_activity("LoanDecision", DURATION_DECISION),
        interactive_activity("SeniorReview", DURATION_SENIOR_REVIEW),
        interactive_activity("Signing", DURATION_SIGNING),
        automated_activity("Disburse", DURATION_DISBURSE),
        automated_activity("CloseFile", DURATION_CLOSE),
    )


def loan_activities() -> ActivityRegistry:
    """Activity catalogue; credit activities live on the second pair."""
    return ActivityRegistry(
        {spec.name: spec for spec in _activity_specs()}
    )


def _credit_check_region() -> RegionSpec:
    """External credit bureau query (second engine/application pair)."""
    return region("CreditCheck_SC", activity("CreditBureauQuery"))


def _risk_region() -> RegionSpec:
    """In-house scoring followed by collateral assessment."""
    return region(
        "Risk_SC",
        sequence(
            activity("Scoring"),
            activity("CollateralAssessment"),
        ),
    )


def loan_spec() -> WorkflowSpec:
    """Application -> parallel checks -> decision (approve / reject /
    escalate loop) -> signing -> disbursement -> close."""
    return WorkflowSpec(
        name="LoanApproval",
        body=sequence(
            activity("LoanApplication"),
            parallel(
                "Checks_S", _credit_check_region(), _risk_region()
            ),
            loop(
                activity("LoanDecision"),
                arm(
                    sequence(activity("Signing"), activity("Disburse")),
                    guard=Var("Approved"),
                    probability=P_APPROVE,
                ),
                arm(activity("SeniorReview"), guard=Var("Escalated"),
                    probability=P_ESCALATE, next="loop"),
                arm(guard=Not(Var("Approved")),
                    probability=1.0 - P_APPROVE - P_ESCALATE),
            ),
            activity("CloseFile"),
        ),
        activities=_activity_specs(),
        server_types=extended_server_types(),
        arrival=ArrivalSpec(rate=ARRIVAL_RATE),
    )


def loan_chart() -> StateChart:
    """The loan-approval chart, lowered from the spec."""
    return spec_to_chart(loan_spec())


def loan_workflow() -> WorkflowDefinition:
    """The loan-approval workflow translated into the model layer."""
    return spec_to_definition(loan_spec())
