"""An insurance claim-handling workflow.

Long-running, document-heavy, with a resubmission loop and a parallel
assessment phase — the "enterprise-wide business process" archetype of
the paper's introduction (the second author's affiliation being a bank is
no accident).  Used in benchmark mixes to stress turnaround-time-driven
load (Little's law keeps many instances concurrently active).

Expressed as a declarative :class:`~repro.scenarios.spec.WorkflowSpec`
(:func:`insurance_spec`); chart and model lower from it.
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
    branch,
    loop,
    parallel,
    region,
    sequence,
)
from repro.spec.events import Not, Var
from repro.spec.statechart import StateChart
from repro.spec.translator import ActivityRegistry
from repro.workflows.common import (
    automated_activity,
    interactive_activity,
    standard_server_types,
)

#: Probability that submitted documents are incomplete (loop back).
P_DOCUMENTS_MISSING = 0.25
#: Probability that the claim is approved after assessment.
P_APPROVE = 0.7

DURATION_REGISTER = 15.0
DURATION_CHECK_COVERAGE = 2.0
DURATION_REQUEST_DOCUMENTS = 240.0
DURATION_DAMAGE_INSPECTION = 90.0
DURATION_WITNESS_REVIEW = 60.0
DURATION_FRAUD_SCORING = 5.0
DURATION_DECIDE = 30.0
DURATION_PAY = 3.0
DURATION_REJECT_LETTER = 10.0
DURATION_CLOSE = 0.5

#: Default arrival rate in the benchmark mixes (documented choice).
ARRIVAL_RATE = 0.05


def _activity_specs() -> tuple[ActivitySpec, ...]:
    """The claim-handling activities with Figure-1 request counts."""
    return (
        interactive_activity("RegisterClaim", DURATION_REGISTER),
        automated_activity("CheckCoverage", DURATION_CHECK_COVERAGE),
        interactive_activity(
            "RequestDocuments", DURATION_REQUEST_DOCUMENTS
        ),
        interactive_activity(
            "DamageInspection", DURATION_DAMAGE_INSPECTION
        ),
        interactive_activity("WitnessReview", DURATION_WITNESS_REVIEW),
        automated_activity("FraudScoring", DURATION_FRAUD_SCORING),
        interactive_activity("DecideClaim", DURATION_DECIDE),
        automated_activity("PayClaim", DURATION_PAY),
        automated_activity("RejectLetter", DURATION_REJECT_LETTER),
        automated_activity("CloseClaim", DURATION_CLOSE),
    )


def insurance_activities() -> ActivityRegistry:
    """Activity catalogue of the claim-handling workflow."""
    return ActivityRegistry(
        {spec.name: spec for spec in _activity_specs()}
    )


def _inspection_region() -> RegionSpec:
    """Physical assessment: damage inspection, then witness review."""
    return region(
        "Inspection_SC",
        sequence(
            activity("DamageInspection"),
            activity("WitnessReview"),
        ),
    )


def _fraud_region() -> RegionSpec:
    """Automated fraud scoring, running in parallel to the inspection."""
    return region("Fraud_SC", activity("FraudScoring"))


def insurance_spec() -> WorkflowSpec:
    """Register -> coverage check (documents loop) -> parallel assessment
    -> decision -> pay or reject -> close."""
    return WorkflowSpec(
        name="InsuranceClaim",
        body=sequence(
            activity("RegisterClaim"),
            loop(
                activity("CheckCoverage"),
                arm(activity("RequestDocuments"),
                    guard=Var("DocumentsMissing"),
                    probability=P_DOCUMENTS_MISSING,
                    next="loop"),
                arm(guard=Not(Var("DocumentsMissing")),
                    probability=1.0 - P_DOCUMENTS_MISSING),
            ),
            parallel(
                "Assessment_S", _inspection_region(), _fraud_region()
            ),
            activity("DecideClaim"),
            branch(
                arm(activity("PayClaim"), guard=Var("Approved"),
                    probability=P_APPROVE),
                arm(activity("RejectLetter"), guard=Not(Var("Approved")),
                    probability=1.0 - P_APPROVE),
            ),
            activity("CloseClaim"),
        ),
        activities=_activity_specs(),
        server_types=standard_server_types(),
        arrival=ArrivalSpec(rate=ARRIVAL_RATE),
    )


def insurance_chart() -> StateChart:
    """The claim-handling chart, lowered from the spec."""
    return spec_to_chart(insurance_spec())


def insurance_workflow() -> WorkflowDefinition:
    """The claim-handling workflow translated into the model layer."""
    return spec_to_definition(insurance_spec())
