"""The paper's electronic purchase (EP) workflow (Figures 3 and 4).

A simplified e-commerce scenario similar to TPC-C, combining multiple
transaction types into one workflow with the full spectrum of control
flow: a branching split after ``NewOrder`` (pay by credit card or not), a
possible early termination on credit-card problems, the nested top-level
state ``Shipment_S`` spawning the two orthogonal/parallel subworkflows
``Notify_SC`` and ``Delivery_SC``, a join on their termination, a second
payment-mode split, a reminder *loop* for unpaid invoices, and the final
state ``EP_EXIT_S``.

The paper prints the chart's structure (Figure 3) and states that the
CTMC of Figure 4 has seven execution states plus the absorbing state; the
figure's transition probabilities and residence times are explicitly
"fictitious for mere illustration" and not printed in the text, so the
values below are this reproduction's documented choices.  They are chosen
to be *internally consistent*: the probability of paying by credit card
given that shipment is reached equals
``P(card) * P(card ok) / (P(card) * P(card ok) + P(no card))``.

The workflow is expressed as a declarative
:class:`~repro.scenarios.spec.WorkflowSpec` (:func:`ecommerce_spec`); the
chart and model-layer artifacts are lowered from it.
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
    routing,
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

# ----------------------------------------------------------------------
# Branching probabilities (documented reproduction choices)
# ----------------------------------------------------------------------
#: Probability that the customer pays by credit card.
P_PAY_BY_CARD = 0.6
#: Probability that the credit card check finds a problem (terminating
#: the workflow early).
P_CARD_PROBLEM = 0.1
#: Probability that an invoice remains unpaid and a reminder is sent
#: (the loop of Figure 3).
P_REMINDER = 0.3
#: Probability that delivery finds the article out of stock.
P_OUT_OF_STOCK = 0.2

#: Probability of the credit-card branch after shipment, conditioned on
#: reaching shipment at all (kept consistent with the first split).
P_CARD_AFTER_SHIPMENT = (
    P_PAY_BY_CARD * (1.0 - P_CARD_PROBLEM)
    / (P_PAY_BY_CARD * (1.0 - P_CARD_PROBLEM) + (1.0 - P_PAY_BY_CARD))
)

# Mean activity durations in minutes (documented reproduction choices).
DURATION_NEW_ORDER = 10.0
DURATION_CREDIT_CARD_CHECK = 1.0
DURATION_PREPARE_NOTIFICATION = 0.5
DURATION_SEND_NOTIFICATION = 0.5
DURATION_CHECK_STOCK = 1.0
DURATION_REORDER = 120.0
DURATION_SHIP = 30.0
DURATION_UPDATE_BILLING = 1.0
DURATION_CREDIT_CARD_PAYMENT = 1.0
DURATION_INVOICE_PAYMENT = 30.0
DURATION_SEND_REMINDER = 2.0
DURATION_EXIT = 0.1

#: Default arrival rate in the benchmark mixes (``init-demo`` uses it).
ARRIVAL_RATE = 0.4


def _activity_specs() -> tuple[ActivitySpec, ...]:
    """The EP activities with Figure-1 request counts."""
    return (
        interactive_activity("NewOrder", DURATION_NEW_ORDER),
        automated_activity("CreditCardCheck", DURATION_CREDIT_CARD_CHECK),
        automated_activity(
            "PrepareNotification", DURATION_PREPARE_NOTIFICATION
        ),
        automated_activity("SendNotification", DURATION_SEND_NOTIFICATION),
        automated_activity("CheckStock", DURATION_CHECK_STOCK),
        automated_activity("Reorder", DURATION_REORDER),
        interactive_activity("Ship", DURATION_SHIP),
        automated_activity("UpdateBilling", DURATION_UPDATE_BILLING),
        automated_activity(
            "CreditCardPayment", DURATION_CREDIT_CARD_PAYMENT
        ),
        interactive_activity("InvoicePayment", DURATION_INVOICE_PAYMENT),
        automated_activity("SendReminder", DURATION_SEND_REMINDER),
    )


def ecommerce_activities() -> ActivityRegistry:
    """Activity catalogue of the EP workflow (Figure-1 request counts)."""
    return ActivityRegistry(
        {spec.name: spec for spec in _activity_specs()}
    )


def _notify_region() -> RegionSpec:
    """``Notify_SC``: prepare and send the customer notification."""
    return region(
        "Notify_SC",
        sequence(
            activity("PrepareNotification"),
            activity("SendNotification"),
        ),
    )


def _delivery_region() -> RegionSpec:
    """``Delivery_SC``: stock check, optional reorder, shipping, billing."""
    return region(
        "Delivery_SC",
        sequence(
            activity("CheckStock"),
            branch(
                arm(guard=Var("InStock"),
                    probability=1.0 - P_OUT_OF_STOCK),
                arm(activity("Reorder"), guard=Not(Var("InStock")),
                    probability=P_OUT_OF_STOCK),
            ),
            activity("Ship"),
            activity("UpdateBilling"),
        ),
    )


def ecommerce_spec() -> WorkflowSpec:
    """The EP workflow as a declarative spec (Figure 3's structure)."""
    return WorkflowSpec(
        name="EP",
        body=sequence(
            activity("NewOrder"),
            branch(
                arm(
                    sequence(
                        activity("CreditCardCheck"),
                        branch(
                            arm(guard=Var("CardProblem"),
                                probability=P_CARD_PROBLEM,
                                next="final"),
                            arm(guard=Not(Var("CardProblem")),
                                probability=1.0 - P_CARD_PROBLEM),
                        ),
                    ),
                    guard=Var("PayByCreditCard"),
                    probability=P_PAY_BY_CARD,
                ),
                arm(guard=Not(Var("PayByCreditCard")),
                    probability=1.0 - P_PAY_BY_CARD),
            ),
            parallel("Shipment_S", _notify_region(), _delivery_region()),
            branch(
                arm(activity("CreditCardPayment"),
                    guard=Var("PayByCreditCard"),
                    probability=P_CARD_AFTER_SHIPMENT),
                arm(
                    loop(
                        activity("InvoicePayment"),
                        arm(guard=Var("InvoicePaid"),
                            probability=1.0 - P_REMINDER),
                        arm(activity("SendReminder"),
                            guard=Not(Var("InvoicePaid")),
                            probability=P_REMINDER,
                            next="loop"),
                    ),
                    guard=Not(Var("PayByCreditCard")),
                    probability=1.0 - P_CARD_AFTER_SHIPMENT,
                ),
            ),
            routing("EP_EXIT_S", DURATION_EXIT),
        ),
        activities=_activity_specs(),
        server_types=standard_server_types(),
        arrival=ArrivalSpec(rate=ARRIVAL_RATE),
    )


def ecommerce_chart() -> StateChart:
    """The top-level EP state chart (Figure 3), lowered from the spec.

    Seven top-level states — ``NewOrder``, ``CreditCardCheck``,
    ``Shipment_S`` (hosting the two parallel subworkflows),
    ``CreditCardPayment``, ``InvoicePayment``, ``SendReminder``,
    ``EP_EXIT_S`` — matching Figure 4's "seven further states" besides
    the absorbing state.
    """
    return spec_to_chart(ecommerce_spec())


def ecommerce_workflow() -> WorkflowDefinition:
    """The EP workflow translated into the model layer (Figure 4)."""
    return spec_to_definition(ecommerce_spec())
