"""A cross-organization travel-booking workflow.

The paper's abstract motivates WFMSs "geared for the orchestration of
enterprise-wide or even 'virtual-enterprise'-style business processes
across multiple organizations"; this workflow models that setting: three
*parallel* bookings (flight, hotel, rental car) handled by different
organizations, a confirmation step, and a cancellation/compensation
branch that undoes the bookings when the customer rejects the offer —
the widest parallel join in the example library.

Expressed as a declarative :class:`~repro.scenarios.spec.WorkflowSpec`
(:func:`travel_spec`); chart and model lower from it.
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

#: Probability that the customer accepts the combined offer.
P_ACCEPT = 0.8
#: Probability that a hotel needs a manual room negotiation round.
P_NEGOTIATE = 0.15

DURATION_REQUEST = 15.0
DURATION_FLIGHT_SEARCH = 2.0
DURATION_FLIGHT_BOOK = 1.0
DURATION_HOTEL_SEARCH = 3.0
DURATION_NEGOTIATE = 60.0
DURATION_HOTEL_BOOK = 1.0
DURATION_CAR_BOOK = 2.0
DURATION_CONFIRM = 30.0
DURATION_INVOICE = 2.0
DURATION_CANCEL = 5.0
DURATION_CLOSE = 0.2

#: Default arrival rate in the benchmark mixes (documented choice).
ARRIVAL_RATE = 0.1


def _activity_specs() -> tuple[ActivitySpec, ...]:
    """The travel-booking activities with Figure-1 request counts."""
    return (
        interactive_activity("TravelRequest", DURATION_REQUEST),
        automated_activity("FlightSearch", DURATION_FLIGHT_SEARCH),
        automated_activity("FlightBooking", DURATION_FLIGHT_BOOK),
        automated_activity("HotelSearch", DURATION_HOTEL_SEARCH),
        interactive_activity("RoomNegotiation", DURATION_NEGOTIATE),
        automated_activity("HotelBooking", DURATION_HOTEL_BOOK),
        automated_activity("CarBooking", DURATION_CAR_BOOK),
        interactive_activity("ConfirmOffer", DURATION_CONFIRM),
        automated_activity("SendInvoice", DURATION_INVOICE),
        automated_activity("CancelBookings", DURATION_CANCEL),
        automated_activity("CloseTrip", DURATION_CLOSE),
    )


def travel_activities() -> ActivityRegistry:
    """Activity catalogue of the travel-booking workflow."""
    return ActivityRegistry(
        {spec.name: spec for spec in _activity_specs()}
    )


def _flight_region() -> RegionSpec:
    """Airline organization: search, then book."""
    return region(
        "Flight_SC",
        sequence(activity("FlightSearch"), activity("FlightBooking")),
    )


def _hotel_region() -> RegionSpec:
    """Hotel chain: search, optional negotiation round, booking."""
    return region(
        "Hotel_SC",
        sequence(
            activity("HotelSearch"),
            branch(
                arm(activity("RoomNegotiation"),
                    guard=Var("NeedsNegotiation"),
                    probability=P_NEGOTIATE),
                arm(guard=Not(Var("NeedsNegotiation")),
                    probability=1.0 - P_NEGOTIATE),
            ),
            activity("HotelBooking"),
        ),
    )


def _car_region() -> RegionSpec:
    """Car rental agency: a single automated booking."""
    return region("Car_SC", activity("CarBooking"))


def travel_spec() -> WorkflowSpec:
    """Request -> three parallel bookings -> confirm -> invoice/cancel."""
    return WorkflowSpec(
        name="TravelBooking",
        body=sequence(
            activity("TravelRequest"),
            parallel(
                "Bookings_S",
                _flight_region(),
                _hotel_region(),
                _car_region(),
            ),
            activity("ConfirmOffer"),
            branch(
                arm(activity("SendInvoice"), guard=Var("OfferAccepted"),
                    probability=P_ACCEPT),
                arm(activity("CancelBookings"),
                    guard=Not(Var("OfferAccepted")),
                    probability=1.0 - P_ACCEPT),
            ),
            activity("CloseTrip"),
        ),
        activities=_activity_specs(),
        server_types=standard_server_types(),
        arrival=ArrivalSpec(rate=ARRIVAL_RATE),
    )


def travel_chart() -> StateChart:
    """The travel-booking chart, lowered from the spec."""
    return spec_to_chart(travel_spec())


def travel_workflow() -> WorkflowDefinition:
    """The travel-booking workflow translated into the model layer."""
    return spec_to_definition(travel_spec())
