"""NaN and infinite model inputs are rejected where they are read.

Python's ``json`` module parses the bare tokens ``NaN`` and
``Infinity``, and every ``x < 0.0`` style check lets NaN through.  An
unchecked NaN does not fail loudly further down: an arrival rate of NaN
silently drops the workflow out of the workload, and a NaN load or
failure rate yields a "satisfied" recommendation.  Each case here used
to pass validation.
"""

import json
import math
import sys

import numpy as np
import pytest

from repro.core.dtmc import AbsorbingDTMC
from repro.core.linalg import (
    validate_generator_matrix,
    validate_stochastic_matrix,
)
from repro.core.model_types import ActivitySpec, ServerTypeSpec
from repro.core.performance import SystemConfiguration
from repro.core.search import ReplicationConstraints
from repro.core.workflow_model import WorkflowState
from repro.exceptions import ValidationError
from repro.scenarios import (
    ArrivalSpec,
    bundled_scenarios,
    spec_from_dict,
    spec_to_dict,
    spec_to_project,
)
from repro.spec.statechart import ChartState

NAN = math.nan
INF = math.inf


def _ecommerce_document():
    entry = next(e for e in bundled_scenarios() if e.name == "ecommerce")
    return spec_to_dict(entry.spec())


def _parse(document):
    """Bytes → spec → project, as a recommendation request does."""
    return spec_to_project(
        [spec_from_dict(json.loads(json.dumps(document)))]
    )


class TestSpecDocuments:
    def test_intact_document_lowers(self):
        assert _parse(_ecommerce_document()).arrival_rates

    def test_nan_activity_load_is_rejected(self):
        document = _ecommerce_document()
        document["activities"][0]["loads"]["wf-engine"] = NAN
        with pytest.raises(ValidationError, match="load on wf-engine"):
            _parse(document)

    def test_nan_arrival_rate_is_rejected(self):
        document = _ecommerce_document()
        document["arrival"]["rate"] = NAN
        with pytest.raises(ValidationError, match="arrival rate"):
            _parse(document)

    def test_nan_failure_rate_is_rejected(self):
        document = _ecommerce_document()
        document["server_types"][0]["failure_rate"] = NAN
        with pytest.raises(ValidationError, match="failure rate"):
            _parse(document)

    @pytest.mark.parametrize("duration", [NAN, INF])
    def test_non_finite_routing_duration_is_rejected(self, duration):
        # Used to parse and lower; only the chain's residence check,
        # when the turnaround was solved, rejected it.
        document = _ecommerce_document()
        routing = document["body"]["blocks"][-1]
        assert routing["kind"] == "routing"
        routing["mean_duration"] = duration
        with pytest.raises(
            ValidationError,
            match="routing block EP_EXIT_S: mean_duration must be "
            "positive and finite",
        ):
            _parse(document)


class TestServerTypeSpec:
    @pytest.mark.parametrize(
        "field",
        ["mean_service_time", "second_moment_service_time",
         "failure_rate", "repair_rate", "cost"],
    )
    def test_nan_is_rejected(self, field):
        with pytest.raises(ValidationError):
            ServerTypeSpec("db", **{"mean_service_time": 0.5, field: NAN})

    @pytest.mark.parametrize(
        "field", ["mean_service_time", "failure_rate", "cost"]
    )
    def test_infinity_is_rejected_where_finite(self, field):
        with pytest.raises(ValidationError):
            ServerTypeSpec("db", **{"mean_service_time": 0.5, field: INF})

    def test_largest_mean_with_a_finite_square_is_accepted(self):
        largest = math.sqrt(sys.float_info.max)
        spec = ServerTypeSpec("db", largest)
        assert spec.mean_service_time == largest
        assert spec.second_moment_service_time == INF  # 2 * largest**2

    @pytest.mark.parametrize(
        "mean",
        [math.nextafter(math.sqrt(sys.float_info.max), INF), 1e160, 10**200],
        ids=["next-float", "1e160", "int"],
    )
    def test_mean_whose_square_overflows_is_rejected(self, mean):
        # Finite, but squaring it with ** used to raise OverflowError.
        with pytest.raises(ValidationError, match="square must be finite"):
            ServerTypeSpec("db", mean)
        with pytest.raises(ValidationError, match="square must be finite"):
            ServerTypeSpec("db", mean, second_moment_service_time=INF)

    def test_infinite_repair_rate_and_second_moment_stay_allowed(self):
        spec = ServerTypeSpec(
            "db", 0.5, second_moment_service_time=INF, repair_rate=INF
        )
        assert spec.single_server_availability == 1.0


class TestActivitySpec:
    @pytest.mark.parametrize("duration", [NAN, INF])
    def test_non_finite_duration_is_rejected(self, duration):
        with pytest.raises(ValidationError, match="mean duration"):
            ActivitySpec("a", duration)

    @pytest.mark.parametrize("requests", [NAN, INF])
    def test_non_finite_load_is_rejected(self, requests):
        with pytest.raises(ValidationError, match="load on x"):
            ActivitySpec("a", 1.0, loads={"x": requests})


class TestWorkflowStates:
    @pytest.mark.parametrize("duration", [NAN, INF])
    def test_non_finite_routing_duration_is_rejected(self, duration):
        with pytest.raises(
            ValidationError,
            match="state route: mean_duration must be positive and finite",
        ):
            WorkflowState("route", mean_duration=duration)

    @pytest.mark.parametrize("duration", [NAN, INF])
    def test_non_finite_chart_state_duration_is_rejected(self, duration):
        with pytest.raises(
            ValidationError,
            match="state route: mean_duration must be positive and finite",
        ):
            ChartState("route", mean_duration=duration)


class TestArrivalSpec:
    @pytest.mark.parametrize("rate", [NAN, INF])
    def test_non_finite_rate_is_rejected(self, rate):
        with pytest.raises(ValidationError, match="arrival rate"):
            ArrivalSpec(rate=rate)


class TestMatrices:
    def test_nan_stochastic_entry_is_rejected(self):
        p = np.array([[NAN, 1.0], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="must lie in"):
            validate_stochastic_matrix(p)

    def test_nan_absorbing_chain_is_rejected(self):
        # Unchecked, the chain was built and returned NaN visits.
        p = np.array([[0.0, NAN, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValidationError, match="must lie in"):
            AbsorbingDTMC(p)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_non_finite_generator_entry_is_rejected(self, value):
        q = np.array([[-1.0, 1.0], [value, -1.0]])
        with pytest.raises(ValidationError, match="must be finite"):
            validate_generator_matrix(q)

    def test_nan_generator_diagonal_is_rejected(self):
        q = np.array([[NAN, 1.0], [1.0, -1.0]])
        with pytest.raises(ValidationError, match="must be finite"):
            validate_generator_matrix(q)


class TestReplicaCounts:
    """Every non-integer count raises ``ValidationError``.

    These used to leak a bare ``ValueError`` (NaN, ``"x"``),
    ``OverflowError`` (infinities) or ``TypeError`` (``None``), or to be
    accepted as a count (``True`` as 1, ``False`` as 0).
    """

    @pytest.mark.parametrize(
        "count",
        [NAN, np.float64(NAN), INF, -INF, None, True, False, np.True_, "x",
         2.7, "3"],
        ids=[
            "nan", "numpy-nan", "inf", "-inf", "none", "true", "false",
            "numpy-true", "text", "fraction", "numeric-text",
        ],
    )
    def test_hostile_count_is_rejected(self, count):
        with pytest.raises(
            ValidationError, match="must be a non-negative integer"
        ):
            SystemConfiguration({"a": count})

    def test_integral_counts_become_ints(self):
        configuration = SystemConfiguration(
            {"a": 2, "b": 2.0, "c": np.int64(3), "d": np.float64(4.0)}
        )
        assert configuration.replicas == {"a": 2, "b": 2, "c": 3, "d": 4}
        assert all(
            type(count) is int for count in configuration.replicas.values()
        )


HOSTILE_BOUNDS = [NAN, np.float64(NAN), INF, -INF, None, True, False,
                  np.True_, "x", 2.5, 0, -1]
HOSTILE_IDS = ["nan", "numpy-nan", "inf", "-inf", "none", "true", "false",
               "numpy-true", "text", "fraction", "zero", "negative"]


class TestReplicationConstraints:
    """Bounds follow the replica-count rule plus a floor of 1.

    ``max_total_servers`` of NaN or 2.5 used to be accepted,
    ``maximum={'a': True}`` was taken as 1, and NaN or ``None`` bounds
    raised a bare ``ValueError`` or ``TypeError``.
    """

    @pytest.mark.parametrize("value", HOSTILE_BOUNDS, ids=HOSTILE_IDS)
    @pytest.mark.parametrize("bound", ["minimum", "maximum", "fixed"])
    def test_hostile_bound_is_rejected(self, bound, value):
        with pytest.raises(
            ValidationError, match=rf"{bound}\[a\] must be a positive integer"
        ):
            ReplicationConstraints(**{bound: {"a": value}})

    @pytest.mark.parametrize("value", HOSTILE_BOUNDS, ids=HOSTILE_IDS)
    def test_hostile_total_is_rejected(self, value):
        with pytest.raises(
            ValidationError, match="max_total_servers must be a positive"
        ):
            ReplicationConstraints(max_total_servers=value)

    def test_integral_bounds_become_ints(self):
        constraints = ReplicationConstraints(
            minimum={"a": 2.0}, maximum={"a": np.int64(5)},
            fixed={"b": np.float64(3.0)}, max_total_servers=np.int64(9),
        )
        assert constraints.minimum == {"a": 2}
        assert constraints.maximum == {"a": 5}
        assert constraints.fixed == {"b": 3}
        assert constraints.max_total_servers == 9
        assert all(
            type(value) is int
            for value in (
                constraints.minimum["a"], constraints.maximum["a"],
                constraints.fixed["b"], constraints.max_total_servers,
            )
        )
