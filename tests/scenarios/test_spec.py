"""Tests for the WorkflowSpec IR: construction rules and JSON round-trips."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.scenarios import (
    ArrivalSpec,
    WorkflowSpec,
    activity,
    arm,
    branch,
    generate_spec,
    load_spec,
    loop,
    parallel,
    region,
    routing,
    save_spec,
    sequence,
    spec_from_dict,
    spec_to_dict,
    spec_to_json,
    subworkflow,
)
from repro.scenarios.spec import guard_from_dict, guard_to_dict
from repro.spec.events import And, Not, Or, TrueGuard, Var
from repro.workflows import (
    ecommerce_spec,
    insurance_spec,
    loan_spec,
    order_processing_spec,
    travel_spec,
)

ALL_SPEC_FACTORIES = (
    ecommerce_spec,
    order_processing_spec,
    insurance_spec,
    loan_spec,
    travel_spec,
)


def _tiny_spec():
    from repro.workflows.common import (
        automated_activity,
        standard_server_types,
    )

    body = sequence(
        activity("A"),
        branch(
            arm(block=activity("B"), guard=Var("ok"), probability=0.7),
            arm(guard=Not(Var("ok")), probability=0.3),
        ),
        loop(
            activity("C"),
            arm(guard=Var("retry"), probability=0.2, next="loop"),
            arm(probability=0.8),
        ),
        parallel(
            "P_S",
            region("R1_SC", sequence(activity("D"))),
            region("R2_SC", sequence(activity("E"))),
        ),
        subworkflow("Sub_S", region("Sub_SC", sequence(activity("F")))),
        routing("Exit_S", 0.5),
    )
    return WorkflowSpec(
        name="Tiny",
        body=body,
        activities=tuple(
            automated_activity(name, 2.0)
            for name in ("A", "B", "C", "D", "E", "F")
        ),
        server_types=standard_server_types(),
        arrival=ArrivalSpec(rate=0.1),
    )


class TestConstruction:
    def test_branch_needs_two_arms(self):
        with pytest.raises(ValidationError):
            branch(arm(probability=1.0))

    def test_branch_rejects_loop_next(self):
        with pytest.raises(ValidationError):
            branch(
                arm(probability=0.5, next="loop"),
                arm(probability=0.5),
            )

    def test_loop_needs_a_loop_arm(self):
        with pytest.raises(ValidationError):
            loop(activity("A"), arm(probability=1.0))

    def test_arm_rejects_unknown_next(self):
        with pytest.raises(ValidationError):
            arm(probability=1.0, next="sideways")

    def test_sequence_must_start_with_an_entry_block(self):
        with pytest.raises(ValidationError):
            sequence(
                branch(arm(probability=0.5), arm(probability=0.5)),
                activity("A"),
            )

    def test_parallel_needs_two_regions(self):
        with pytest.raises(ValidationError):
            parallel("P_S", region("R_SC", sequence(activity("A"))))

    def test_arrival_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            ArrivalSpec(rate=0.1, kind="bursty")

    def test_activity_lookup(self):
        spec = _tiny_spec()
        assert spec.activity("A").name == "A"
        with pytest.raises(ValidationError):
            spec.activity("Nope")

    def test_structure_metrics(self):
        spec = _tiny_spec()
        assert spec.state_count() == 9
        assert spec.nesting_depth() == 1


class TestRoundTrip:
    @pytest.mark.parametrize(
        "factory", ALL_SPEC_FACTORIES, ids=lambda f: f.__name__
    )
    def test_bundled_specs_round_trip(self, factory):
        spec = factory()
        assert spec_from_dict(spec_to_dict(spec)) == spec

    @pytest.mark.parametrize(
        "factory", ALL_SPEC_FACTORIES, ids=lambda f: f.__name__
    )
    def test_bundled_specs_json_round_trip(self, factory):
        spec = factory()
        text = spec_to_json(spec)
        assert spec_from_dict(json.loads(text)) == spec
        # Canonical form: re-serializing is a fixed point.
        assert spec_to_json(spec_from_dict(json.loads(text))) == text

    def test_tiny_spec_round_trips(self):
        spec = _tiny_spec()
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_save_load_round_trip(self, tmp_path):
        spec = _tiny_spec()
        path = tmp_path / "tiny.spec.json"
        save_spec(spec, path)
        assert load_spec(path) == spec

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        index=st.integers(min_value=0, max_value=64),
    )
    def test_random_specs_round_trip(self, seed, index):
        spec = generate_spec(seed, index=index)
        document = spec_to_dict(spec)
        restored = spec_from_dict(document)
        assert restored == spec
        assert spec_to_dict(restored) == document


class TestGuardRoundTrip:
    @pytest.mark.parametrize(
        "guard",
        [
            TrueGuard(),
            Var("PayByCreditCard"),
            Not(Var("x")),
            And(Var("a"), Not(Var("b"))),
            Or(Var("a"), And(Var("b"), Var("c"))),
            Not(Or(Var("a"), Not(And(Var("b"), TrueGuard())))),
        ],
    )
    def test_round_trip(self, guard):
        restored = guard_from_dict(guard_to_dict(guard))
        assert restored == guard

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError):
            guard_from_dict({"type": "xor"})


class TestDeserializationErrors:
    def test_rejects_unknown_schema(self):
        document = spec_to_dict(_tiny_spec())
        document["schema"] = "something/else"
        with pytest.raises(ValidationError):
            spec_from_dict(document)

    def test_rejects_unknown_block_kind(self):
        document = spec_to_dict(_tiny_spec())
        document["body"]["blocks"][0]["kind"] = "teleport"
        with pytest.raises(ValidationError):
            spec_from_dict(document)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_spec(tmp_path / "absent.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError):
            load_spec(path)
