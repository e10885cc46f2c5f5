"""Tests for the streaming calibrator against an independent oracle."""

import json
import math
import random
from collections import Counter
from functools import partial
from typing import Any

import pytest

from repro.exceptions import ValidationError
from repro.monitor.audit import (
    TERMINATION,
    AuditTrail,
    InstanceRecord,
    ServiceRequestRecord,
    StateVisitRecord,
)
from repro.monitor.persistence import (
    iter_trail_records,
    iter_trail_rows,
    save_trail,
)
from repro.monitor.stream import StreamingCalibrator

#: Means and the second moment: the stream's Welford accumulators and
#: the oracle's exactly rounded sums agree to rounding, not bitwise.
close = partial(pytest.approx, rel=1e-12, abs=0.0)

#: The observation period arrival rates are estimated over.
PERIOD = 500.0

#: The per-workflow-type estimates: ratios of counts, which the stream
#: must match exactly, then means, which agree to rounding.
EXACT = ("transition_probabilities", "requests_per_instance", "arrival_rate")
ESTIMATES = (*EXACT, "residence_times", "turnaround_time")


def synthetic_trail(
    seed: int = 7, instances: int = 40, workflow_type: str = "wf"
) -> AuditTrail:
    """A deterministic random trail exercising every record category."""
    rng = random.Random(seed)
    trail = AuditTrail()
    clock = 0.0
    for instance in range(instances):
        clock += rng.expovariate(0.5)
        start = clock
        time = start
        state = "a"
        while state is not None:
            residence = rng.expovariate(1.0 / (1.0 + len(state)))
            successor = {
                "a": lambda: "b" if rng.random() < 0.7 else "c",
                "b": lambda: "c",
                "c": lambda: None,
            }[state]()
            trail.record_state_visit(
                StateVisitRecord(
                    instance_id=instance,
                    workflow_type=workflow_type,
                    state=state,
                    entered_at=time,
                    left_at=time + residence,
                    next_state=successor if successor else TERMINATION,
                )
            )
            for _ in range(rng.randrange(0, 3)):
                submitted = time + rng.random() * residence * 0.5
                waited = rng.random() * 0.2
                trail.record_service_request(
                    ServiceRequestRecord(
                        server_type=rng.choice(("engine", "app")),
                        server_name="srv#0",
                        submitted_at=submitted,
                        started_at=submitted + waited,
                        completed_at=submitted + waited + rng.random(),
                        instance_id=instance,
                    )
                )
            time += residence
            state = successor
        trail.record_instance(
            InstanceRecord(
                instance_id=instance,
                workflow_type=workflow_type,
                started_at=start,
                completed_at=time,
            )
        )
    return trail


def simulated_trail() -> AuditTrail:
    """A simulated WFMS trail: two workflow types, unfinished instances."""
    from repro.core.performance import SystemConfiguration
    from repro.wfms import SimulatedWFMS, SimulatedWorkflowType
    from repro.workflows import (
        ecommerce_activities,
        ecommerce_chart,
        order_processing_activities,
        order_processing_chart,
        standard_server_types,
    )

    wfms = SimulatedWFMS(
        standard_server_types(),
        SystemConfiguration(
            {"comm-server": 1, "wf-engine": 1, "app-server": 2}
        ),
        [
            SimulatedWorkflowType(
                ecommerce_chart(), ecommerce_activities(), 0.2
            ),
            SimulatedWorkflowType(
                order_processing_chart(), order_processing_activities(), 0.1
            ),
        ],
        seed=5,
        inject_failures=False,
    )
    return wfms.run(duration=2000.0, warmup=100.0).trail


def mean(values: list[float]) -> float:
    """Exactly rounded sum over count."""
    return math.fsum(values) / len(values)


def oracle(trail: AuditTrail, workflow_type: str) -> dict[str, Any]:
    """The Section 7.1 estimates of one workflow type, from first
    principles.

    Counts with :class:`~collections.Counter` and sums with
    :func:`math.fsum` over the whole trail: no running accumulator and
    no dependence on the order the records come in.  Counts and ratios
    of counts therefore equal the stream's exactly; means agree with
    its Welford accumulators to rounding.
    """
    visits = [
        r for r in trail.state_visits if r.workflow_type == workflow_type
    ]
    instances = [
        r for r in trail.instances if r.workflow_type == workflow_type
    ]
    departures = Counter(r.state for r in visits)
    moves = Counter((r.state, r.next_state) for r in visits)
    completed = {r.instance_id for r in instances}
    attributed = Counter(
        r.server_type for r in trail.service_requests
        if r.instance_id in completed
    )
    return {
        "transition_probabilities": {
            (state, target): count / departures[state]
            for (state, target), count in moves.items()
            if target != TERMINATION
        },
        "residence_times": {
            state: mean([r.residence_time for r in visits if r.state == state])
            for state in departures
        },
        "turnaround_time": mean([r.turnaround_time for r in instances]),
        "arrival_rate": len(instances) / PERIOD,
        "requests_per_instance": {
            server: count / len(completed)
            for server, count in attributed.items()
        },
    }


def service_oracle(trail: AuditTrail) -> dict[str, list]:
    """Per server type: sample count, mean service time, its second
    moment, and mean waiting time, from first principles."""
    requests: dict[str, list[ServiceRequestRecord]] = {}
    for r in trail.service_requests:
        requests.setdefault(r.server_type, []).append(r)
    return {
        server: [
            len(served),
            mean([r.service_time for r in served]),
            mean([r.service_time * r.service_time for r in served]),
            mean([r.waiting_time for r in served]),
        ]
        for server, served in requests.items()
    }


def replayed(trail: AuditTrail) -> StreamingCalibrator:
    calibrator = StreamingCalibrator()
    calibrator.replay(trail)
    return calibrator


def assert_estimate(
    stream: StreamingCalibrator,
    trail: AuditTrail,
    workflow_type: str,
    quantity: str,
) -> None:
    """One of ``stream``'s :data:`ESTIMATES` of ``workflow_type`` against
    the oracle's."""
    expected = oracle(trail, workflow_type)[quantity]
    if quantity == "arrival_rate":
        actual = stream.arrival_rate(workflow_type, PERIOD)
    else:
        actual = getattr(stream, quantity)(workflow_type)
    assert actual == (expected if quantity in EXACT else close(expected))


def assert_matches_oracle(
    stream: StreamingCalibrator, trail: AuditTrail
) -> None:
    """Every estimate of ``stream`` against the oracles: counts and
    ratios of counts exactly, means and second moments to rounding."""
    types = sorted({r.workflow_type for r in trail.instances})
    assert sorted(stream.workflow_types()) == types
    for workflow_type in types:
        for quantity in ESTIMATES:
            assert_estimate(stream, trail, workflow_type, quantity)
    assert_service_times_match(stream, trail)


def assert_service_times_match(
    stream: StreamingCalibrator, trail: AuditTrail
) -> None:
    """The stream's per-server-type service estimates against
    :func:`service_oracle`: sample counts exactly, moments to rounding."""
    services = stream.service_times()
    expected_services = service_oracle(trail)
    assert set(services) == set(expected_services)
    for server, (count, *moments) in expected_services.items():
        estimate = services[server]
        assert estimate.sample_count == count
        assert [
            estimate.mean, estimate.second_moment, estimate.mean_waiting_time
        ] == close(moments)


class TestBitwiseParityWithBatch:
    """One estimate each of the replayed default trail against the
    whole-trail (batch) oracle: counts and ratios of counts bitwise,
    means and second moments to rounding."""

    @staticmethod
    def check(quantity: str) -> None:
        trail = synthetic_trail()
        assert_estimate(replayed(trail), trail, "wf", quantity)

    def test_transition_probabilities(self):
        self.check("transition_probabilities")

    def test_residence_times(self):
        self.check("residence_times")

    def test_turnaround_time(self):
        self.check("turnaround_time")

    def test_arrival_rate(self):
        self.check("arrival_rate")

    def test_service_times(self):
        trail = synthetic_trail()
        assert_service_times_match(replayed(trail), trail)

    def test_requests_per_instance(self):
        self.check("requests_per_instance")


#: The trails the stream is checked on: synthetic ones of several seeds
#: and a simulated WFMS run.
TRAILS = {
    "seed-7": lambda: synthetic_trail(seed=7, instances=400),
    "seed-11": lambda: synthetic_trail(seed=11, instances=400),
    "seed-29": lambda: synthetic_trail(seed=29, instances=400),
    "seed-101": lambda: synthetic_trail(seed=101, instances=400),
    "wfms": simulated_trail,
}


@pytest.fixture(scope="module", params=sorted(TRAILS))
def trail(request) -> AuditTrail:
    return TRAILS[request.param]()


class TestParityWithOracle:
    def test_replay_matches_oracle(self, trail):
        assert_matches_oracle(replayed(trail), trail)

    def test_flat_workflow_reconstruction(self, trail):
        stream = replayed(trail)
        for workflow_type in stream.workflow_types():
            expected = oracle(trail, workflow_type)
            probabilities = expected["transition_probabilities"]
            residence = expected["residence_times"]
            initial = next(
                r.state for r in trail.state_visits
                if r.workflow_type == workflow_type
            )
            definition = stream.flat_workflow(workflow_type, initial)
            assert definition.transitions == probabilities
            assert [state.name for state in definition.states] == sorted(
                set(residence) | {target for _, target in probabilities}
            )
            for state in definition.states:
                assert state.activity is None
                # A state seen only as a target: a near-instant duration.
                assert state.mean_duration == close(
                    residence.get(state.name, 1e-6)
                )

    def test_interleaved_feed_matches_category_order(self, trail):
        # A live feed interleaves the categories; each category updates
        # its own accumulators, so only per-category order matters.
        interleaved = StreamingCalibrator()
        pools = [
            iter(trail.state_visits),
            iter(trail.service_requests),
            iter(trail.instances),
        ]
        rng = random.Random(3)
        while pools:
            pool = rng.choice(pools)
            record = next(pool, None)
            if record is None:
                pools.remove(pool)
                continue
            interleaved.replay_records([record])
        assert_matches_oracle(interleaved, trail)
        assert interleaved.export_state() == replayed(trail).export_state()


class TestPersistenceRoundTrip:
    def test_jsonl_stream_matches_batch(self, tmp_path):
        # save -> iter_trail_rows -> observe_rows must reach the state of
        # the in-memory replay of the whole trail, and the oracle.
        trail = synthetic_trail(seed=11, instances=400)
        path = tmp_path / "trail.jsonl"
        count = save_trail(trail, path)
        stream = StreamingCalibrator()
        assert stream.observe_rows(iter_trail_rows(path)) == count
        assert stream.records_seen == count
        assert stream.export_state() == replayed(trail).export_state()
        assert_matches_oracle(stream, trail)

    def test_iter_trail_records_preserves_file_order(self, tmp_path):
        trail = synthetic_trail(seed=2, instances=5)
        path = tmp_path / "trail.jsonl"
        save_trail(trail, path)
        records = list(iter_trail_records(path))
        visits = [r for r in records if isinstance(r, StateVisitRecord)]
        assert visits == list(trail.state_visits)

    def test_iter_trail_records_reports_bad_lines(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"kind": "state_visit"}\n')
        with pytest.raises(ValidationError):
            list(iter_trail_records(path))


class TestEmptyConditions:
    def test_unobserved_workflow_type_raises(self):
        stream = replayed(synthetic_trail())
        with pytest.raises(ValidationError):
            stream.transition_probabilities("other")
        with pytest.raises(ValidationError):
            stream.residence_times("other")
        with pytest.raises(ValidationError):
            stream.turnaround_time("other")
        with pytest.raises(ValidationError):
            stream.requests_per_instance("other")

    def test_nonpositive_observation_period_rejected(self):
        stream = replayed(synthetic_trail())
        for period in (0.0, math.nan):
            with pytest.raises(ValidationError):
                stream.arrival_rate("wf", period)
        # An explicit document period must be finite too.
        for period in (math.nan, math.inf, -math.inf, 0.0, -5.0):
            with pytest.raises(ValidationError, match="positive and finite"):
                stream.document(period)

    def test_overflowing_default_observation_period_rejected(self):
        # Two valid rows about 3.4e308 apart: the span overflows to inf.
        stream = StreamingCalibrator()
        stream.replay_records(
            InstanceRecord(
                instance_id=i, workflow_type="wf",
                started_at=at, completed_at=at,
            )
            for i, at in enumerate((-1.7e308, 1.7e308))
        )
        assert stream.observed_span == math.inf
        with pytest.raises(
            ValidationError,
            match="observation period must be positive and finite, got inf",
        ):
            stream.document()
        assert stream.document(10.0)["observation_period"] == 10.0

    def test_zero_default_span_leaves_arrival_rates_unset(self):
        stream = StreamingCalibrator()
        stream.replay_records([
            InstanceRecord(
                instance_id=0, workflow_type="wf",
                started_at=5.0, completed_at=5.0,
            )
        ])
        document = stream.document()
        assert document["observation_period"] == 0.0
        assert document["workflow_types"]["wf"]["arrival_rate"] is None

    def test_invalid_window_rejected(self):
        for window in (math.nan, math.inf, -math.inf, 0.0, -5.0):
            with pytest.raises(ValidationError, match="positive and finite"):
                StreamingCalibrator(window=window)


class TestStreamingExtras:
    def test_windowed_arrival_rate_tracks_recent_completions(self):
        stream = StreamingCalibrator(window=10.0)
        stream.replay_records(
            InstanceRecord(
                instance_id=i, workflow_type="wf",
                started_at=float(i), completed_at=float(i) + 0.5,
            )
            for i in range(20)
        )
        # Only completions inside the trailing 10-unit window count.
        assert stream.windowed_arrival_rate("wf") == pytest.approx(1.0)
        assert stream.windowed_arrival_rate("other") == 0.0

    def test_workflow_and_server_type_introspection(self):
        stream = replayed(synthetic_trail())
        assert stream.workflow_types() == frozenset({"wf"})
        assert stream.server_types() == frozenset({"engine", "app"})
        assert stream.observed_span > 0.0

    def test_document_reports_every_estimate(self):
        stream = replayed(synthetic_trail())
        document = stream.document()
        assert document["schema"] == "repro.monitor.stream/v1"
        assert document["records_seen"] == stream.records_seen
        entry = document["workflow_types"]["wf"]
        assert entry["completed_instances"] == 40
        assert entry["turnaround_time"] == stream.turnaround_time("wf")
        assert set(document["server_types"]) == {"engine", "app"}

    def test_document_before_any_record_is_empty_not_an_error(self):
        document = StreamingCalibrator().document()
        assert document["workflow_types"] == {}
        assert document["server_types"] == {}
        assert document["records_seen"] == 0


class TestExportIsACopy:
    def test_records_after_an_export_do_not_reach_it(self):
        # The service exports at POST time and restores on the search
        # thread later; records ingested in between must not leak in.
        trail = synthetic_trail(seed=5, instances=60)
        records = sorted(
            [*trail.state_visits, *trail.service_requests, *trail.instances],
            key=lambda record: (
                record.left_at if isinstance(record, StateVisitRecord)
                else record.completed_at
            ),
        )
        half = len(records) // 2
        calibrator = StreamingCalibrator()
        calibrator.replay_records(records[:half])
        state = calibrator.export_state()
        frozen = json.loads(json.dumps(state))
        calibrator.replay_records(records[half:])

        assert state == frozen
        restored = StreamingCalibrator.restore_state(state)
        reference = StreamingCalibrator.restore_state(frozen)
        assert restored.export_state() == reference.export_state()
        assert restored.records_seen == half
