"""Tests for the streaming calibrator: bitwise parity with the batch path."""

import json
import random

import pytest

from repro.exceptions import ValidationError
from repro.monitor.audit import (
    AuditTrail,
    InstanceRecord,
    ServiceRequestRecord,
    StateVisitRecord,
)
from repro.monitor.calibration import (
    calibrate_flat_workflow,
    estimate_arrival_rate,
    estimate_requests_per_instance,
    estimate_residence_times,
    estimate_service_times,
    estimate_transition_probabilities,
    estimate_turnaround_time,
)
from repro.monitor.persistence import (
    iter_trail_records,
    load_trail,
    save_trail,
)
from repro.monitor.stream import StreamingCalibrator


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
                    next_state=successor if successor else "__TERMINATED__",
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


def replayed(trail: AuditTrail) -> StreamingCalibrator:
    calibrator = StreamingCalibrator()
    calibrator.replay(trail)
    return calibrator


class TestBitwiseParityWithBatch:
    def test_transition_probabilities(self):
        trail = synthetic_trail()
        stream = replayed(trail)
        assert stream.transition_probabilities("wf") == (
            estimate_transition_probabilities(trail, "wf")
        )

    def test_residence_times(self):
        trail = synthetic_trail()
        stream = replayed(trail)
        assert stream.residence_times("wf") == (
            estimate_residence_times(trail, "wf")
        )

    def test_turnaround_time(self):
        trail = synthetic_trail()
        stream = replayed(trail)
        assert stream.turnaround_time("wf") == (
            estimate_turnaround_time(trail, "wf")
        )

    def test_arrival_rate(self):
        trail = synthetic_trail()
        stream = replayed(trail)
        assert stream.arrival_rate("wf", 500.0) == (
            estimate_arrival_rate(trail, "wf", 500.0)
        )

    def test_service_times(self):
        trail = synthetic_trail()
        stream = replayed(trail)
        assert stream.service_times() == estimate_service_times(trail)

    def test_requests_per_instance(self):
        trail = synthetic_trail()
        stream = replayed(trail)
        assert stream.requests_per_instance("wf") == (
            estimate_requests_per_instance(trail, "wf")
        )

    def test_flat_workflow_reconstruction(self):
        trail = synthetic_trail()
        stream = replayed(trail)
        assert stream.flat_workflow("wf", "a") == (
            calibrate_flat_workflow(trail, "wf", "a")
        )

    def test_interleaved_feed_matches_category_order(self):
        # A live feed interleaves categories; per-category order is what
        # matters for parity.
        trail = synthetic_trail()
        interleaved = StreamingCalibrator()
        visits = iter(trail.state_visits)
        requests = iter(trail.service_requests)
        instances = iter(trail.instances)
        pools = [visits, requests, instances]
        rng = random.Random(3)
        while pools:
            pool = rng.choice(pools)
            record = next(pool, None)
            if record is None:
                pools.remove(pool)
                continue
            interleaved.observe(record)
        reference = replayed(trail)
        assert interleaved.transition_probabilities("wf") == (
            reference.transition_probabilities("wf")
        )
        assert interleaved.residence_times("wf") == (
            reference.residence_times("wf")
        )
        assert interleaved.service_times() == reference.service_times()
        assert interleaved.turnaround_time("wf") == (
            reference.turnaround_time("wf")
        )


class TestPersistenceRoundTrip:
    def test_jsonl_stream_matches_batch(self, tmp_path):
        # Satellite: save -> iter_trail_records -> streaming estimates
        # must equal batch calibration of the loaded trail, bitwise.
        trail = synthetic_trail(seed=11)
        path = tmp_path / "trail.jsonl"
        count = save_trail(trail, path)
        stream = StreamingCalibrator()
        assert stream.replay_records(iter_trail_records(path)) == count
        assert stream.records_seen == count
        loaded = load_trail(path)
        assert stream.transition_probabilities("wf") == (
            estimate_transition_probabilities(loaded, "wf")
        )
        assert stream.residence_times("wf") == (
            estimate_residence_times(loaded, "wf")
        )
        assert stream.turnaround_time("wf") == (
            estimate_turnaround_time(loaded, "wf")
        )
        assert stream.service_times() == estimate_service_times(loaded)
        assert stream.requests_per_instance("wf") == (
            estimate_requests_per_instance(loaded, "wf")
        )

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
        with pytest.raises(ValidationError):
            stream.arrival_rate("wf", 0.0)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValidationError):
            StreamingCalibrator(window=0.0)


class TestStreamingExtras:
    def test_windowed_arrival_rate_tracks_recent_completions(self):
        stream = StreamingCalibrator(window=10.0)
        for i in range(20):
            stream.observe(
                InstanceRecord(
                    instance_id=i, workflow_type="wf",
                    started_at=float(i), completed_at=float(i) + 0.5,
                )
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
