"""Tests for the sequential drift detectors and the drift monitor."""

import random

import pytest

from repro import obs
from repro.core.evaluation_cache import EvaluationCache
from repro.exceptions import ValidationError
from repro.monitor.audit import InstanceRecord, StateVisitRecord
from repro.monitor.drift import (
    CusumDetector,
    DriftMonitor,
    PageHinkleyDetector,
)
from repro.monitor.stream import StreamingCalibrator


def visit(index, residence, state="a", workflow_type="wf", next_state="b"):
    start = float(index)
    return StateVisitRecord(
        instance_id=index,
        workflow_type=workflow_type,
        state=state,
        entered_at=start,
        left_at=start + residence,
        next_state=next_state,
    )


def residence_shift_visits():
    """200 visits of ``wf/a`` with mean residence 1, then 200 with mean 4."""
    rng = random.Random(42)
    return [
        visit(i, rng.expovariate(1.0 if i < 200 else 0.25))
        for i in range(400)
    ]


class TestPageHinkleyDetector:
    def test_stationary_stream_stays_quiet(self):
        rng = random.Random(1)
        detector = PageHinkleyDetector(relative=True)
        assert not any(
            detector.update(rng.expovariate(1.0)) for _ in range(500)
        )

    def test_mean_shift_is_detected(self):
        rng = random.Random(2)
        detector = PageHinkleyDetector(relative=True)
        for _ in range(200):
            assert not detector.update(rng.expovariate(1.0))
        assert any(
            detector.update(rng.expovariate(0.25)) for _ in range(200)
        )

    def test_no_drift_before_min_samples(self):
        detector = PageHinkleyDetector(
            delta=0.0, threshold=0.001, min_samples=50
        )
        fired = [detector.update(float(i % 2) * 100.0) for i in range(49)]
        assert not any(fired)

    def test_reset_relearns_the_baseline(self):
        detector = PageHinkleyDetector(min_samples=1)
        for value in (1.0, 2.0, 3.0):
            detector.update(value)
        detector.reset()
        assert detector.samples == 0
        assert detector.mean == 0.0
        assert detector.statistic == 0.0

    def test_effective_threshold_scales_with_mean_when_relative(self):
        detector = PageHinkleyDetector(threshold=10.0, relative=True)
        detector.update(4.0)
        assert detector.effective_threshold() == pytest.approx(40.0)
        absolute = PageHinkleyDetector(threshold=10.0)
        absolute.update(4.0)
        assert absolute.effective_threshold() == 10.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            PageHinkleyDetector(delta=-0.1)
        with pytest.raises(ValidationError):
            PageHinkleyDetector(threshold=0.0)
        with pytest.raises(ValidationError):
            PageHinkleyDetector(min_samples=0)


class TestCusumDetector:
    def test_detects_departure_from_reference(self):
        detector = CusumDetector(reference=1.0, slack=0.2, threshold=3.0)
        assert not any(detector.update(1.0) for _ in range(50))
        assert any(detector.update(2.0) for _ in range(10))

    def test_two_sided(self):
        detector = CusumDetector(reference=1.0, slack=0.1, threshold=2.0)
        assert any(detector.update(0.2) for _ in range(10))

    def test_reset_keeps_reference(self):
        detector = CusumDetector(reference=5.0, slack=0.1, threshold=2.0)
        detector.update(10.0)
        detector.reset()
        assert detector.reference == 5.0
        assert detector.statistic == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            CusumDetector(reference=1.0, slack=-0.1, threshold=1.0)
        with pytest.raises(ValidationError):
            CusumDetector(reference=1.0, slack=0.1, threshold=0.0)


class TestDriftMonitor:
    def test_stationary_stream_confirms_nothing(self):
        rng = random.Random(5)
        monitor = DriftMonitor()
        for i in range(400):
            monitor.observe(visit(i, rng.expovariate(1.0)))
        assert not monitor.has_drift
        assert monitor.events == []

    def test_residence_time_shift_confirmed_after_the_shift(self):
        visits = residence_shift_visits()
        monitor = DriftMonitor()
        for record in visits[:200]:
            assert monitor.observe(record) == []
        confirmed = []
        for record in visits[200:]:
            confirmed.extend(monitor.observe(record))
        assert confirmed
        event = confirmed[0]
        assert event.kind == "residence_time"
        assert event.subject == "wf/a"
        assert event.records_seen > 200
        assert "drift[residence_time]" in str(event)

    def test_transition_probability_shift_confirmed(self):
        rng = random.Random(9)
        monitor = DriftMonitor()

        def successor(p_b):
            return "b" if rng.random() < p_b else "c"

        for i in range(300):
            monitor.observe(visit(i, 1.0, next_state=successor(0.9)))
        assert not monitor.has_drift
        confirmed = []
        for i in range(300, 600):
            confirmed.extend(
                monitor.observe(visit(i, 1.0, next_state=successor(0.1)))
            )
        kinds = {event.kind for event in confirmed}
        assert "transition_probability" in kinds

    def test_arrival_rate_shift_confirmed(self):
        rng = random.Random(13)
        monitor = DriftMonitor()
        clock = 0.0
        confirmed = []
        for i in range(600):
            rate = 1.0 if i < 300 else 5.0
            clock += rng.expovariate(rate)
            confirmed.extend(
                monitor.observe(
                    InstanceRecord(
                        instance_id=i, workflow_type="wf",
                        started_at=clock - 0.1, completed_at=clock,
                    )
                )
            )
            if i < 300:
                assert not confirmed
        assert any(event.kind == "arrival_rate" for event in confirmed)

    def test_confirmed_drift_invalidates_attached_caches(self):
        rng = random.Random(21)
        cache = EvaluationCache()
        cache.bind(("model", "v1"))
        calibrator = StreamingCalibrator()
        seen = []
        monitor = DriftMonitor(
            calibrator=calibrator,
            caches=(cache,),
            on_drift=seen.append,
        )
        for i in range(200):
            monitor.observe(visit(i, rng.expovariate(1.0)))
        assert cache.fingerprint == ("model", "v1")
        for i in range(200, 400):
            monitor.observe(visit(i, rng.expovariate(0.25)))
        assert monitor.has_drift
        assert cache.fingerprint is None
        assert cache.invalidations >= 1
        assert seen == monitor.events

    def test_drift_emits_obs_counters_and_event(self):
        rng = random.Random(42)
        obs.reset()
        obs.enable()
        try:
            monitor = DriftMonitor()
            for i in range(400):
                mean = 1.0 if i < 200 else 4.0
                monitor.observe(visit(i, rng.expovariate(1.0 / mean)))
            registry = obs.registry()
            confirmed = registry.counter("monitor.drift.confirmed").value
            assert confirmed == len(monitor.events) > 0
            assert registry.counter(
                "monitor.drift.residence_time"
            ).value == confirmed
            assert any(
                event.get("event") == "monitor.drift"
                for event in obs.tracer().events
            )
        finally:
            obs.disable()
            obs.reset()

    def test_detector_resets_after_confirmation(self):
        rng = random.Random(42)
        monitor = DriftMonitor()
        for i in range(400):
            mean = 1.0 if i < 200 else 4.0
            monitor.observe(visit(i, rng.expovariate(1.0 / mean)))
        first = len(monitor.events)
        assert first >= 1
        # The new regime is stationary: the reset detector re-learns it
        # without immediately re-firing on every record.
        before = len(monitor.events)
        for i in range(400, 430):
            monitor.observe(visit(i, rng.expovariate(0.25)))
        assert len(monitor.events) == before

    def test_document_and_format_text(self):
        rng = random.Random(42)
        monitor = DriftMonitor()
        for i in range(400):
            mean = 1.0 if i < 200 else 4.0
            monitor.observe(visit(i, rng.expovariate(1.0 / mean)))
        document = monitor.document()
        assert document["schema"] == "repro.monitor.drift/v1"
        assert document["has_drift"] is True
        assert document["detectors"] == monitor.detector_count()
        assert len(document["confirmed"]) == len(monitor.events)
        text = monitor.format_text()
        assert "drift[residence_time]" in text

    def test_quiet_monitor_formats_no_drift(self):
        monitor = DriftMonitor()
        assert "no drift confirmed" in monitor.format_text()

    def test_unknown_record_type_rejected(self):
        with pytest.raises(ValidationError):
            DriftMonitor().observe(object())
