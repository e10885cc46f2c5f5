"""Tests for the discrete-event simulation engine."""

import pytest

from repro.exceptions import ValidationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule(3.0, order.append, "late")
        simulator.schedule(1.0, order.append, "early")
        simulator.schedule(2.0, order.append, "middle")
        simulator.run()
        assert order == ["early", "middle", "late"]

    def test_fifo_among_simultaneous_events(self):
        simulator = Simulator()
        order = []
        for tag in ("first", "second", "third"):
            simulator.schedule(1.0, order.append, tag)
        simulator.run()
        assert order == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        simulator = Simulator()
        seen = []
        simulator.schedule(2.5, lambda: seen.append(simulator.now))
        simulator.run()
        assert seen == [2.5]

    def test_schedule_at_absolute_time(self):
        simulator = Simulator(start_time=10.0)
        seen = []
        simulator.schedule_at(12.0, lambda: seen.append(simulator.now))
        simulator.run()
        assert seen == [12.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValidationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_scheduling_into_past_rejected(self):
        simulator = Simulator(start_time=5.0)
        with pytest.raises(ValidationError):
            simulator.schedule_at(4.0, lambda: None)

    def test_events_can_schedule_events(self):
        simulator = Simulator()
        seen = []

        def chain(remaining):
            seen.append(simulator.now)
            if remaining:
                simulator.schedule(1.0, chain, remaining - 1)

        simulator.schedule(0.0, chain, 3)
        simulator.run()
        assert seen == [0.0, 1.0, 2.0, 3.0]


class TestCancellation:
    def test_cancelled_event_not_executed(self):
        simulator = Simulator()
        fired = []
        handle = simulator.schedule(1.0, fired.append, "x")
        handle.cancel()
        simulator.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        simulator = Simulator()
        handle = simulator.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        simulator.run()

    def test_cancel_after_execution_is_a_noop(self):
        simulator = Simulator()
        fired = []
        handle = simulator.schedule(1.0, fired.append, "x")
        simulator.run()
        assert fired == ["x"]
        assert not handle.cancelled
        handle.cancel()  # late cancel of a dispatched event
        assert not handle.cancelled
        assert simulator.pending_events == 0

    def test_handle_reports_scheduled_time(self):
        simulator = Simulator(start_time=2.0)
        handle = simulator.schedule(1.5, lambda: None)
        assert handle.time == 3.5
        at = simulator.schedule_at(7.0, lambda: None)
        assert at.time == 7.0

    def test_cancelled_events_never_fire_among_survivors(self):
        simulator = Simulator()
        fired = []
        handles = [
            simulator.schedule(float(i), fired.append, i)
            for i in range(20)
        ]
        for handle in handles[::2]:
            handle.cancel()
        simulator.run()
        assert fired == list(range(1, 20, 2))

    def test_pending_counts_exclude_cancelled_events(self):
        simulator = Simulator()
        handles = [
            simulator.schedule(1.0, lambda: None) for _ in range(10)
        ]
        assert simulator.pending_events == 10
        assert simulator.max_pending_events == 10
        for handle in handles[:4]:
            handle.cancel()
        assert simulator.pending_events == 6
        # The high-water mark reflects live events only and is not
        # reduced retroactively by cancellations.
        assert simulator.max_pending_events == 10
        simulator.run()
        assert simulator.pending_events == 0
        assert simulator.executed_events == 6

    def test_lazy_deletion_compacts_the_calendar(self):
        simulator = Simulator()
        keep = [simulator.schedule(1.0, lambda: None) for _ in range(100)]
        cancel = [
            simulator.schedule(2.0, lambda: None) for _ in range(200)
        ]
        for handle in cancel:
            handle.cancel()
        # 200 cancellations against 100 live events cross both
        # compaction conditions (>= COMPACTION_THRESHOLD cancelled, and
        # cancelled entries forming the calendar majority), so dead
        # entries must have been physically removed before dispatch —
        # the calendar holds strictly fewer than the 300 scheduled
        # entries, while the live count is untouched.
        assert len(simulator._calendar) < 300
        assert simulator.pending_events == 100
        simulator.run()
        assert simulator.executed_events == 100
        assert keep[0].cancelled is False

    def test_cancel_heavy_workload_stays_consistent(self):
        simulator = Simulator()
        fired = []
        live = 0
        for i in range(500):
            handle = simulator.schedule(
                float(i % 7) + 1.0, fired.append, i
            )
            if i % 3:
                handle.cancel()
            else:
                live += 1
        assert simulator.pending_events == live
        simulator.run()
        assert simulator.executed_events == live
        assert len(fired) == live
        assert simulator.pending_events == 0


class TestPost:
    def test_post_runs_like_schedule(self):
        simulator = Simulator()
        order = []
        simulator.post(2.0, order.append, "late")
        simulator.post(1.0, order.append, "early")
        assert simulator.post(1.5, order.append, "middle") is None
        simulator.run()
        assert order == ["early", "middle", "late"]

    def test_post_interleaves_fifo_with_schedule(self):
        simulator = Simulator()
        order = []
        simulator.schedule(1.0, order.append, "a")
        simulator.post(1.0, order.append, "b")
        simulator.schedule(1.0, order.append, "c")
        simulator.run()
        assert order == ["a", "b", "c"]

    def test_post_negative_delay_rejected(self):
        with pytest.raises(ValidationError):
            Simulator().post(-0.5, lambda: None)

    def test_post_counts_as_pending(self):
        simulator = Simulator()
        simulator.post(1.0, lambda: None)
        simulator.post(2.0, lambda: None)
        assert simulator.pending_events == 2
        assert simulator.max_pending_events == 2


class TestRunUntil:
    def test_later_events_stay_scheduled(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(1.0, fired.append, "early")
        simulator.schedule(5.0, fired.append, "late")
        simulator.run_until(2.0)
        assert fired == ["early"]
        assert simulator.now == 2.0
        simulator.run()
        assert fired == ["early", "late"]

    def test_clock_ends_exactly_at_end_time(self):
        simulator = Simulator()
        simulator.run_until(7.0)
        assert simulator.now == 7.0

    def test_backwards_window_rejected(self):
        simulator = Simulator(start_time=5.0)
        with pytest.raises(ValidationError):
            simulator.run_until(1.0)

    def test_boundary_event_is_executed(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(2.0, fired.append, "edge")
        simulator.run_until(2.0)
        assert fired == ["edge"]


class TestAccounting:
    def test_executed_and_pending_counts(self):
        simulator = Simulator()
        simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        assert simulator.pending_events == 2
        simulator.run_until(1.5)
        assert simulator.executed_events == 1

    def test_run_with_event_cap(self):
        simulator = Simulator()
        for _ in range(10):
            simulator.schedule(1.0, lambda: None)
        simulator.run(max_events=4)
        assert simulator.executed_events == 4

    def test_zero_event_cap_dispatches_nothing(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(1.0, fired.append, "event")
        simulator.run(max_events=0)
        assert fired == []
        assert simulator.executed_events == 0
        assert simulator.pending_events == 1

    def test_negative_event_cap_rejected(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(1.0, fired.append, "event")
        with pytest.raises(ValidationError, match="max_events"):
            simulator.run(max_events=-1)
        assert fired == []


class TestNaNGuards:
    """A NaN time fails every guard instead of breaking heap order."""

    def test_schedule_rejects_nan_delay(self):
        simulator = Simulator()
        with pytest.raises(ValidationError):
            simulator.schedule(float("nan"), lambda: None)
        assert simulator.pending_events == 0

    def test_post_rejects_nan_delay(self):
        simulator = Simulator()
        with pytest.raises(ValidationError):
            simulator.post(float("nan"), lambda: None)
        assert simulator.pending_events == 0

    def test_schedule_at_rejects_nan_time(self):
        simulator = Simulator()
        with pytest.raises(ValidationError):
            simulator.schedule_at(float("nan"), lambda: None)
        assert simulator.pending_events == 0

    def test_run_until_rejects_nan_end_time(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(1.0, fired.append, "event")
        with pytest.raises(ValidationError):
            simulator.run_until(float("nan"))
        assert fired == []
        assert simulator.now == 0.0
