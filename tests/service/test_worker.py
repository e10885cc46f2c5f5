"""Tests for the service's search worker: one thread, newest wins."""

import sys
import threading
import time

import pytest

from repro import obs
from repro.exceptions import SearchCancelledError
from repro.service.worker import SearchWorker


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def _search_threads() -> int:
    return sum(
        thread.name == "repro-search" for thread in threading.enumerate()
    )


def _holding(started: threading.Event, release: threading.Event):
    """A job that runs until ``release``, polling its ``stop_check`` the
    way the engine does between candidates."""

    def job(stop_check):
        started.set()
        while not release.wait(0.005):
            if stop_check():
                raise SearchCancelledError("cancelled")

    return job


@pytest.fixture()
def counters():
    obs.reset()
    obs.enable()
    yield lambda name: obs.registry().counter(
        f"service.searches.{name}"
    ).value
    obs.disable()
    obs.reset()


@pytest.fixture()
def worker():
    worker = SearchWorker()
    yield worker
    worker.stop(timeout=10.0)


@pytest.fixture()
def held(worker):
    """The worker's thread busy with a job of tenant ``hold``."""
    started, release = threading.Event(), threading.Event()
    worker.submit("hold", _holding(started, release))
    assert started.wait(timeout=10.0)
    yield release
    release.set()


class TestSearchWorker:
    def test_job_runs_with_a_stop_check(self, worker, counters):
        seen = []
        done = threading.Event()

        def job(stop_check):
            seen.append((threading.current_thread().name, stop_check()))
            done.set()

        assert worker.submit("alpha", job) is True
        assert done.wait(timeout=10.0)
        assert seen == [("repro-search", False)]
        assert counters("started") == 1

    def test_an_error_is_counted_and_the_next_job_runs(
        self, counters, worker, held
    ):
        done = threading.Event()

        def boom(stop_check):
            raise ValueError("broken search")

        worker.submit("alpha", boom)
        worker.submit("beta", lambda stop_check: done.set())
        held.set()
        assert done.wait(timeout=10.0)
        assert counters("errors") == 1

    def test_a_newer_submission_replaces_the_pending_job(
        self, counters, worker, held
    ):
        ran = []
        worker.submit("alpha", lambda stop_check: ran.append("old"))
        worker.submit("alpha", lambda stop_check: ran.append("new"))
        held.set()
        assert _wait_for(lambda: worker.active() == 0)
        assert ran == ["new"]
        assert counters("started") == 3
        assert counters("superseded") == 1

    def test_a_newer_submission_cancels_the_running_job(
        self, worker, counters
    ):
        started, release = threading.Event(), threading.Event()
        ran = []
        worker.submit("alpha", _holding(started, release))
        assert started.wait(timeout=10.0)
        worker.submit("alpha", lambda stop_check: ran.append("fresh"))
        assert _wait_for(lambda: worker.active() == 0)
        assert ran == ["fresh"]
        assert counters("superseded") == 1
        assert not release.is_set()

    def test_tenants_run_one_after_another(self, worker, held):
        running, overlaps, order = [], [], []
        guard = threading.Lock()

        def job_for(key):
            def job(stop_check):
                with guard:
                    running.append(key)
                    overlaps.append(len(running))
                time.sleep(0.01)
                with guard:
                    running.remove(key)
                    order.append(key)

            return job

        # A resubmitted tenant keeps its place in the queue.
        for key in ("alpha", "beta", "gamma", "alpha"):
            worker.submit(key, job_for(key))
        held.set()
        assert _wait_for(lambda: worker.active() == 0)
        assert order == ["alpha", "beta", "gamma"]
        assert max(overlaps) == 1

    def test_the_thread_exits_when_no_slot_is_pending(self, worker):
        for _ in range(2):
            done = threading.Event()
            worker.submit("alpha", lambda stop_check: done.set())
            assert done.wait(timeout=10.0)
            assert _wait_for(lambda: _search_threads() == 0)
            assert worker.active() == 0

    def test_active_counts_pending_slots_and_the_running_job(self, worker):
        started, release = threading.Event(), threading.Event()
        assert worker.active() == 0
        worker.submit("alpha", _holding(started, release))
        assert worker.active() == 1
        assert started.wait(timeout=10.0)
        for key in ("beta", "beta", "gamma"):
            worker.submit(key, lambda stop_check: None)
        assert worker.active() == 3
        release.set()
        assert _wait_for(lambda: worker.active() == 0)

    def test_stop_cancels_drops_and_refuses(self, worker, counters):
        started, release = threading.Event(), threading.Event()
        ran = []
        worker.submit("alpha", _holding(started, release))
        assert started.wait(timeout=10.0)
        worker.submit("beta", lambda stop_check: ran.append("beta"))
        assert worker.stop(timeout=10.0) is True
        assert _search_threads() == 0
        assert worker.active() == 0
        # beta was dropped and alpha cancelled.
        assert counters("superseded") == 2
        late = worker.submit("gamma", lambda stop_check: ran.append("late"))
        assert late is False
        assert ran == []
        assert counters("started") == 2

    def test_concurrent_submitters_strand_no_slot(self, counters, worker):
        """Eight submitters with a tiny switch interval: the worker
        drains, jobs never overlap, and every accepted submission either
        ran or was superseded."""
        ran, running, overlaps = [], [], []
        guard = threading.Lock()

        def job(stop_check):
            with guard:
                running.append(1)
                overlaps.append(len(running))
            with guard:
                running.pop()
            ran.append(1)

        start = threading.Barrier(8)

        def submitter(index: int) -> None:
            start.wait(timeout=30.0)
            for turn in range(500):
                worker.submit(f"tenant{(index + turn) % 5}", job)

        submitters = [
            threading.Thread(target=submitter, args=(index,))
            for index in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join(timeout=60.0)
            drained = _wait_for(lambda: worker.active() == 0, timeout=20.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in submitters)
        assert drained
        assert max(overlaps) == 1
        assert counters("started") == 4000
        assert len(ran) + counters("superseded") == 4000
        assert _wait_for(lambda: _search_threads() == 0)
