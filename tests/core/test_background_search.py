"""Tests for the background re-search executor and search cancellation."""

import threading
import time

import pytest

from repro import obs
from repro.core.configuration import (
    ReplicationConstraints,
    greedy_configuration,
)
from repro.core.goals import GoalEvaluator, PerformabilityGoals
from repro.core.search import BackgroundSearchExecutor, SearchOutcome
from repro.exceptions import SearchCancelledError, ValidationError

from tests.core.test_evaluation_cache import make_performance


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestStopCheck:
    def test_search_engine_raises_when_stop_check_fires(self):
        evaluator = GoalEvaluator(make_performance())
        goals = PerformabilityGoals(max_waiting_time=1.0)
        with pytest.raises(SearchCancelledError):
            greedy_configuration(
                evaluator,
                goals,
                ReplicationConstraints(max_total_servers=8),
                stop_check=lambda: True,
            )

    def test_none_stop_check_is_the_default_path(self):
        evaluator = GoalEvaluator(make_performance())
        goals = PerformabilityGoals(max_waiting_time=1.0)
        recommendation = greedy_configuration(
            evaluator,
            goals,
            ReplicationConstraints(max_total_servers=8),
            stop_check=None,
        )
        assert recommendation.assessment.satisfied


class TestExecutor:
    def test_result_is_delivered_current(self):
        executor = BackgroundSearchExecutor()
        outcomes = []
        generation = executor.submit(
            "alpha", lambda stop: 42, on_outcome=outcomes.append
        )
        assert generation == 1
        assert _wait_for(lambda: outcomes)
        outcome = outcomes[0]
        assert outcome.result == 42
        assert outcome.current and outcome.delivered
        assert not outcome.cancelled and outcome.error is None

    def test_error_is_delivered_not_raised(self):
        executor = BackgroundSearchExecutor()
        outcomes = []

        def boom(stop):
            raise ValueError("broken search")

        executor.submit("alpha", boom, on_outcome=outcomes.append)
        assert _wait_for(lambda: outcomes)
        outcome = outcomes[0]
        assert isinstance(outcome.error, ValueError)
        assert not outcome.delivered

    def test_newer_submission_supersedes_older(self):
        executor = BackgroundSearchExecutor()
        outcomes = []
        started = threading.Event()

        def slow(stop):
            started.set()
            # Cooperative search loop: poll the stop probe the way the
            # engine does at batch boundaries.
            while not stop():
                time.sleep(0.005)
            raise SearchCancelledError("superseded")

        first = executor.submit("alpha", slow, on_outcome=outcomes.append)
        assert started.wait(timeout=10.0)
        second = executor.submit(
            "alpha", lambda stop: "fresh", on_outcome=outcomes.append
        )
        assert second == first + 1
        assert _wait_for(lambda: len(outcomes) == 2)
        by_generation = {o.generation: o for o in outcomes}
        assert by_generation[first].cancelled
        assert not by_generation[first].delivered
        assert by_generation[second].result == "fresh"
        assert by_generation[second].delivered
        assert executor.generation("alpha") == second

    def test_stale_result_is_not_current(self):
        executor = BackgroundSearchExecutor()
        outcomes = []
        release = threading.Event()
        started = threading.Event()

        def stubborn(stop):
            # Ignores cancellation and finishes anyway.
            started.set()
            release.wait(timeout=10.0)
            return "stale"

        first = executor.submit(
            "alpha", stubborn, on_outcome=outcomes.append
        )
        assert started.wait(timeout=10.0)
        executor.submit(
            "alpha", lambda stop: "fresh", on_outcome=outcomes.append
        )
        release.set()
        assert _wait_for(lambda: len(outcomes) == 2)
        by_result = {o.result: o for o in outcomes}
        assert by_result["stale"].generation == first
        assert not by_result["stale"].current
        assert not by_result["stale"].delivered
        assert by_result["fresh"].current

    def test_independent_keys_do_not_supersede(self):
        executor = BackgroundSearchExecutor()
        outcomes = []
        executor.submit("alpha", lambda stop: "a", on_outcome=outcomes.append)
        executor.submit("beta", lambda stop: "b", on_outcome=outcomes.append)
        assert _wait_for(lambda: len(outcomes) == 2)
        assert all(o.delivered for o in outcomes)

    def test_empty_key_raises(self):
        with pytest.raises(ValidationError):
            BackgroundSearchExecutor().submit("", lambda stop: None)

    def test_join_waits_for_tasks(self):
        executor = BackgroundSearchExecutor()
        executor.submit("alpha", lambda stop: time.sleep(0.05))
        assert executor.join(timeout=10.0)
        assert executor.active_count() == 0

    def test_shutdown_cancels_and_refuses_submissions(self):
        executor = BackgroundSearchExecutor()
        started = threading.Event()

        def cooperative(stop):
            started.set()
            while not stop():
                time.sleep(0.005)
            raise SearchCancelledError("shutdown")

        executor.submit("alpha", cooperative)
        assert started.wait(timeout=10.0)
        assert executor.shutdown(timeout=10.0)
        with pytest.raises(ValidationError):
            executor.submit("alpha", lambda stop: None)

    def test_join_waits_for_a_task_whose_thread_has_not_started(
        self, monkeypatch
    ):
        """submit() registers a task before it starts the thread; a join
        or shutdown landing in between waits instead of raising."""
        executor = BackgroundSearchExecutor()
        inside = threading.Event()
        resume = threading.Event()
        count = obs.count

        def pausing_count(name, *args, **kwargs):
            if name == "search.background.submitted":
                inside.set()
                resume.wait(timeout=10.0)
            return count(name, *args, **kwargs)

        monkeypatch.setattr(obs, "count", pausing_count)
        submitter = threading.Thread(
            target=executor.submit, args=("alpha", lambda stop: 7)
        )
        submitter.start()
        try:
            assert inside.wait(timeout=10.0)
            assert executor.active_count() == 1
            assert not executor.join(timeout=0.1)
            resume.set()
            assert executor.shutdown(timeout=10.0)
        finally:
            resume.set()
            submitter.join(timeout=10.0)
        assert not submitter.is_alive()
        assert executor.active_count() == 0

    def test_constructor_level_on_outcome(self):
        outcomes = []
        executor = BackgroundSearchExecutor(on_outcome=outcomes.append)
        executor.submit("alpha", lambda stop: 1)
        assert _wait_for(lambda: outcomes)
        assert isinstance(outcomes[0], SearchOutcome)
