"""Background re-search execution for the always-on service.

The paper's §7 loop re-runs the configuration search whenever the
calibrated models drift or a goal is violated.  In the long-running
recommendation service those re-searches must not block event
ingestion, and a search that is still running when *newer* drift is
confirmed is searching against stale calibration — its result would be
wrong to publish.  :class:`BackgroundSearchExecutor` owns both
concerns: searches run on daemon worker threads, and each logical key
(one tenant, in the service) carries a generation counter so that
submitting a new search supersedes the previous one — the stale
search's cancellation event is set (the engine's ``stop_check`` polls
it and raises :class:`~repro.exceptions.SearchCancelledError` before
the next candidate) and its result, if it finishes anyway, is dropped
instead of delivered.

The executor is deliberately independent of the search functions it
runs: a task is any callable taking a zero-argument ``stop_check``
probe, so point searches (:func:`repro.core.configuration.greedy_configuration`
etc.) and frontier sweeps (:func:`repro.core.search.frontier_search`)
submit the same way.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import obs
from repro.exceptions import SearchCancelledError, ValidationError

__all__ = ["BackgroundSearchExecutor", "SearchOutcome"]


@dataclass(frozen=True)
class SearchOutcome:
    """Terminal state of one background search task.

    Exactly one of ``result`` / ``error`` is set for a search that ran
    to completion or failed; a superseded or cancelled search carries
    neither.  ``current`` tells the delivery callback whether this
    generation was still the newest for its key when it finished —
    stale outcomes are reported (for observability) but must not be
    published.
    """

    key: str
    generation: int
    result: Any = None
    error: BaseException | None = None
    cancelled: bool = False
    current: bool = True

    @property
    def delivered(self) -> bool:
        """Whether the outcome carries a publishable result."""
        return self.current and self.error is None and not self.cancelled


@dataclass
class _KeyState:
    generation: int = 0
    cancel: threading.Event = field(default_factory=threading.Event)


class BackgroundSearchExecutor:
    """Run searches on worker threads; newer submissions supersede older.

    ``on_outcome`` (set at construction or per ``submit``) receives a
    :class:`SearchOutcome` on the worker thread when a task terminates —
    including superseded and failed tasks, so callers can count them.
    :meth:`join` waits for every in-flight task, and :meth:`shutdown`
    cancels them all first; both make tests and graceful service
    shutdown deterministic.
    """

    def __init__(
        self,
        on_outcome: Callable[[SearchOutcome], None] | None = None,
    ) -> None:
        self._on_outcome = on_outcome
        self._lock = threading.Lock()
        self._keys: dict[str, _KeyState] = {}
        #: Each submitted task's done event, until the task finishes.
        self._running: dict[tuple[str, int], threading.Event] = {}
        self._shutdown = False

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        key: str,
        task: Callable[[Callable[[], bool]], Any],
        on_outcome: Callable[[SearchOutcome], None] | None = None,
    ) -> int:
        """Start ``task`` for ``key``, superseding any running search.

        ``task`` is called on a worker thread with one argument — a
        zero-argument ``stop_check`` probe to pass into the search — and
        its return value becomes the outcome's ``result``.  Returns the
        new generation number.  Raises after :meth:`shutdown`.
        """
        if not key:
            raise ValidationError("background search key must be non-empty")
        with self._lock:
            if self._shutdown:
                raise ValidationError(
                    "BackgroundSearchExecutor is shut down"
                )
            state = self._keys.get(key)
            if state is None:
                state = _KeyState()
                self._keys[key] = state
            elif not state.cancel.is_set():
                # A search is (possibly) still running for this key —
                # tell it to stop before its next candidate.
                state.cancel.set()
                obs.count("search.background.superseded")
            state.generation += 1
            state.cancel = threading.Event()
            generation = state.generation
            cancel = state.cancel
            callback = on_outcome if on_outcome is not None else (
                self._on_outcome
            )
            done = threading.Event()
            thread = threading.Thread(
                target=self._run,
                args=(key, generation, task, cancel, callback, done),
                name=f"repro-search-{key}-{generation}",
                daemon=True,
            )
            # join() waits on the event, not the thread: the thread starts
            # only after the lock is released, and a thread that has not
            # started cannot be joined.
            self._running[(key, generation)] = done
        obs.count("search.background.submitted")
        thread.start()
        return generation

    def _run(
        self,
        key: str,
        generation: int,
        task: Callable[[Callable[[], bool]], Any],
        cancel: threading.Event,
        callback: Callable[[SearchOutcome], None] | None,
        done: threading.Event,
    ) -> None:
        result: Any = None
        error: BaseException | None = None
        cancelled = False
        try:
            result = task(cancel.is_set)
        except SearchCancelledError:
            cancelled = True
        except BaseException as exc:  # delivered, never swallowed silently
            error = exc
        with self._lock:
            state = self._keys.get(key)
            current = state is not None and state.generation == generation
            self._running.pop((key, generation), None)
        if cancelled:
            obs.count("search.background.cancelled")
        elif error is not None:
            obs.count("search.background.errors")
        elif current:
            obs.count("search.background.completed")
        else:
            obs.count("search.background.stale_results")
        try:
            if callback is not None:
                callback(
                    SearchOutcome(
                        key=key,
                        generation=generation,
                        result=None if cancelled else result,
                        error=error,
                        cancelled=cancelled,
                        current=current,
                    )
                )
        finally:
            done.set()

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def generation(self, key: str) -> int:
        """Latest generation submitted for ``key`` (0 when none)."""
        with self._lock:
            state = self._keys.get(key)
            return state.generation if state is not None else 0

    def active_count(self) -> int:
        """Number of submitted tasks that have not finished."""
        with self._lock:
            return len(self._running)

    def cancel_all(self) -> None:
        """Set every key's cancellation event (tasks stop cooperatively)."""
        with self._lock:
            for state in self._keys.values():
                state.cancel.set()

    def join(self, timeout: float | None = None) -> bool:
        """Wait for all in-flight tasks; true when none remain.

        With a ``timeout`` the wait is split evenly across the tasks
        still in flight; a false return means some task was still running
        when time ran out (it keeps running — workers are daemons).
        """
        with self._lock:
            pending = list(self._running.values())
        if not pending:
            return True
        per_task = (
            None if timeout is None else max(timeout / len(pending), 0.05)
        )
        for done in pending:
            done.wait(per_task)
        return self.active_count() == 0

    def shutdown(self, timeout: float | None = 10.0) -> bool:
        """Cancel everything, wait, and refuse further submissions."""
        with self._lock:
            self._shutdown = True
        self.cancel_all()
        return self.join(timeout)
