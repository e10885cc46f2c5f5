"""The service's search worker: one search thread, newest search wins.

The paper's §7 tool re-runs the configuration search whenever the
calibrated models drift.  In the always-on service those searches must
not block ingestion, and a search that has not run yet when newer
records arrive would search stale calibration.  :class:`SearchWorker`
keeps one pending slot per tenant and runs the slots one after another
on a single search thread:

* a submission overwrites its tenant's slot, so the replaced search
  never starts, and sets the cancel flag of that tenant's running
  search, which the engine polls through ``stop_check``
  (:class:`~repro.exceptions.SearchCancelledError` before the next
  candidate);
* the thread is started by the submission that finds none alive and
  exits when no slot is pending, so an idle service runs no search
  thread;
* :attr:`SearchWorker.lock` is held for each whole search, so a search
  run elsewhere (``GET /recommendation?refresh=1``) serializes with the
  worker by taking the same lock.

A job is any callable taking the zero-argument ``stop_check`` probe; it
delivers its own result.  The worker counts every submission it accepts
in ``service.searches.started`` and each one that ends here in
``service.searches.superseded`` (replaced, cancelled, or dropped by
:meth:`SearchWorker.stop`) or ``service.searches.errors``.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro import obs
from repro.exceptions import SearchCancelledError

__all__ = ["SearchWorker"]

#: A search job: called on the worker thread with ``stop_check``.
Job = Callable[[Callable[[], bool]], None]


class SearchWorker:
    """One pending slot per tenant, at most one search thread."""

    def __init__(self) -> None:
        #: Held for the whole of each search.
        self.lock = threading.Lock()
        # Guards the slots and the thread's bookkeeping; never held
        # while a job runs.
        self._guard = threading.Lock()
        self._pending: dict[str, Job] = {}
        self._running: str | None = None
        self._cancel = threading.Event()
        self._thread: threading.Thread | None = None
        self._stopped = False

    def submit(self, key: str, job: Job) -> bool:
        """Put ``job`` in ``key``'s slot; false once :meth:`stop` ran.

        The slot keeps its place in the queue when it is overwritten, so
        a tenant that keeps posting does not lose its turn.
        """
        with self._guard:
            if self._stopped:
                return False
            obs.count("service.searches.started")
            if key in self._pending:
                obs.count("service.searches.superseded")
            self._pending[key] = job
            if self._running == key:
                self._cancel.set()
            if self._thread is None:
                # Started under the guard, so stop() never sees a thread
                # that cannot be joined yet, and handed its first job, so
                # it need not wait for the guard before searching.
                self._thread = threading.Thread(
                    target=self._run, args=self._take(),
                    name="repro-search", daemon=True,
                )
                self._thread.start()
        return True

    def _take(self) -> tuple[str, Job, threading.Event]:
        """Pop the oldest slot as the running search; under the guard."""
        key = next(iter(self._pending))
        self._running = key
        self._cancel = threading.Event()
        return key, self._pending.pop(key), self._cancel

    def _run(self, key: str, job: Job, cancel: threading.Event) -> None:
        while True:
            try:
                with self.lock:
                    job(cancel.is_set)
            except SearchCancelledError:
                obs.count("service.searches.superseded")
            except Exception as error:
                obs.count("service.searches.errors")
                obs.event("service.search.error", tenant=key, error=str(error))
            with self._guard:
                if not self._pending:
                    self._thread = None
                    self._running = None
                    return
                key, job, cancel = self._take()

    def active(self) -> int:
        """Pending slots plus the running search."""
        with self._guard:
            return len(self._pending) + (self._running is not None)

    def stop(self, timeout: float | None = None) -> bool:
        """Drop the pending slots, cancel the running search, refuse
        further submissions and join the thread; true when it exited
        within ``timeout``."""
        with self._guard:
            self._stopped = True
            obs.count("service.searches.superseded", len(self._pending))
            self._pending.clear()
            self._cancel.set()
            thread = self._thread
        if thread is not None:
            thread.join(timeout)
        return thread is None or not thread.is_alive()
