"""Measurement helpers: percentiles, machine speed, the open loop,
regressions.

Nothing here imports the program under test, so the rules the
benchmark reports by are unit-tested on their own (``bench/tests``).
"""

from __future__ import annotations

import bisect
import math
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

#: Tail percentiles, highest first.  A tail is reported only when at
#: least :data:`MIN_BEYOND` samples lie beyond it.
TAIL_LADDER = (99, 90, 75)
MIN_BEYOND = 10


def percentile(values: Iterable[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def tail_percentile(samples: int) -> int:
    """The highest tail percentile with at least ten samples beyond it.

    Falls back to the median (50) when even p75 has fewer than ten
    samples beyond it: with so few samples no tail can be told apart
    from noise.
    """
    for p in TAIL_LADDER:
        if samples * (100 - p) >= MIN_BEYOND * 100:
            return p
    return 50


def best_per_operation(samples: Iterable[tuple[Any, float]]) -> list[float]:
    """The fastest of each operation's repeats, one value per operation.

    With many short repeats spread over a run, the fastest is the
    operation's cost with the least interference from whatever else the
    machine runs, while an operation that is slow on every repeat stays
    slow.
    """
    best: dict[Any, float] = {}
    for key, seconds in samples:
        if key not in best or seconds < best[key]:
            best[key] = seconds
    return list(best.values())


def median_per_operation(samples: Iterable[tuple[Any, float]]) -> list[float]:
    """The median of each operation's repeats, one value per operation."""
    repeats: dict[Any, list[float]] = {}
    for key, seconds in samples:
        repeats.setdefault(key, []).append(seconds)
    return [percentile(values, 50) for values in repeats.values()]


def best_of(call: Callable[[], Any], repeats: int = 3) -> tuple[float, Any]:
    """Seconds of the fastest of ``repeats`` calls, and the last result."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return min(times), result


#: Median :func:`reference_work` time the scaled values are expressed
#: at: about its time on an unloaded machine of the kind the committed
#: records come from (2-vCPU Xeon VM, Python 3.11, numpy 2.4).
REFERENCE_SECONDS = 0.9e-3


def reference_work() -> float:
    """A fixed computation that shares no code with the program: small
    dense numpy solves, each with its Python-level call overhead.

    On a loaded machine their slowdown tracked the workloads' best of
    the candidates tried: a pure-interpreter dict loop, an object heap,
    larger solves, and mixes of these.
    """
    matrix = np.eye(24) * 4.0 + 0.01
    vector = np.ones(24)
    total = 0.0
    for _ in range(120):
        total += float(np.linalg.solve(matrix, vector)[0])
    return total


class MachineSpeed:
    """How fast the machine runs :func:`reference_work`, sampled through
    a run.

    Other tenants of a shared machine slow each CPU down by up to 2.7×,
    each CPU on its own, for a few seconds at a time; a 12-second run
    may sit in one slow stretch throughout, so no number of repeats
    finds a quiet moment.  The benchmark therefore runs on one CPU (see
    :func:`pin_to_one_cpu`) and samples the reference on it every
    ``interval`` seconds between operations.  :meth:`scale` multiplies
    an operation's time by ``REFERENCE_SECONDS`` over the median of the
    reference samples taken just before and just after it, so it reads
    as if measured where the reference takes :data:`REFERENCE_SECONDS`.
    """

    #: Reference computations timed per sample.
    REPEATS = 5

    def __init__(self, interval: float = 0.5) -> None:
        self.interval = interval
        #: ``(when, repeat times)`` of every sample, in time order.
        self.ticks: list[tuple[float, list[float]]] = []
        self._last = -math.inf

    def sample(self) -> None:
        """Time the reference now, ``REPEATS`` times."""
        times = []
        for _ in range(self.REPEATS):
            start = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - start)
        self._last = time.perf_counter()
        self.ticks.append((self._last, times))

    def tick(self) -> None:
        """Sample when ``interval`` seconds passed since the last one."""
        if time.perf_counter() - self._last >= self.interval:
            self.sample()

    @property
    def samples(self) -> list[float]:
        """Every reference time of the run."""
        return [t for _, times in self.ticks for t in times]

    @property
    def factor(self) -> float:
        """Scale from the whole run's median machine speed (reported
        only; times are scaled by :meth:`scale`)."""
        return REFERENCE_SECONDS / percentile(self.samples, 50)

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` of an operation that began at ``start``, scaled by
        the samples taken last before it and first after it."""
        moments = [when for when, _ in self.ticks]
        after = bisect.bisect_left(moments, start + seconds)
        before = bisect.bisect_right(moments, start) - 1
        around = [
            t
            for index in {max(before, 0), min(after, len(moments) - 1)}
            for t in self.ticks[index][1]
        ]
        return seconds * REFERENCE_SECONDS / percentile(around, 50)


def pin_to_one_cpu() -> int | None:
    """Restrict this process, and the processes it starts, to one CPU.

    Measured and reference work then share a CPU, so the reference sees
    the slow stretches the measured work sees.  Returns the CPU, or
    ``None`` where the platform cannot pin.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def summarize(values: Sequence[float]) -> dict[str, Any]:
    """Median, rule-chosen tail, and the sample count they rest on."""
    tail = tail_percentile(len(values))
    return {
        "p50": percentile(values, 50),
        "tail": percentile(values, tail),
        "tail_percentile": tail,
        "samples": len(values),
    }


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Sent:
    """One open-loop request: when it was due, sent, and answered."""

    request: Any
    due: float
    start: float
    end: float
    result: Any

    @property
    def latency(self) -> float:
        """Seconds from when the request was due until it was answered.

        Timing from the due time, not the send time, charges a stall to
        every request queued behind it.
        """
        return self.end - self.due

    @property
    def lateness(self) -> float:
        """Seconds the generator sent the request after it was due."""
        return self.start - self.due


def run_open_loop(
    schedule: Iterable[tuple[float, Any]],
    send: Callable[[Any], Any],
    clock: Callable[[], float],
    sleep: Callable[[float], None],
) -> list[Sent]:
    """Send each ``(offset, request)`` at ``offset`` seconds from now.

    Requests go out one at a time from this thread; a slow reply delays
    the requests after it, which shows as lateness and as latency
    measured from their due times.
    """
    origin = clock()
    sent = []
    for offset, request in schedule:
        due = origin + offset
        now = clock()
        if now < due:
            sleep(due - now)
        start = clock()
        result = send(request)
        sent.append(Sent(request, due, start, clock(), result))
    return sent


# ----------------------------------------------------------------------
# Regression bounds
# ----------------------------------------------------------------------
def regressions(
    baseline: Mapping[str, Mapping[str, float]],
    current: Mapping[str, Mapping[str, float]],
    metrics: Sequence[Mapping[str, Any]],
) -> list[str]:
    """Metrics of ``current`` worse than ``baseline`` by more than bound.

    Both maps are ``{workload: {metric: value}}``; ``metrics`` are the
    ``end_to_end`` entries of ``BENCHMARK.json``.  A bound is a share of
    the baseline value.  Workloads or metrics missing on either side are
    not compared.
    """
    found = []
    for workload, values in sorted(current.items()):
        before = baseline.get(workload, {})
        for metric in metrics:
            name = metric["name"]
            if name not in values or name not in before:
                continue
            old, new = before[name], values[name]
            limit = old * metric["bound"]
            if metric["better"] == "lower":
                worse = new > old + limit
            else:
                worse = new < old - limit
            if worse:
                found.append(
                    f"{workload} {name}: {new:.6g} vs {old:.6g} "
                    f"(bound {metric['bound']:.0%})"
                )
    return found
