"""The traced run: switching ``repro.obs`` on, spans, self time.

A traced run alternates its operations between observability off and
on, so the same run yields the tracing overhead (traced median over
untraced median).  After each traced operation the finished spans are
appended to a JSONL file and folded into per-name totals, from which
the self-time table is built: a span's self time is its duration minus
the time its direct child spans cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro import obs


@contextmanager
def observing(on: bool) -> Iterator[None]:
    """Enable ``repro.obs`` for the block when ``on``; no-op otherwise."""
    if not on:
        yield
        return
    obs.enable()
    try:
        yield
    finally:
        obs.disable()


def counter(name: str) -> float:
    """Current value of a counter or gauge of the default registry."""
    metric = obs.registry().metrics().get(name)
    return float(metric.value) if metric is not None else 0.0


def self_times(
    spans: list[tuple[str, float, float]],
) -> dict[str, list[float]]:
    """Per span name: ``[count, total seconds, self seconds]``.

    ``spans`` are ``(name, start, duration)`` of one thread.  Nesting is
    recovered from the intervals: a span's parent is the innermost span
    that is still open when it starts.
    """
    order = sorted(
        range(len(spans)), key=lambda i: (spans[i][1], -spans[i][2])
    )
    covered = [0.0] * len(spans)
    open_spans: list[tuple[float, int]] = []
    for index in order:
        _, start, duration = spans[index]
        while open_spans and open_spans[-1][0] <= start:
            open_spans.pop()
        if open_spans:
            covered[open_spans[-1][1]] += duration
        open_spans.append((start + duration, index))
    table: dict[str, list[float]] = {}
    for (name, _, duration), child in zip(spans, covered):
        entry = table.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
    return table


class SpanLog:
    """Spans of the traced operations: JSONL on disk, totals in memory."""

    def __init__(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        self.path = path
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.totals: dict[str, list[float]] = {}
        self._stream = path.open("w")

    def collect(self) -> None:
        """Move the tracer's finished spans into the log."""
        tracer = obs.tracer()
        finished = [span for span in tracer.spans if span.duration is not None]
        for span in finished:
            self._stream.write(json.dumps(span.to_dict(), default=str) + "\n")
            self.durations[span.name].append(span.duration)
        rows = [
            (span.name, span.started_at, span.duration) for span in finished
        ]
        for name, (count, total, own) in self_times(rows).items():
            entry = self.totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += count
            entry[1] += total
            entry[2] += own
        tracer.reset()

    def self_seconds(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def table(self) -> list[dict[str, float | str]]:
        """Self-time table rows, largest self time first."""
        grand = sum(entry[2] for entry in self.totals.values()) or 1.0
        return [
            {
                "span": name,
                "count": int(count),
                "total_s": total,
                "self_s": own,
                "self_share": own / grand,
            }
            for name, (count, total, own) in sorted(
                self.totals.items(), key=lambda item: -item[1][2]
            )
        ]

    def close(self) -> None:
        """Close the JSONL file."""
        self._stream.close()
