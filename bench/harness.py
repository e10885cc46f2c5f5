"""Running one workload: set-up, measurement, metrics, run record."""

from __future__ import annotations

import functools
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro import obs

from bench import config
from bench.stats import (
    MachineSpeed,
    median_per_operation,
    percentile,
    summarize,
)
from bench.tracing import SpanLog

#: Set-ups per run; ``setup_s`` is the median of their scaled times.
SETUP_REPEATS = 5


@dataclass
class Outcome:
    """What one measurement of a workload observed.

    A workload repeats a fixed unit of work (a pass over the corpus, a
    trail replay, a campaign).  ``samples`` holds ``(operation, start,
    seconds, traced)`` for every timed operation of every repeat,
    failed ones included; ``start`` is its ``time.perf_counter()`` when
    it began, and ``traced`` marks repeats run with observability on.
    """

    samples: list[tuple[Any, float, float, bool]]
    attempted: int
    failed: int
    gates: dict[str, bool | None]
    shape: dict[str, Any]
    per_layer: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def units(seconds: float, minimum: int = 2) -> Iterator[int]:
    """Numbers of the repeats of a workload's unit of work: as many as
    start within ``seconds`` of the first, and at least ``minimum``.

    Time-bounded, so a run measures for its ``--seconds`` however fast
    the machine runs; a unit that has started runs to its end.
    """
    start = time.perf_counter()
    unit = 0
    while unit < minimum or time.perf_counter() - start < seconds:
        yield unit
        unit += 1


def workloads() -> dict[str, Callable[[int, int], Any]]:
    """Workload factories by name, ``factory(seed, seconds)``."""
    # Imported here: the workload modules import Outcome from this one.
    from bench.analytic import SearchFrontier, SpecCorpus
    from bench.service import ServiceReplay, ServiceStream
    from bench.simulation import Campaign

    return {
        "spec-corpus": SpecCorpus,
        "search-frontier": SearchFrontier,
        "service-replay": ServiceReplay,
        "service-stream": ServiceStream,
        "campaign-exact": functools.partial(Campaign, "exact"),
        "campaign-fast": functools.partial(Campaign, "fast"),
    }


def run(
    name: str, seed: int, seconds: int, trace: bool, spec: dict[str, Any]
) -> dict[str, Any]:
    """Set up, measure and report one workload; returns its run record."""
    workload = workloads()[name](seed, seconds)
    speed = MachineSpeed()
    setups = []
    try:
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.close()
            speed.sample()
            start = time.perf_counter()
            workload.setup()
            setups.append((start, time.perf_counter() - start))
        speed.sample()
        log = None
        if trace:
            obs.reset()
            log = SpanLog(config.OUT / f"{name}-spans.jsonl")
        try:
            outcome = workload.measure(log, speed)
        finally:
            if log is not None:
                log.close()
        speed.sample()
    finally:
        workload.close()

    if trace:
        section = spec["per_layer"]
        values = _per_layer(outcome, section, speed.scale)
    else:
        section = spec["end_to_end"]
        values = _end_to_end(outcome, setups, speed.scale)
        raw = _end_to_end(outcome, setups, _unscaled)
    unit_of = {entry["name"]: entry["unit"] for entry in section}
    record = {
        "workload": name,
        "trace": int(trace),
        "seed": seed,
        "seconds": seconds,
        "correct": all(gate is not False for gate in outcome.gates.values()),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_share": outcome.failed / max(outcome.attempted, 1),
        "gates": outcome.gates,
        "shape": outcome.shape,
        "samples": {
            **summarize(_latencies(outcome, bool(trace), speed.scale)),
            "operations": len(outcome.samples),
        },
        "setup_runs_s": [seconds for _, seconds in setups],
        "machine_speed": {
            "reference_s": percentile(speed.samples, 50),
            "factor": speed.factor,
            "samples": len(speed.samples),
        },
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in unit_of.items()
        },
        "errors": outcome.errors[:10],
    }
    if not trace:
        record["unscaled"] = raw
    if log is not None:
        record["self_time"] = log.table()
        (config.OUT / f"{name}-selftime.txt").write_text(
            format_self_time(record["self_time"])
        )
    return record


#: ``scale(start, seconds)``: an operation's time as reported.
Scale = Callable[[float, float], float]


def _unscaled(start: float, seconds: float) -> float:
    return seconds


def _end_to_end(
    outcome: Outcome, setups: list[tuple[float, float]], scale: Scale
) -> dict[str, float]:
    latencies = _latencies(outcome, False, scale)
    summary = summarize(latencies)
    return {
        "p50_ms": summary["p50"] * 1000.0,
        "tail_ms": summary["tail"] * 1000.0,
        "total_s": sum(latencies),
        "setup_s": statistics.median(
            scale(start, seconds) for start, seconds in setups
        ),
    }


def _per_layer(
    outcome: Outcome, section: list[dict], scale: Scale
) -> dict[str, float]:
    names = {entry["name"] for entry in section}
    unknown = sorted(set(outcome.per_layer) - names)
    if unknown:
        raise KeyError(f"per-layer metrics not in BENCHMARK.json: {unknown}")
    values = dict.fromkeys(names, 0.0)
    values.update(outcome.per_layer)
    traced = _latencies(outcome, True, scale)
    untraced = _latencies(outcome, False, scale)
    if traced and untraced:
        values["obs.trace_overhead"] = (
            percentile(traced, 50) / percentile(untraced, 50)
        )
    return values


def _latencies(outcome: Outcome, traced: bool, scale: Scale) -> list[float]:
    """One latency per operation: the median of its scaled repeats."""
    return median_per_operation(
        (key, scale(start, seconds))
        for key, start, seconds, on in outcome.samples
        if on == traced
    )


def format_self_time(rows: list[dict[str, Any]]) -> str:
    """The self-time table as aligned text."""
    lines = [
        f"{'span':44s} {'count':>8s} {'total_s':>10s} {'self_s':>10s} "
        f"{'self%':>6s}"
    ]
    for row in rows:
        lines.append(
            f"{row['span']:44s} {row['count']:8d} {row['total_s']:10.4f} "
            f"{row['self_s']:10.4f} {100 * row['self_share']:6.1f}"
        )
    return "\n".join(lines) + "\n"


def format_run(record: dict[str, Any]) -> str:
    """Human-readable report of one run record."""
    mode = "traced" if record["trace"] else "untraced"
    samples = record["samples"]
    lines = [
        f"== {record['workload']} ({mode}, seed {record['seed']}, "
        f"{record['seconds']} s) =="
    ]
    idle = 0
    for metric, entry in record["metrics"].items():
        if record["trace"] and entry["value"] == 0:
            idle += 1
            continue
        note = ""
        if metric == "p50_ms":
            note = (
                f"n={samples['samples']} operations, median of "
                f"{samples['operations'] // samples['samples']} repeats"
            )
        elif metric == "tail_ms":
            note = f"p{samples['tail_percentile']}, n={samples['samples']}"
        elif metric == "setup_s":
            note = f"median of {len(record['setup_runs_s'])}"
        if "unscaled" in record:
            note = f"({record['unscaled'][metric]:.6g} unscaled) {note}"
        lines.append(
            f"  {metric:46s} {entry['value']:14.6g} {entry['unit']:6s} {note}"
        )
    if idle:
        lines.append(
            f"  ({idle} per-layer metrics are 0: layers not exercised)"
        )
    if not record["trace"]:
        lines.append(
            "  times scaled to the reference machine speed; run median "
            f"factor {record['machine_speed']['factor']:.4f}"
        )
    lines.append(
        f"  attempted {record['attempted']}, failed {record['failed']} "
        f"(failed_share {record['failed_share']:.4g})"
    )
    gates = ", ".join(
        f"{gate}={'skipped' if ok is None else 'pass' if ok else 'FAIL'}"
        for gate, ok in record["gates"].items()
    )
    lines.append(f"  gates: {gates}")
    for error in record["errors"]:
        lines.append(f"  error: {error}")
    return "\n".join(lines)


def result_line(records: list[dict[str, Any]]) -> str:
    """The one-line JSON result; metric names are prefixed by workload
    when the records span more than one workload or mode."""
    single = len(records) == 1
    metrics = {}
    for record in records:
        for metric, entry in record["metrics"].items():
            key = metric if single else f"{record['workload']}/{metric}"
            metrics[key] = entry
    return json.dumps(
        {
            "correct": all(record["correct"] for record in records),
            "attempted": sum(record["attempted"] for record in records),
            "failed": sum(record["failed"] for record in records),
            "metrics": metrics,
        },
        sort_keys=False,
    )
