"""Sequential drift detection over streaming calibration statistics.

The paper's dynamic reconfiguration (§7.1) needs to know when the
running system has drifted away from the parameters the current
configuration was chosen for.  This module is the one drift rule of the
§7 loop: it answers that question *online*, record by record, with
Page–Hinkley sequential change detectors:

* :class:`PageHinkleyDetector` — the classic two-sided Page–Hinkley
  test in its reset-at-minimum (CUSUM) formulation, optionally with
  magnitude/threshold relative to the running mean so one parameter set
  serves residence times of any scale;
* :class:`DriftMonitor` — wires detectors over the three parameter
  families the paper calibrates (transition probabilities, residence
  times, arrival rates), feeds them from a
  :class:`~repro.monitor.stream.StreamingCalibrator`, emits
  ``monitor.drift.*`` obs counters and structured trace events, and
  reports each confirmed drift to an optional callback — the trigger
  of the re-search that closes the paper's reconfiguration loop.  No
  evaluation cache needs telling: the next search evaluates a freshly
  calibrated model, whose moved parameters key new cache rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro import obs
from repro.exceptions import ValidationError
from repro.monitor.audit import (
    INSTANCE,
    STATE_VISIT,
    AuditRecord,
    record_row,
)
from repro.monitor.stream import StreamingCalibrator, entry

__all__ = [
    "DriftEvent",
    "DriftMonitor",
    "PageHinkleyDetector",
]

#: Drift allowance and alarm threshold of the monitor's residence-time
#: and inter-completion detectors, both relative to the running mean.
DELTA = 0.25
THRESHOLD = 15.0
#: Samples every detector of the monitor learns from before it may
#: confirm a drift.
MIN_SAMPLES = 30
#: Drift allowance and alarm threshold of the monitor's absolute
#: transition-indicator detectors (take/not-take, 0 or 1).
INDICATOR_DELTA = 0.1
INDICATOR_THRESHOLD = 8.0

#: The ``config`` block of :meth:`DriftMonitor.export_state`; a snapshot
#: restores only under these settings.  ``tests/monitor/test_drift.py``
#: holds them to a false-positive budget on a stationary trail.
CONFIG = {
    "delta": DELTA,
    "threshold": THRESHOLD,
    "min_samples": MIN_SAMPLES,
    "indicator_delta": INDICATOR_DELTA,
    "indicator_threshold": INDICATOR_THRESHOLD,
}


class PageHinkleyDetector:
    """Two-sided Page–Hinkley test with a self-learned reference mean.

    Maintains the running mean of the observed sequence and the
    cumulative deviation statistic in the reset-at-minimum formulation:
    on each sample the upward statistic grows by ``x - mean - delta``
    (floored at zero) and the downward one by ``mean - x - delta``;
    a drift is confirmed when either exceeds ``threshold``.

    With ``relative=True`` (the right mode for positive-scale signals
    like residence times), ``delta`` and ``threshold`` are multiplied
    by the magnitude of the running mean, so the same parameters work
    for a 0.3-time-unit routing state and a 90-time-unit activity.

    No drift is reported before ``min_samples`` observations — the
    running mean needs a baseline before deviations mean anything.
    """

    __slots__ = (
        "delta", "threshold", "min_samples", "relative",
        "samples", "_mean", "_up", "_down",
    )

    def __init__(
        self,
        delta: float = DELTA,
        threshold: float = THRESHOLD,
        min_samples: int = MIN_SAMPLES,
        relative: bool = False,
    ) -> None:
        if delta < 0.0:
            raise ValidationError("delta must be >= 0")
        if threshold <= 0.0:
            raise ValidationError("threshold must be positive")
        if min_samples < 1:
            raise ValidationError("min_samples must be >= 1")
        self.delta = delta
        self.threshold = threshold
        self.min_samples = min_samples
        self.relative = relative
        self.samples = 0
        self._mean = 0.0
        self._up = 0.0
        self._down = 0.0

    @property
    def mean(self) -> float:
        """Current running mean (the learned reference)."""
        return self._mean

    @property
    def statistic(self) -> float:
        """The larger of the two one-sided drift statistics."""
        return max(self._up, self._down)

    def effective_threshold(self) -> float:
        """The threshold in signal units (scaled when ``relative``)."""
        if not self.relative:
            return self.threshold
        return self.threshold * max(abs(self._mean), 1e-12)

    def update(self, value: float) -> bool:
        """Consume one observation; ``True`` when drift is confirmed."""
        self.samples += 1
        self._mean += (value - self._mean) / self.samples
        scale = (
            max(abs(self._mean), 1e-12) if self.relative else 1.0
        )
        delta = self.delta * scale
        self._up = max(0.0, self._up + value - self._mean - delta)
        self._down = max(0.0, self._down + self._mean - value - delta)
        if self.samples < self.min_samples:
            return False
        return self.statistic > self.threshold * scale

    def reset(self) -> None:
        """Restart from scratch (re-learn the baseline after a drift)."""
        self.samples = 0
        self._mean = 0.0
        self._up = 0.0
        self._down = 0.0

    def export_state(self) -> dict[str, Any]:
        """Exact JSON-serializable detector state (parameters + stats)."""
        return {
            "delta": self.delta,
            "threshold": self.threshold,
            "min_samples": self.min_samples,
            "relative": self.relative,
            "samples": self.samples,
            "mean": self._mean,
            "up": self._up,
            "down": self._down,
        }

    @classmethod
    def restore_state(cls, state: dict[str, Any]) -> "PageHinkleyDetector":
        """Rebuild a detector from :meth:`export_state` output.

        The restored detector continues the sample stream exactly: the
        running mean and both one-sided statistics are carried over
        bit-for-bit, so drift confirmations fire on the same records as
        they would have without the snapshot/restore cycle.
        """
        detector = cls(
            delta=float(state["delta"]),
            threshold=float(state["threshold"]),
            min_samples=int(state["min_samples"]),
            relative=bool(state["relative"]),
        )
        detector.samples = int(state["samples"])
        detector._mean = float(state["mean"])
        detector._up = float(state["up"])
        detector._down = float(state["down"])
        return detector


@dataclass(frozen=True)
class DriftEvent:
    """One confirmed drift: what moved, by how much, and when."""

    #: Parameter family: ``residence_time`` / ``arrival_rate`` /
    #: ``transition_probability``.
    kind: str
    #: What drifted, e.g. ``"EP/process_order"`` or ``"EP"``.
    subject: str
    #: Records the monitor had consumed when the drift was confirmed.
    records_seen: int
    #: Value of the drift statistic at confirmation time.
    statistic: float
    #: The (effective) threshold the statistic exceeded.
    threshold: float
    #: The detector's reference mean at confirmation time.
    reference_mean: float

    def to_document(self) -> dict[str, Any]:
        """JSON-serializable form."""
        return {
            "kind": self.kind,
            "subject": self.subject,
            "records_seen": self.records_seen,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "reference_mean": self.reference_mean,
        }

    @classmethod
    def from_document(cls, data: dict[str, Any]) -> "DriftEvent":
        """Rebuild an event from :meth:`to_document` output."""
        return cls(
            kind=str(data["kind"]),
            subject=str(data["subject"]),
            records_seen=int(data["records_seen"]),
            statistic=float(data["statistic"]),
            threshold=float(data["threshold"]),
            reference_mean=float(data["reference_mean"]),
        )

    def __str__(self) -> str:
        return (
            f"drift[{self.kind}] {self.subject}: statistic "
            f"{self.statistic:.4g} > threshold {self.threshold:.4g} "
            f"after {self.records_seen} records"
        )


class DriftMonitor:
    """Watch a record stream for parameter drift; report each hit.

    Feeds every record to an internal (or shared) streaming calibrator
    and to lazily created Page–Hinkley detectors:

    * one *relative* detector per ``(workflow type, state)`` over
      residence times;
    * one *relative* detector per workflow type over instance
      inter-completion times (the reciprocal view of the arrival
      rate);
    * one *absolute* detector per observed transition ``(workflow
      type, state, successor)`` over take/not-take indicators — the
      Bernoulli stream whose mean is the transition probability.

    The detectors' settings are the module constants (:data:`DELTA`,
    :data:`THRESHOLD`, :data:`MIN_SAMPLES`, :data:`INDICATOR_DELTA`,
    :data:`INDICATOR_THRESHOLD`).  On a confirmed drift the monitor
    records ``monitor.drift.confirmed`` (plus a per-family counter),
    emits a structured ``monitor.drift`` trace event, resets the firing
    detector to re-learn the new regime, and reports the
    :class:`DriftEvent` to the caller and the optional ``on_drift``
    callback.
    """

    def __init__(
        self,
        calibrator: StreamingCalibrator | None = None,
        on_drift: Callable[["DriftEvent"], None] | None = None,
    ) -> None:
        self.calibrator = (
            calibrator if calibrator is not None else StreamingCalibrator()
        )
        self.events: list[DriftEvent] = []
        self._on_drift = on_drift
        self._residence: dict[tuple[str, str], PageHinkleyDetector] = {}
        self._interarrival: dict[str, PageHinkleyDetector] = {}
        self._transitions: dict[
            tuple[str, str], dict[str, PageHinkleyDetector]
        ] = {}
        self._last_completion: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Verdict
    # ------------------------------------------------------------------
    @property
    def has_drift(self) -> bool:
        """Whether any drift has been confirmed so far."""
        return bool(self.events)

    def detector_count(self) -> int:
        """Number of detectors created so far (all families)."""
        return (
            len(self._residence)
            + len(self._interarrival)
            + sum(len(group) for group in self._transitions.values())
        )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def observe_row(self, kind: str, row: tuple) -> list[DriftEvent]:
        """Feed one validated audit row; returns the drifts it confirmed.

        The calibrator consumes the row
        (:meth:`~repro.monitor.stream.StreamingCalibrator.observe_row`),
        then the detectors read its fields: a state visit feeds its
        residence time and transition indicators, an instance its
        inter-completion gap.  Counts no ``monitor.stream.records``
        (:meth:`observe_rows` does, once per batch).
        """
        confirmed: list[DriftEvent] = []
        self._observe_row(kind, row, confirmed)
        return confirmed

    def observe_rows(
        self, rows: Iterable[tuple[str, tuple]]
    ) -> list[DriftEvent]:
        """Feed ``(kind, row)`` pairs; returns every confirmed drift.

        Counts the rows in ``monitor.stream.records`` once, also when a
        row raises midway (then the rows consumed before it).
        """
        confirmed: list[DriftEvent] = []
        observe_row = self._observe_row
        before = self.calibrator.records_seen
        try:
            for kind, row in rows:
                observe_row(kind, row, confirmed)
        finally:
            count = self.calibrator.records_seen - before
            if count:
                obs.count("monitor.stream.records", count)
        return confirmed

    def observe_all(self, records: Iterable[AuditRecord]) -> list[DriftEvent]:
        """Feed a record stream; returns every confirmed drift."""
        return self.observe_rows(map(record_row, records))

    def _observe_row(
        self, kind: str, row: tuple, confirmed: list[DriftEvent]
    ) -> None:
        self.calibrator.observe_row(kind, row)
        if kind == STATE_VISIT:
            self._observe_visit(row, confirmed)
        elif kind == INSTANCE:
            self._observe_instance(row, confirmed)

    def _observe_visit(
        self, row: tuple, confirmed: list[DriftEvent]
    ) -> None:
        _, workflow_type, state, entered_at, left_at, next_state = row
        key = (workflow_type, state)
        detector = self._residence.get(key)
        if detector is None:
            detector = PageHinkleyDetector(relative=True)
            self._residence[key] = detector
        if detector.update(left_at - entered_at):
            confirmed.append(
                self._confirm(
                    "residence_time", f"{workflow_type}/{state}", detector
                )
            )
        indicators = entry(self._transitions, key, dict)
        if next_state not in indicators:
            indicators[next_state] = PageHinkleyDetector(
                delta=INDICATOR_DELTA, threshold=INDICATOR_THRESHOLD
            )
        for successor, indicator in indicators.items():
            taken = 1.0 if successor == next_state else 0.0
            if indicator.update(taken):
                confirmed.append(
                    self._confirm(
                        "transition_probability",
                        f"{workflow_type}/{state}->{successor}",
                        indicator,
                    )
                )

    def _observe_instance(
        self, row: tuple, confirmed: list[DriftEvent]
    ) -> None:
        _, workflow_type, _, completed_at = row
        last = self._last_completion.get(workflow_type)
        self._last_completion[workflow_type] = completed_at
        if last is None:
            return
        detector = self._interarrival.get(workflow_type)
        if detector is None:
            detector = PageHinkleyDetector(relative=True)
            self._interarrival[workflow_type] = detector
        gap = completed_at - last
        if gap >= 0.0 and detector.update(gap):
            confirmed.append(
                self._confirm("arrival_rate", workflow_type, detector)
            )

    # ------------------------------------------------------------------
    # Confirmation protocol
    # ------------------------------------------------------------------
    def _confirm(
        self, kind: str, subject: str, detector: PageHinkleyDetector
    ) -> DriftEvent:
        event = DriftEvent(
            kind=kind,
            subject=subject,
            records_seen=self.calibrator.records_seen,
            statistic=detector.statistic,
            threshold=detector.effective_threshold(),
            reference_mean=detector.mean,
        )
        self.events.append(event)
        obs.count("monitor.drift.confirmed")
        obs.count(f"monitor.drift.{kind}")
        obs.event(
            "monitor.drift",
            family=kind,
            subject=subject,
            statistic=event.statistic,
            threshold=event.threshold,
            records_seen=event.records_seen,
        )
        detector.reset()
        if self._on_drift is not None:
            self._on_drift(event)
        return event

    # ------------------------------------------------------------------
    # Snapshot state (service warm restart)
    # ------------------------------------------------------------------
    def export_state(self) -> dict[str, Any]:
        """JSON-serializable snapshot: calibrator + every detector.

        Composite detector keys are exported as lists (JSON objects
        cannot key on tuples); detector insertion order is preserved,
        which matters because :meth:`_observe_visit` iterates the
        transition-indicator group in creation order.
        """
        return {
            "schema": "repro.monitor.drift-state/v1",
            "config": dict(CONFIG),
            "calibrator": self.calibrator.export_state(),
            "events": [event.to_document() for event in self.events],
            "residence": [
                [workflow, state, detector.export_state()]
                for (workflow, state), detector in self._residence.items()
            ],
            "interarrival": {
                workflow: detector.export_state()
                for workflow, detector in self._interarrival.items()
            },
            "transitions": [
                [
                    workflow,
                    state,
                    {
                        successor: detector.export_state()
                        for successor, detector in indicators.items()
                    },
                ]
                for (workflow, state), indicators in
                self._transitions.items()
            ],
            "last_completion": dict(self._last_completion),
        }

    @classmethod
    def restore_state(
        cls,
        state: dict[str, Any],
        on_drift: Callable[["DriftEvent"], None] | None = None,
    ) -> "DriftMonitor":
        """Rebuild a monitor (and its calibrator) from a snapshot.

        ``on_drift`` re-attaches the live callback a snapshot
        deliberately does not carry.  The restored monitor confirms
        future drifts on exactly the records the original would have.
        A snapshot whose ``config`` differs from :data:`CONFIG` was
        taken under detector settings this code does not run, and is
        rejected.
        """
        if state.get("schema") != "repro.monitor.drift-state/v1":
            raise ValidationError(
                f"unknown drift snapshot schema {state.get('schema')!r}"
            )
        if state.get("config") != CONFIG:
            raise ValidationError(
                f"drift snapshot config {state.get('config')!r} differs "
                f"from the detector settings {CONFIG!r}"
            )
        monitor = cls(
            calibrator=StreamingCalibrator.restore_state(
                state["calibrator"]
            ),
            on_drift=on_drift,
        )
        monitor.events = [
            DriftEvent.from_document(event) for event in state["events"]
        ]
        monitor._residence = {
            (workflow, visited): PageHinkleyDetector.restore_state(detector)
            for workflow, visited, detector in state["residence"]
        }
        monitor._interarrival = {
            workflow: PageHinkleyDetector.restore_state(detector)
            for workflow, detector in state["interarrival"].items()
        }
        monitor._transitions = {
            (workflow, visited): {
                successor: PageHinkleyDetector.restore_state(detector)
                for successor, detector in indicators.items()
            }
            for workflow, visited, indicators in state["transitions"]
        }
        monitor._last_completion = {
            workflow: float(value)
            for workflow, value in state["last_completion"].items()
        }
        return monitor

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def document(self) -> dict[str, Any]:
        """JSON-serializable drift verdict summary."""
        return {
            "schema": "repro.monitor.drift/v1",
            "records_seen": self.calibrator.records_seen,
            "detectors": self.detector_count(),
            "confirmed": [event.to_document() for event in self.events],
            "has_drift": self.has_drift,
        }

    def format_text(self) -> str:
        """Human-readable drift verdict."""
        lines = [
            f"Drift verdict over {self.calibrator.records_seen} records "
            f"({self.detector_count()} detectors):"
        ]
        if not self.events:
            lines.append("  no drift confirmed")
        for event in self.events:
            lines.append(f"  {event}")
        return "\n".join(lines)
