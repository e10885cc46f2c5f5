"""Sequential drift detection over streaming calibration statistics.

The paper's dynamic reconfiguration (§7.1) needs to know when the
running system has drifted away from the parameters the current
configuration was chosen for.  This module is the one drift rule of the
§7 loop: it answers that question *online*, record by record, with
Page–Hinkley / CUSUM-style sequential change detectors:

* :class:`PageHinkleyDetector` — the classic two-sided Page–Hinkley
  test in its reset-at-minimum (CUSUM) formulation, optionally with
  magnitude/threshold relative to the running mean so one parameter set
  serves residence times of any scale;
* :class:`CusumDetector` — a two-sided CUSUM against a *known*
  reference mean, for watching a quantity against its calibrated value;
* :class:`DriftMonitor` — wires detectors over the three parameter
  families the paper calibrates (transition probabilities, residence
  times, arrival rates), feeds them from a
  :class:`~repro.monitor.stream.StreamingCalibrator`, emits
  ``monitor.drift.*`` obs counters and structured trace events, and on
  a confirmed drift invalidates attached
  :class:`~repro.core.evaluation_cache.EvaluationCache` instances so
  the next configuration search re-evaluates against freshly
  calibrated models — closing the paper's reconfiguration loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro import obs
from repro.core.evaluation_cache import EvaluationCache
from repro.exceptions import ValidationError
from repro.monitor.audit import (
    InstanceRecord,
    ServiceRequestRecord,
    StateVisitRecord,
)
from repro.monitor.stream import AuditRecord, StreamingCalibrator

__all__ = [
    "CusumDetector",
    "DriftEvent",
    "DriftMonitor",
    "PageHinkleyDetector",
]


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
        delta: float = 0.25,
        threshold: float = 15.0,
        min_samples: int = 30,
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


class CusumDetector:
    """Two-sided CUSUM against a known (calibrated) reference mean.

    Where :class:`PageHinkleyDetector` learns its reference from the
    stream, this detector watches for departures from an *externally
    calibrated* value — e.g. the residence time the current
    configuration recommendation was computed with.  ``slack`` is the
    per-sample allowance (the classic CUSUM ``k``), ``threshold`` the
    decision interval ``h``; both in signal units.
    """

    __slots__ = ("reference", "slack", "threshold", "samples", "_up",
                 "_down")

    def __init__(
        self, reference: float, slack: float, threshold: float
    ) -> None:
        if slack < 0.0:
            raise ValidationError("slack must be >= 0")
        if threshold <= 0.0:
            raise ValidationError("threshold must be positive")
        self.reference = reference
        self.slack = slack
        self.threshold = threshold
        self.samples = 0
        self._up = 0.0
        self._down = 0.0

    @property
    def statistic(self) -> float:
        """The larger of the two one-sided CUSUM statistics."""
        return max(self._up, self._down)

    def update(self, value: float) -> bool:
        """Consume one observation; ``True`` when drift is confirmed."""
        self.samples += 1
        deviation = value - self.reference
        self._up = max(0.0, self._up + deviation - self.slack)
        self._down = max(0.0, self._down - deviation - self.slack)
        return self.statistic > self.threshold

    def reset(self) -> None:
        """Zero the statistics (the reference is kept)."""
        self.samples = 0
        self._up = 0.0
        self._down = 0.0


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
    """Watch a record stream for parameter drift; invalidate on hit.

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

    On a confirmed drift the monitor records ``monitor.drift.confirmed``
    (plus a per-family counter), emits a structured ``monitor.drift``
    trace event, invalidates every attached evaluation cache so the
    next search re-evaluates with fresh parameters, resets the firing
    detector to re-learn the new regime, and reports the
    :class:`DriftEvent` to the caller and the optional callback.
    """

    def __init__(
        self,
        calibrator: StreamingCalibrator | None = None,
        delta: float = 0.25,
        threshold: float = 15.0,
        min_samples: int = 30,
        indicator_delta: float = 0.1,
        indicator_threshold: float = 8.0,
        caches: Iterable[EvaluationCache] = (),
        on_drift: Callable[["DriftEvent"], None] | None = None,
    ) -> None:
        self.calibrator = (
            calibrator if calibrator is not None else StreamingCalibrator()
        )
        self.delta = delta
        self.threshold = threshold
        self.min_samples = min_samples
        self.indicator_delta = indicator_delta
        self.indicator_threshold = indicator_threshold
        self.events: list[DriftEvent] = []
        self._caches: list[EvaluationCache] = list(caches)
        self._on_drift = on_drift
        self._residence: dict[tuple[str, str], PageHinkleyDetector] = {}
        self._interarrival: dict[str, PageHinkleyDetector] = {}
        self._transitions: dict[
            tuple[str, str], dict[str, PageHinkleyDetector]
        ] = {}
        self._last_completion: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_cache(self, cache: EvaluationCache) -> None:
        """Invalidate ``cache`` whenever a drift is confirmed."""
        self._caches.append(cache)

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
    def observe(self, record: AuditRecord) -> list[DriftEvent]:
        """Feed one record; returns the drifts it confirmed (often [])."""
        self.calibrator.observe(record)
        confirmed: list[DriftEvent] = []
        if isinstance(record, StateVisitRecord):
            confirmed.extend(self._observe_visit(record))
        elif isinstance(record, InstanceRecord):
            confirmed.extend(self._observe_instance(record))
        elif not isinstance(record, ServiceRequestRecord):
            raise ValidationError(
                f"unknown audit record type {type(record).__name__}"
            )
        return confirmed

    def observe_all(self, records: Iterable[AuditRecord]) -> list[DriftEvent]:
        """Feed a record stream; returns every confirmed drift."""
        confirmed: list[DriftEvent] = []
        for record in records:
            confirmed.extend(self.observe(record))
        return confirmed

    def _observe_visit(
        self, record: StateVisitRecord
    ) -> list[DriftEvent]:
        confirmed: list[DriftEvent] = []
        key = (record.workflow_type, record.state)
        detector = self._residence.get(key)
        if detector is None:
            detector = PageHinkleyDetector(
                delta=self.delta,
                threshold=self.threshold,
                min_samples=self.min_samples,
                relative=True,
            )
            self._residence[key] = detector
        if detector.update(record.residence_time):
            confirmed.append(
                self._confirm(
                    "residence_time",
                    f"{record.workflow_type}/{record.state}",
                    detector,
                )
            )
        indicators = self._transitions.setdefault(key, {})
        if record.next_state not in indicators:
            indicators[record.next_state] = PageHinkleyDetector(
                delta=self.indicator_delta,
                threshold=self.indicator_threshold,
                min_samples=self.min_samples,
                relative=False,
            )
        for successor, indicator in indicators.items():
            taken = 1.0 if successor == record.next_state else 0.0
            if indicator.update(taken):
                confirmed.append(
                    self._confirm(
                        "transition_probability",
                        f"{record.workflow_type}/{record.state}"
                        f"->{successor}",
                        indicator,
                    )
                )
        return confirmed

    def _observe_instance(
        self, record: InstanceRecord
    ) -> list[DriftEvent]:
        confirmed: list[DriftEvent] = []
        workflow_type = record.workflow_type
        last = self._last_completion.get(workflow_type)
        self._last_completion[workflow_type] = record.completed_at
        if last is None:
            return confirmed
        detector = self._interarrival.get(workflow_type)
        if detector is None:
            detector = PageHinkleyDetector(
                delta=self.delta,
                threshold=self.threshold,
                min_samples=self.min_samples,
                relative=True,
            )
            self._interarrival[workflow_type] = detector
        gap = record.completed_at - last
        if gap >= 0.0 and detector.update(gap):
            confirmed.append(
                self._confirm("arrival_rate", workflow_type, detector)
            )
        return confirmed

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
        for cache in self._caches:
            cache.invalidate(reason=f"drift: {kind} {subject}")
            obs.count("monitor.drift.cache_invalidations")
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
            "config": {
                "delta": self.delta,
                "threshold": self.threshold,
                "min_samples": self.min_samples,
                "indicator_delta": self.indicator_delta,
                "indicator_threshold": self.indicator_threshold,
            },
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
        caches: Iterable[EvaluationCache] = (),
        on_drift: Callable[["DriftEvent"], None] | None = None,
    ) -> "DriftMonitor":
        """Rebuild a monitor (and its calibrator) from a snapshot.

        ``caches``/``on_drift`` re-attach the live wiring a snapshot
        deliberately does not carry.  The restored monitor confirms
        future drifts on exactly the records the original would have.
        """
        if state.get("schema") != "repro.monitor.drift-state/v1":
            raise ValidationError(
                f"unknown drift snapshot schema {state.get('schema')!r}"
            )
        config = state["config"]
        monitor = cls(
            calibrator=StreamingCalibrator.restore_state(
                state["calibrator"]
            ),
            delta=float(config["delta"]),
            threshold=float(config["threshold"]),
            min_samples=int(config["min_samples"]),
            indicator_delta=float(config["indicator_delta"]),
            indicator_threshold=float(config["indicator_threshold"]),
            caches=caches,
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
