"""Metric primitives: counters, gauges, histograms, and their registry.

The instrumentation layer of the reproduction is deliberately tiny and
dependency-free: a :class:`MetricsRegistry` hands out named metric
objects (get-or-create), every metric knows how to snapshot itself into
plain JSON-serializable data, and the registry can be disabled so that
the convenience recording methods (:meth:`MetricsRegistry.inc` etc.)
become cheap no-ops.  The analytic solvers, the configuration search,
and the simulated WFMS all record into the process-wide default registry
owned by :mod:`repro.obs`.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.exceptions import ValidationError

#: Default histogram bucket boundaries: a 1-2-5 decade ladder wide
#: enough for iteration counts, truncation depths, and state-space sizes.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    base * 10**exponent
    for exponent in range(0, 7)
    for base in (1.0, 2.0, 5.0)
)


class Counter:
    """A monotonically increasing value (events, iterations, solves)."""

    kind = "counter"
    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current cumulative value."""
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0.0:
            raise ValidationError(
                f"counter {self.name}: increment must be >= 0, got {amount}"
            )
        self._value += amount

    def reset(self) -> None:
        """Zero the counter."""
        self._value = 0.0

    def snapshot(self) -> dict:
        """JSON-ready document of the counter's state."""
        return {"type": self.kind, "value": self._value, "help": self.help}

    def export_state(self) -> dict:
        """Picklable state for cross-process merging."""
        return {"kind": self.kind, "help": self.help, "value": self._value}

    def merge_state(self, state: dict) -> None:
        """Fold an exported counter state in: values add."""
        self._value += float(state["value"])


class Gauge:
    """A value that can go up and down (queue depths, sizes)."""

    kind = "gauge"
    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current level."""
        return self._value

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self._value = float(value)

    def set_max(self, value: float) -> None:
        """Keep the running maximum (high-water-mark gauges)."""
        if value > self._value:
            self._value = float(value)

    def reset(self) -> None:
        """Zero the gauge."""
        self._value = 0.0

    def snapshot(self) -> dict:
        """JSON-ready document of the gauge's state."""
        return {"type": self.kind, "value": self._value, "help": self.help}

    def export_state(self) -> dict:
        """Picklable state for cross-process merging."""
        return {"kind": self.kind, "help": self.help, "value": self._value}

    def merge_state(self, state: dict) -> None:
        """Fold an exported gauge state in: the maximum wins.

        Every gauge in this codebase is a level or high-water mark
        (calendar depth, worker counts, throughput); taking the maximum
        makes the merged value independent of merge order, which the
        deterministic cross-process propagation contract requires.
        """
        value = float(state["value"])
        if value > self._value:
            self._value = value


class Histogram:
    """A distribution summary: count/sum/min/max plus bucket counts.

    Buckets follow the Prometheus convention: ``buckets[i]`` counts
    observations with ``value <= boundary[i]`` (cumulative on export, an
    implicit ``+Inf`` bucket equals the total count).
    """

    kind = "histogram"
    __slots__ = ("name", "help", "_boundaries", "_buckets", "_count",
                 "_sum", "_min", "_max")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] | None = None,
    ) -> None:
        self.name = name
        self.help = help
        boundaries = tuple(
            sorted(DEFAULT_BUCKETS if buckets is None else buckets)
        )
        if not boundaries:
            raise ValidationError(
                f"histogram {name}: needs at least one bucket boundary"
            )
        self._boundaries = boundaries
        self._buckets = [0] * len(boundaries)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    @property
    def count(self) -> int:
        """Number of observed values."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    @property
    def mean(self) -> float:
        """Mean of the observed values."""
        return self._sum / self._count if self._count else 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        for i, boundary in enumerate(self._boundaries):
            if value <= boundary:
                self._buckets[i] += 1
                break

    def reset(self) -> None:
        """Drop all observations, keeping the bucket bounds."""
        self._buckets = [0] * len(self._boundaries)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_boundary, cumulative_count)`` pairs, Prometheus-style."""
        pairs = []
        running = 0
        for boundary, count in zip(self._boundaries, self._buckets):
            running += count
            pairs.append((boundary, running))
        return pairs

    def snapshot(self) -> dict:
        """JSON-ready document with bucket counts and summary stats."""
        return {
            "type": self.kind,
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
            "buckets": {
                f"{boundary:g}": count
                for boundary, count in self.cumulative_buckets()
            },
            "help": self.help,
        }

    def export_state(self) -> dict:
        """Picklable state (raw per-bucket counts) for merging."""
        return {
            "kind": self.kind,
            "help": self.help,
            "boundaries": list(self._boundaries),
            "buckets": list(self._buckets),
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
        }

    def merge_state(self, state: dict) -> None:
        """Fold an exported histogram state in (bucket-wise addition)."""
        boundaries = tuple(state["boundaries"])
        if boundaries != self._boundaries:
            raise ValidationError(
                f"histogram {self.name}: cannot merge states with "
                f"different bucket boundaries"
            )
        for i, count in enumerate(state["buckets"]):
            self._buckets[i] += count
        self._count += state["count"]
        self._sum += state["sum"]
        if state["min"] < self._min:
            self._min = state["min"]
        if state["max"] > self._max:
            self._max = state["max"]


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Named metrics with get-or-create semantics and an enable switch.

    The typed accessors (:meth:`counter`, :meth:`gauge`,
    :meth:`histogram`) always return a live metric object regardless of
    the enable state — tests and exporters need them.  The *recording*
    convenience methods (:meth:`inc`, :meth:`set_gauge`,
    :meth:`set_max`, :meth:`observe`) are the instrumentation entry
    points and become no-ops while the registry is disabled, which is
    what keeps observability effectively free when switched off.
    """

    def __init__(self, enabled: bool = True) -> None:
        self._metrics: dict[str, Metric] = {}
        self._enabled = bool(enabled)

    # ------------------------------------------------------------------
    # Enable switch
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether recording is currently on."""
        return self._enabled

    def enable(self) -> None:
        """Turn recording on."""
        self._enabled = True

    def disable(self) -> None:
        """Turn recording off (recorded data is kept)."""
        self._enabled = False

    # ------------------------------------------------------------------
    # Metric accessors (get-or-create)
    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, factory, help: str):
        metric = self._metrics.get(name)
        if metric is None:
            if not name:
                raise ValidationError("metric name must be non-empty")
            metric = factory(name, help)
            self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter called ``name``."""
        metric = self._get_or_create(name, Counter, help)
        if not isinstance(metric, Counter):
            raise ValidationError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge called ``name``."""
        metric = self._get_or_create(name, Gauge, help)
        if not isinstance(metric, Gauge):
            raise ValidationError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] | None = None,
    ) -> Histogram:
        """Get or create the histogram called ``name``."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, help, buckets)
            self._metrics[name] = metric
        if not isinstance(metric, Histogram):
            raise ValidationError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    # ------------------------------------------------------------------
    # Recording (no-ops while disabled)
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` when enabled."""
        if self._enabled:
            self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` when enabled."""
        if self._enabled:
            self.gauge(name).set(value)

    def set_max(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to at least ``value`` when enabled."""
        if self._enabled:
            self.gauge(name).set_max(value)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` in histogram ``name`` when enabled."""
        if self._enabled:
            self.histogram(name).observe(value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, name: object) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def metrics(self) -> Mapping[str, Metric]:
        """Read-only view of the registered metrics."""
        return dict(self._metrics)

    def snapshot(self) -> dict[str, dict]:
        """JSON-serializable snapshot of every metric, sorted by name."""
        return {
            name: self._metrics[name].snapshot()
            for name in sorted(self._metrics)
        }

    def reset(self) -> None:
        """Zero every metric, keeping the registrations."""
        for metric in self._metrics.values():
            metric.reset()

    def clear(self) -> None:
        """Drop every registration."""
        self._metrics.clear()

    # ------------------------------------------------------------------
    # Cross-process snapshots
    # ------------------------------------------------------------------
    def export_snapshot(self) -> dict[str, dict]:
        """Picklable snapshot of every metric that recorded anything.

        Zero-valued counters/gauges and empty histograms are skipped
        (worker processes re-declare the full well-known set, and
        shipping dozens of zeros per replication is pure IPC overhead).
        """
        snapshot: dict[str, dict] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                if metric.count == 0:
                    continue
            elif metric.value == 0.0:
                continue
            snapshot[name] = metric.export_state()
        return snapshot

    def merge_snapshot(self, snapshot: Mapping[str, dict]) -> int:
        """Fold an exported snapshot into this registry.

        Counters add, gauges keep the maximum, histograms merge
        bucket-wise — all order-independent operations, so merging the
        same set of worker snapshots in any order yields identical
        totals.  Missing metrics are created with the snapshot's kind
        and help text.  Merging bypasses the enable switch: the data
        was already recorded (in another process); this is bookkeeping,
        not new instrumentation.  Returns the number of merged metrics.
        """
        factories = {
            "counter": self.counter,
            "gauge": self.gauge,
            "histogram": self.histogram,
        }
        merged = 0
        for name in sorted(snapshot):
            state = snapshot[name]
            kind = state["kind"]
            if kind not in factories:
                raise ValidationError(
                    f"snapshot metric {name!r} has unknown kind {kind!r}"
                )
            if kind == "histogram" and name not in self._metrics:
                metric = self.histogram(
                    name, state["help"], state["boundaries"]
                )
            else:
                metric = factories[kind](name, state["help"])
            metric.merge_state(state)
            merged += 1
        return merged
