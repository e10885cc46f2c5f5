"""Per-tenant calibration shards and the service snapshot format.

The always-on service keys all mutable state by *tenant* — one
:class:`TenantState` per project/workflow population, each carrying its
own streaming calibrator, drift monitor, evaluation cache, and last
published recommendation.  Sharding by tenant is what lets one service
process serve many independent workloads: nothing is shared across
shards except the read-only baseline project and goal settings.

:class:`ServiceState` is the dict-of-shards plus the snapshot
(de)serialization used for graceful shutdown and warm restart.  A
snapshot embeds each tenant's exact drift-monitor state (which embeds
the calibrator state down to the float accumulators), so a restarted
service continues producing *bitwise* the same estimates — and
therefore byte-identical recommendation documents — as one that never
stopped.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable

from repro.core.evaluation_cache import EvaluationCache
from repro.exceptions import ValidationError
from repro.monitor.drift import DriftEvent, DriftMonitor
from repro.monitor.stream import StreamingCalibrator

#: Schema tag of the on-disk service snapshot.
SNAPSHOT_SCHEMA = "repro.service.snapshot/v1"

#: Tenant used when a request does not name one.
DEFAULT_TENANT = "default"


class TenantState:
    """One tenant's calibration, drift, cache, and published result.

    The evaluation cache is deliberately *not* attached to the drift
    monitor: attachment would wipe the cache wholesale on every
    confirmed drift, whereas the pipeline re-binds it incrementally at
    search time
    (:meth:`~repro.core.evaluation_cache.EvaluationCache.rebind`),
    keeping every curve and pool marginal whose inputs did not move.
    """

    def __init__(
        self,
        name: str,
        window: float = 1_000.0,
        on_drift: Callable[[DriftEvent], None] | None = None,
        monitor: DriftMonitor | None = None,
    ) -> None:
        if not name:
            raise ValidationError("tenant name must be non-empty")
        self.name = name
        self.cache = EvaluationCache()
        if monitor is None:
            monitor = DriftMonitor(
                calibrator=StreamingCalibrator(window=window),
                on_drift=on_drift,
            )
        self.monitor = monitor
        #: Last published recommendation document (None until the first
        #: search completes) and its staleness bookkeeping.
        self.document: dict[str, Any] | None = None
        self.revision = 0
        self.records_at_publish = 0
        self.drift_at_publish = 0
        self.drift_confirmations = 0

    @property
    def calibrator(self) -> StreamingCalibrator:
        """The tenant's streaming calibrator (owned by the monitor)."""
        return self.monitor.calibrator

    @property
    def records_seen(self) -> int:
        """Audit records ingested for this tenant so far."""
        return self.calibrator.records_seen

    def publish(self, document: dict[str, Any], records_seen: int) -> int:
        """Adopt a recommendation computed at ``records_seen`` records.

        Returns the new revision.  ``records_seen`` is the calibrator
        position the search ran against — for a background search that
        is the snapshot position, which may already trail the live
        calibrator; the staleness metadata reports the difference.
        """
        self.document = document
        self.revision += 1
        self.records_at_publish = records_seen
        self.drift_at_publish = self.drift_confirmations
        return self.revision

    def staleness(self) -> dict[str, Any]:
        """The ``/recommendation`` staleness metadata of this tenant.

        ``age_records`` counts records ingested since the published
        document's calibration position; ``drift_since_publish`` counts
        drift confirmations since then.  A recommendation is ``stale``
        when either is positive (newer evidence exists that it does not
        reflect) or when none has been published yet.
        """
        age = self.records_seen - self.records_at_publish
        drift = self.drift_confirmations - self.drift_at_publish
        return {
            "tenant": self.name,
            "revision": self.revision,
            "published": self.document is not None,
            "records_seen": self.records_seen,
            "records_at_publish": self.records_at_publish,
            "age_records": age,
            "drift_since_publish": drift,
            "stale": self.document is None or age > 0 or drift > 0,
        }

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def export_state(self) -> dict[str, Any]:
        """JSON-serializable exact state of this shard."""
        return {
            "name": self.name,
            "monitor": self.monitor.export_state(),
            "document": self.document,
            "revision": self.revision,
            "records_at_publish": self.records_at_publish,
            "drift_at_publish": self.drift_at_publish,
            "drift_confirmations": self.drift_confirmations,
        }

    @classmethod
    def restore_state(
        cls,
        state: dict[str, Any],
        on_drift: Callable[[DriftEvent], None] | None = None,
    ) -> "TenantState":
        """Rebuild a shard from :meth:`export_state` output."""
        monitor = DriftMonitor.restore_state(
            state["monitor"], on_drift=on_drift
        )
        tenant = cls(name=state["name"], monitor=monitor)
        tenant.document = state.get("document")
        tenant.revision = int(state.get("revision", 0))
        tenant.records_at_publish = int(state.get("records_at_publish", 0))
        tenant.drift_at_publish = int(state.get("drift_at_publish", 0))
        tenant.drift_confirmations = int(
            state.get("drift_confirmations", 0)
        )
        return tenant


class ServiceState:
    """All tenant shards of one service process."""

    def __init__(
        self,
        window: float = 1_000.0,
        on_drift: Callable[[str, DriftEvent], None] | None = None,
    ) -> None:
        self.window = window
        self._on_drift = on_drift
        self.tenants: dict[str, TenantState] = {}

    def tenant(self, name: str = DEFAULT_TENANT) -> TenantState:
        """The shard for ``name``, created on first use."""
        shard = self.tenants.get(name)
        if shard is None:
            shard = TenantState(
                name,
                window=self.window,
                on_drift=self._tenant_callback(name),
            )
            self.tenants[name] = shard
        return shard

    def _tenant_callback(
        self, name: str
    ) -> Callable[[DriftEvent], None] | None:
        if self._on_drift is None:
            return None
        on_drift = self._on_drift
        return lambda event: on_drift(name, event)

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def export_snapshot(self) -> dict[str, Any]:
        """JSON-serializable exact state of every shard."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "window": self.window,
            "tenants": {
                name: shard.export_state()
                for name, shard in sorted(self.tenants.items())
            },
        }

    @classmethod
    def restore_snapshot(
        cls,
        snapshot: dict[str, Any],
        on_drift: Callable[[str, DriftEvent], None] | None = None,
    ) -> "ServiceState":
        """Rebuild all shards from :meth:`export_snapshot` output."""
        if snapshot.get("schema") != SNAPSHOT_SCHEMA:
            raise ValidationError(
                f"not a service snapshot (schema "
                f"{snapshot.get('schema')!r}, expected "
                f"{SNAPSHOT_SCHEMA!r})"
            )
        state = cls(
            window=float(snapshot.get("window", 1_000.0)),
            on_drift=on_drift,
        )
        for name, shard_state in snapshot.get("tenants", {}).items():
            state.tenants[name] = TenantState.restore_state(
                shard_state, on_drift=state._tenant_callback(name)
            )
        return state

    def save_snapshot(self, path: str | Path) -> int:
        """Write the snapshot as JSON; returns the number of tenants.

        The write is atomic: the JSON goes to a temporary file in the
        same directory, is flushed and fsynced, and then replaces
        ``path`` in one ``os.replace``.  A crash or a full disk
        mid-write leaves the previous snapshot intact; a write that
        fails with an exception also removes its temporary file.
        """
        text = json.dumps(self.export_snapshot(), sort_keys=True)
        target = Path(path)
        descriptor, temporary = tempfile.mkstemp(
            dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w") as stream:
                stream.write(text)
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(temporary, target)
        except BaseException:
            Path(temporary).unlink(missing_ok=True)
            raise
        return len(self.tenants)

    @classmethod
    def load_snapshot(
        cls,
        path: str | Path,
        on_drift: Callable[[str, DriftEvent], None] | None = None,
    ) -> "ServiceState":
        """Read a snapshot file written by :meth:`save_snapshot`."""
        try:
            text = Path(path).read_text()
        except FileNotFoundError:
            raise ValidationError(
                f"snapshot file not found: {path}"
            ) from None
        try:
            snapshot = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"invalid JSON in snapshot {path}: {exc}"
            ) from exc
        return cls.restore_snapshot(snapshot, on_drift=on_drift)
