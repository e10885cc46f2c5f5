"""Monitoring and calibration (Section 7.1): audit trails in, parameters out.

Audit trails (:mod:`repro.monitor.audit`, persisted as JSON Lines by
:mod:`repro.monitor.persistence`) feed one calibrator,
:class:`~repro.monitor.stream.StreamingCalibrator`, record by record,
whether they come from a complete trail file or a live feed;
:mod:`repro.monitor.drift` watches the same records for parameter
drift — the substrate of the continuous monitor -> calibrate ->
evaluate -> recommend loop.
"""

from repro.monitor.audit import (
    TERMINATION,
    AuditTrail,
    InstanceRecord,
    ServiceRequestRecord,
    StateVisitRecord,
)
from repro.monitor.persistence import (
    iter_trail_records,
    iter_trail_rows,
    load_trail,
    parse_record_line,
    parse_record_row,
    save_trail,
)
from repro.monitor.stream import ServiceTimeEstimate, StreamingCalibrator
from repro.monitor.drift import (
    DriftEvent,
    DriftMonitor,
    PageHinkleyDetector,
)

__all__ = [
    "AuditTrail",
    "DriftEvent",
    "DriftMonitor",
    "InstanceRecord",
    "PageHinkleyDetector",
    "ServiceRequestRecord",
    "ServiceTimeEstimate",
    "StateVisitRecord",
    "StreamingCalibrator",
    "TERMINATION",
    "iter_trail_records",
    "iter_trail_rows",
    "load_trail",
    "parse_record_line",
    "parse_record_row",
    "save_trail",
]
