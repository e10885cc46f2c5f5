"""Monitoring and calibration (Section 7.1): audit trails in, parameters out.

Batch calibration (:mod:`repro.monitor.calibration`) consumes complete
audit trails; the streaming layer (:mod:`repro.monitor.stream`,
:mod:`repro.monitor.drift`) consumes records one at a time, reproduces
the batch estimates bitwise, and watches for parameter drift —
the substrate of the continuous monitor -> calibrate -> evaluate ->
recommend loop.
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
from repro.monitor.calibration import (
    ServiceTimeEstimate,
    build_flat_workflow,
    calibrate_flat_workflow,
    calibrate_server_type,
    estimate_arrival_rate,
    estimate_requests_per_instance,
    estimate_residence_times,
    estimate_service_times,
    estimate_transition_probabilities,
    estimate_turnaround_time,
)
from repro.monitor.stream import StreamingCalibrator
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
    "build_flat_workflow",
    "calibrate_flat_workflow",
    "calibrate_server_type",
    "estimate_arrival_rate",
    "estimate_requests_per_instance",
    "estimate_residence_times",
    "estimate_service_times",
    "estimate_transition_probabilities",
    "estimate_turnaround_time",
    "iter_trail_records",
    "iter_trail_rows",
    "load_trail",
    "parse_record_line",
    "parse_record_row",
    "save_trail",
]
