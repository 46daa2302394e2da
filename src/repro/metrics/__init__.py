"""Measurement: client-side session audits, primary-interval analysis,
summary statistics and table rendering for the experiment harness."""

from repro.metrics.collectors import summarize
from repro.metrics.report import Table
from repro.metrics.session_audit import (
    SessionAuditReport,
    audit_session,
    dual_sender_time,
    lost_updates,
    primary_intervals,
    service_gaps,
)
from repro.metrics.windows import (
    intersect_intervals,
    max_silence_within,
    merge_intervals,
    multi_primary_time,
    multi_primary_time_within,
    no_primary_time,
    pad_intervals,
    subtract_intervals,
    total_length,
)

__all__ = [
    "SessionAuditReport",
    "Table",
    "audit_session",
    "dual_sender_time",
    "intersect_intervals",
    "lost_updates",
    "max_silence_within",
    "merge_intervals",
    "multi_primary_time",
    "multi_primary_time_within",
    "no_primary_time",
    "pad_intervals",
    "primary_intervals",
    "service_gaps",
    "subtract_intervals",
    "summarize",
    "total_length",
]
