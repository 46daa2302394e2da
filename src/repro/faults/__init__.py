"""Fault injection: schedules, random generators, and the injector that
applies them to a running cluster."""

from repro.faults.generators import (
    crash_burst_schedule,
    crash_hook_schedule,
    flapping_partition_schedule,
    link_delay_spike_schedule,
    message_adversity_schedule,
    poisson_crash_schedule,
    slowdown_schedule,
)
from repro.faults.injector import apply, apply_link, inject
from repro.faults.schedule import KINDS, FaultEvent, FaultKind, FaultSchedule

__all__ = [
    "KINDS",
    "FaultEvent",
    "FaultKind",
    "FaultSchedule",
    "apply",
    "apply_link",
    "crash_burst_schedule",
    "crash_hook_schedule",
    "flapping_partition_schedule",
    "inject",
    "link_delay_spike_schedule",
    "message_adversity_schedule",
    "poisson_crash_schedule",
    "slowdown_schedule",
]
