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
from repro.faults.injector import LinkFaults, apply, inject
from repro.faults.schedule import FaultEvent, FaultSchedule, VALID_KINDS

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "LinkFaults",
    "VALID_KINDS",
    "apply",
    "crash_burst_schedule",
    "crash_hook_schedule",
    "flapping_partition_schedule",
    "inject",
    "link_delay_spike_schedule",
    "message_adversity_schedule",
    "poisson_crash_schedule",
    "slowdown_schedule",
]
