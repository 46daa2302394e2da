"""Layered random fault-schedule generation.

One chaos iteration draws a *profile* (crash-heavy, partition-heavy, or
gray/message-level) and layers the corresponding independent fault
processes from :mod:`repro.faults.generators` into a single schedule via
:meth:`FaultSchedule.merged`.

Two structural rules keep the generated space inside the oracles' sound
region:

* the **spare** server is never crashed, slowed, or isolated — a fully
  informed witness always survives;
* partitions always name the **clients and the spare in component 0**
  explicitly: the link model puts unmentioned nodes into an implicit
  extra component, so forgetting the clients would silently cut every
  client off from everything.
"""

from __future__ import annotations

import numpy as np

from repro.chaos.config import PROFILES, ChaosConfig
from repro.faults.generators import (
    crash_burst_schedule,
    crash_hook_schedule,
    flapping_partition_schedule,
    link_delay_spike_schedule,
    message_adversity_schedule,
    poisson_crash_schedule,
    slowdown_schedule,
)
from repro.faults.schedule import CRASH_HOOKS, FaultSchedule


def resolve_profile(config: ChaosConfig, index: int) -> str:
    """``mixed`` cycles round-robin over the profiles — deterministic and
    guaranteed to cover all three even in a short smoke run (a random
    draw can cluster badly over a handful of iterations)."""
    if config.profile == "mixed":
        return PROFILES[index % len(PROFILES)]
    return config.profile


def _hook_layer(
    rng: np.random.Generator, config: ChaosConfig, count: int
) -> FaultSchedule:
    """Arm crash-at-step traps and schedule a late repair for each victim
    (a no-op if the trap never fired), so mid-run recovery paths are
    exercised too."""
    schedule = crash_hook_schedule(
        rng,
        config.faultable_servers,
        config.duration,
        hooks=list(CRASH_HOOKS),
        count=count,
        spare=config.spare,
    )
    repairs = FaultSchedule()
    for event in schedule.sorted_events():
        repair_at = event.time + float(rng.uniform(1.0, 3.0))
        if repair_at < config.duration:
            repairs.recover(repair_at, event.target)
    return schedule.merged(repairs)


def _crash_layers(rng: np.random.Generator, config: ChaosConfig) -> FaultSchedule:
    schedule = poisson_crash_schedule(
        rng,
        config.faultable_servers,
        config.duration,
        failure_rate=float(rng.uniform(0.03, 0.12)),
        mean_downtime=float(rng.uniform(1.0, 3.0)),
        spare=config.spare,
    )
    if rng.random() < 0.5 and len(config.faultable_servers) >= 2:
        schedule = schedule.merged(
            crash_burst_schedule(
                rng,
                config.faultable_servers,
                at=float(rng.uniform(0.0, config.duration * 0.7)),
                burst_size=int(rng.integers(2, len(config.faultable_servers) + 1)),
                recover_after=float(rng.uniform(1.0, 3.0)),
            )
        )
    # dense trap coverage: protocol-step crashes are the rarest faults to
    # trigger (the server must actually *enter* the step while armed), so
    # the crash profile arms several per run
    return schedule.merged(_hook_layer(rng, config, count=int(rng.integers(3, 7))))


def _partition_layers(rng: np.random.Generator, config: ChaosConfig) -> FaultSchedule:
    faultable = config.faultable_servers
    isolated_count = int(rng.integers(1, len(faultable) + 1))
    isolated = [str(s) for s in rng.choice(faultable, size=isolated_count, replace=False)]
    # clients and the spare stay with the residual majority — component
    # membership must be explicit (unlisted nodes end up alone)
    residual = [s for s in config.server_ids if s not in isolated]
    residual += config.client_ids
    schedule = flapping_partition_schedule(
        rng,
        left=isolated,
        right=residual,
        duration=config.duration,
        mean_stable=float(rng.uniform(3.0, 6.0)),
        mean_partitioned=float(rng.uniform(1.0, 3.0)),
    )
    if rng.random() < 0.5:
        schedule = schedule.merged(
            poisson_crash_schedule(
                rng,
                faultable,
                config.duration,
                failure_rate=float(rng.uniform(0.02, 0.06)),
                mean_downtime=float(rng.uniform(1.0, 2.0)),
                spare=config.spare,
            )
        )
    if getattr(config, "mode", "sim") == "live" and len(faultable) >= 2:
        # live-only layer: an *asymmetric* link cut (A hears B, B does not
        # hear A) — the non-transitive failure mode the fault-injecting
        # transport exists to exercise.  The link model expresses it on
        # both runtimes (``cut_link(symmetric=False)``); the gate on live
        # mode only keeps the sim generator's RNG stream, and with it
        # every recorded digest, unchanged.
        if rng.random() < 0.6:
            a, b = (
                str(s) for s in rng.choice(faultable, size=2, replace=False)
            )
            cut_at = float(rng.uniform(0.1, 0.6) * config.duration)
            heal_at = min(
                config.duration, cut_at + float(rng.uniform(0.5, 2.0))
            )
            schedule = schedule.merged(
                FaultSchedule()
                .cut_link(cut_at, a, b, symmetric=False)
                .restore_link(heal_at, a, b, symmetric=False)
            )
    return schedule


def _gray_layers(rng: np.random.Generator, config: ChaosConfig) -> FaultSchedule:
    schedule = slowdown_schedule(
        rng,
        config.faultable_servers,
        config.duration,
        rate=float(rng.uniform(0.05, 0.15)),
        mean_slow=float(rng.uniform(1.0, 3.0)),
        spare=config.spare,
    )
    schedule = schedule.merged(
        link_delay_spike_schedule(
            rng,
            config.faultable_servers,
            config.duration,
            spikes=int(rng.integers(1, 4)),
        )
    )
    schedule = schedule.merged(
        message_adversity_schedule(
            rng,
            config.duration,
            duplicate_probability=float(rng.uniform(0.01, 0.08)),
            reorder_probability=float(rng.uniform(0.01, 0.08)),
        )
    )
    return schedule.merged(_hook_layer(rng, config, count=1))


def generate_schedule(
    rng: np.random.Generator, config: ChaosConfig, profile: str
) -> FaultSchedule:
    """One random layered schedule for the given profile (times relative
    to the start of the injection window)."""
    if profile == "crashes":
        return _crash_layers(rng, config)
    if profile == "partitions":
        return _partition_layers(rng, config)
    if profile == "gray":
        return _gray_layers(rng, config)
    raise ValueError(f"unknown profile {profile!r}")


__all__ = ["generate_schedule", "resolve_profile"]
