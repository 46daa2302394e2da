"""``failover_cycle``: time without service, and what it costs.

The ``rr_ladder`` application at a fixed 200 req/s over 8 sessions; TCP,
``live_lan`` profile, ``num_backups=1``.  Ten times over the run the server
that is primary for the most sessions is crashed and ``recover()``-ed half a
kill period later, while requests keep arriving on schedule — so requests
due while no primary exists are counted, not skipped.  The failure detector,
membership and ``core.server`` reallocation/handoff do the work here; the
codec does little.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from typing import Any

from repro.chaos.config import ChaosConfig
from repro.core.config import AvailabilityPolicy
from repro.core.responses import SelectiveResend

from bench import stats, verify
from bench.layers import LiveProbe
from bench.context import RunContext
from bench.live import CpuSlices, LiveHarness, LiveSpec, Seams, repeated_setup
from bench.outcome import Outcome, peak_rss_mb
from bench.requests import SLO_MS, RequestDriver, judge_lateness
from bench.rrapp import RrApplication
from bench.workloads.rr_ladder import SESSIONS, schedule_phase

NAME = "failover_cycle"
RATE_RPS = 200
KILLS = 10
#: a kill window (excluded from the single-primary check) lasts from the
#: crash until this long after the recovery, when the rejoin has settled
REJOIN_GRACE = 0.5
TRANSPORT = "tcp"
PROFILE = "live_lan"
#: every ``live_lan`` timeout doubled, as ``repro chaos --live`` does for its
#: in-process clusters ("so event-loop stalls can't manufacture suspicions").
#: This host pauses the machine for 20-45 ms about once a minute; at 1x (30 ms
#: suspicion) 31 of 32 runs were clean and one fell into view churn with
#: seconds of dual primaries (README, finding 6)
TIMING_FACTOR = 2.0
#: role overlap tolerated per session outside the kill windows: the chaos
#: oracles' own ``ChaosConfig.overlap_tolerance`` ("absorbs benign handover
#: edges"); the fault-free workloads require exactly zero
OVERLAP_TOLERANCE = ChaosConfig().overlap_tolerance


def _keep_all(_response: Any) -> bool:
    return True


def spec() -> LiveSpec:
    return LiveSpec(
        transport=TRANSPORT,
        profile=PROFILE,
        unit="rr",
        timing_factor=TIMING_FACTOR,
        application=RrApplication(),
        # on takeover the successor re-answers the latest request at once
        # (see RrApplication): the takeover sample then ends at the
        # promotion, not at the session's next arrival
        policy=AvailabilityPolicy(
            num_backups=1, uncertainty_policy=SelectiveResend(keep=_keep_all)
        ),
    )


def busiest_primary(harness: LiveHarness) -> tuple[str | None, list[str]]:
    """The live server that is primary for the most sessions (lowest id on
    ties) and the sessions it serves."""
    best: tuple[str | None, list[str]] = (None, [])
    for server_id in sorted(harness.servers):
        server = harness.servers[server_id]
        if not server.is_up():
            continue
        mine = sorted(server.primary_sessions())
        if len(mine) > len(best[1]):
            best = (server_id, mine)
    return best


def takeover_samples(
    kills: list[dict[str, Any]], senders: dict[str, list[tuple[float, Any, int]]]
) -> tuple[list[float], int]:
    """Kill -> first response from another server, per (kill, affected
    session), in seconds; plus how many pairs never saw one."""
    samples: list[float] = []
    unserved = 0
    for kill in kills:
        for session_id in kill["sessions"]:
            for when, sender, _based_on in senders.get(session_id, ()):
                if when > kill["wall"] and sender != kill["victim"]:
                    samples.append(when - kill["wall"])
                    break
            else:
                unserved += 1
    return samples, unserved


async def _run(ctx: RunContext) -> Outcome:
    out = Outcome(NAME)
    seed, seconds, quick, tracer, import_s = (
        ctx.seed, ctx.seconds, ctx.quick, ctx.tracer, ctx.import_s
    )
    seams = tracer.seams() if tracer is not None else Seams()
    harness, setups = await repeated_setup(spec(), seams, [0.0] * SESSIONS, quick)
    try:
        driver = RequestDriver(harness)
        ctx.progress.watch(lambda: (driver.attempted, driver.attempted - driver.outstanding))
        rng = random.Random(seed)
        sim = harness.sim
        t0 = sim.now + 0.05
        schedule_phase(driver, rng, RATE_RPS, t0, seconds, 0)
        period = seconds / (KILLS + 1)
        # one slice per kill period: every slice holds one kill and one
        # recovery, so the median slice is a whole cycle, failover included
        cpu_slices = CpuSlices(
            harness, t0, t0 + seconds, period, lambda: driver.attempted, tracer
        )
        kills: list[dict[str, Any]] = []

        def kill() -> None:
            victim, sessions = busiest_primary(harness)
            if victim is None:
                return
            record = {"victim": victim, "sessions": sessions, "sim": sim.now,
                      "wall": time.monotonic(), "recovered_sim": None}
            kills.append(record)
            harness.servers[victim].crash()

        def recover() -> None:
            if kills and kills[-1]["recovered_sim"] is None:
                kills[-1]["recovered_sim"] = sim.now
                harness.servers[kills[-1]["victim"]].recover()

        for k in range(1, KILLS + 1):
            sim.schedule_at(t0 + k * period, kill, label="bench:kill")
            sim.schedule_at(t0 + (k + 0.5) * period, recover, label="bench:recover")
        probe = LiveProbe(harness, tracer) if tracer is not None else None
        if probe is not None:
            probe.arm(t0, t0 + seconds)
        await harness.run_for(seconds + 0.1)
        await driver.drain(5.0)
        await harness.run_until(
            lambda: harness.agreed_view() and harness.one_primary_each(), 3.0
        )
        await harness.run_until(lambda: harness.client.gcs.unacked_count == 0, 1.0)

        # ---------------- metrics ----------------
        latencies = sorted(driver.latencies.get(0, []))
        sent = driver.attempted
        samples, unserved = takeover_samples(kills, driver.senders)
        samples.sort()
        out.put("setup_s", import_s + stats.calm_level(setups), "s", n=len(setups))
        out.put("request_p50_ms", stats.percentile(latencies, 0.50) * 1e3, "ms",
                n=len(latencies))
        out.put("takeover_p50_ms", stats.percentile(samples, 0.50) * 1e3, "ms",
                n=len(samples))
        out.put("takeover_p90_ms", stats.percentile(samples, 0.90) * 1e3, "ms",
                n=len(samples), beyond=stats.beyond(len(samples), 0.90))
        in_slo = sum(1 for v in latencies if v * 1e3 <= SLO_MS)
        out.put("answered_in_slo_share", in_slo / max(sent, 1), "share", n=sent)
        cpu = statistics.median(cpu_slices.normalised() or [0.0])
        out.put("cpu_ms_per_request", cpu * 1e3, "ms", n=sent,
                slices=len(cpu_slices.normalised()),
                whole_window=cpu_slices.seconds() * 1e3 / max(sent, 1))
        out.put("peak_rss_mb", peak_rss_mb(), "MB")
        windows = [
            (k["sim"], (k["recovered_sim"] or harness.sim.now) + REJOIN_GRACE) for k in kills
        ]
        verify.request_checks(
            out, harness, driver, kill_windows=windows,
            overlap_tolerance=OVERLAP_TOLERANCE, exact_answers=False,
        )
        out.put("failed_share", out.failed / max(sent, 1), "share", n=sent)
        out.put("updates_unapplied_share",
                out.info["updates_never_applied"] / max(sent, 1), "share", n=sent)
        harness.put_gc_burden(out)
        judge_lateness(out, driver.generator_late.get(0, []))
        out.info["cpu_seconds_per_op"] = cpu
        if probe is not None:
            probe.report(out, ops=sent, late_p99_ms=out.metrics["loadgen_late_p99_ms"]["value"],
                         kills=kills, senders=driver.senders)
        out.info.update(
            transport=TRANSPORT, profile=PROFILE, sessions=SESSIONS, rate_rps=RATE_RPS,
            measured_seconds=seconds, kill_period_seconds=period, kills=len(kills),
            takeover_samples=len(samples), takeovers_unserved=unserved,
            victims=[k["victim"] for k in kills],
            request_p90_ms=stats.percentile(latencies, 0.90) * 1e3,
            setup_samples=setups, import_seconds=import_s,
            cpu_seconds_per_op_slices=cpu_slices.per_operation(),
            cpu_seconds_per_op_normalised=cpu_slices.normalised(),
        )

        out.check("every_kill_happened", len(kills) == KILLS, f"{len(kills)} of {KILLS}")
        out.check("takeover_samples_enough", len(samples) >= 2 * KILLS and unserved == 0,
                  f"{len(samples)} samples, {unserved} never served")
        return out
    finally:
        await harness.close()


def run(ctx: RunContext) -> Outcome:
    return asyncio.run(_run(ctx))
