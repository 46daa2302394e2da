"""``vod_fanout``: the response path, with the total order nearly idle.

The shipped ``VodApplication``; 80 concurrent 24 fps sessions (1920
frames/s) with seeded staggered starts, one ``skip`` update per session per
2 s; UDP loopback, ``default`` profile.  The same codec, transport and
runtime as ``rr_ladder`` used the other way round: server -> client
point-to-point streams plus 0.5 s context propagation.  A batching or
sequencer change must not move it; a response-path, coalescing or
propagation change must.  Starts are staggered because phase-locked sessions
coalesce ~4 frames per datagram and halve the CPU cost, hiding the per-frame
path.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from array import array
from typing import Any

from repro.core.config import AvailabilityPolicy
from repro.core.wire import ResponseMsg
from repro.services.content import build_movie
from repro.services.vod import VodApplication

from bench import stats, verify
from bench.layers import LiveProbe
from bench.context import RunContext
from bench.live import SLICE, CpuSlices, LiveSpec, Seams, repeated_setup
from bench.outcome import Outcome, peak_rss_mb

NAME = "vod_fanout"
SESSIONS = 80
FRAME_RATE = 24.0
PERIOD = 1.0 / FRAME_RATE
SKIP_EVERY = 2.0
#: the j-th skip of a session jumps to frame ``j * REGION``: regions never
#: overlap, so every frame index is received at most once in a correct run
REGION = 10_000
START_STAGGER = 0.25
TRANSPORT = "udp"
PROFILE = "default"
UNIT = "movie"


def spec() -> LiveSpec:
    movie = build_movie(UNIT, duration_seconds=1_000_000.0, frame_rate=FRAME_RATE)
    return LiveSpec(
        transport=TRANSPORT,
        profile=PROFILE,
        unit=UNIT,
        application=VodApplication({UNIT: movie}),
        policy=AvailabilityPolicy(num_backups=1),
    )


class FrameLog:
    """One session's received frames, kept in flat arrays so the log adds
    nothing for the garbage collector to walk during the run."""

    __slots__ = ("when", "index", "based_on", "malformed")

    def __init__(self) -> None:
        self.when = array("d")
        self.index = array("q")
        self.based_on = array("q")
        self.malformed = 0

    def add(self, when: float, message: ResponseMsg) -> None:
        body = message.body
        if len(body) != 3 or body[0] != "frame" or body[2] != message.index:
            self.malformed += 1
        self.when.append(when)
        self.index.append(message.index)
        self.based_on.append(message.based_on_update)

    def __len__(self) -> int:
        return len(self.when)


def frame_faults(log: FrameLog) -> tuple[int, int, int]:
    """``(duplicates, missing, out_of_order)`` in one session's frame log.

    In a fault-free run the indices are consecutive, except that the frame
    that first reflects skip ``j`` starts exactly at ``j * REGION``.
    """
    seen: set[int] = set()
    duplicates = missing = disorder = 0
    previous: int | None = None
    previous_update = 0
    for index, based_on in zip(log.index, log.based_on):
        if index in seen:
            duplicates += 1
            continue
        seen.add(index)
        if previous is not None:
            if based_on > previous_update and index == based_on * REGION:
                pass  # first frame of a new region
            elif index > previous + 1 and index // REGION == previous // REGION:
                missing += index - previous - 1
            elif index != previous + 1:
                disorder += 1
        previous = index
        previous_update = max(previous_update, based_on)
    return duplicates, missing, disorder


def lateness(log: FrameLog) -> list[float]:
    """Arrival minus the session's ideal ``k / 24`` s schedule, in seconds.

    The schedule is anchored on the session's best frame, so lateness is
    what a player with zero buffer beyond that frame would see."""
    offsets = [when - k * PERIOD for k, when in enumerate(log.when)]
    anchor = min(offsets)
    return [offset - anchor for offset in offsets]


def judge_frames(out: Outcome, frames: dict[str, FrameLog]) -> list[float]:
    """Check every session's frame log, set the run's attempted/failed
    counts (a frame never delivered is a failed operation) and return the
    sorted lateness of every frame received, in seconds."""
    late: list[float] = []
    duplicates = missing = disorder = malformed = 0
    for log in frames.values():
        if not len(log):
            continue
        late.extend(lateness(log))
        d, m, o = frame_faults(log)
        duplicates, missing, disorder = duplicates + d, missing + m, disorder + o
        malformed += log.malformed
    late.sort()
    silent = sum(1 for log in frames.values() if not len(log))
    out.attempted = len(late) - duplicates + missing + silent
    out.failed = missing + silent
    out.check("no_duplicate_frame", duplicates == 0, str(duplicates))
    out.check("no_missing_frame", missing == 0 and silent == 0,
              f"{missing} missing, {silent} silent sessions")
    out.check("frame_bodies_match_index", malformed == 0, str(malformed))
    out.check("frames_in_order", disorder == 0, str(disorder))
    return late


async def _run(ctx: RunContext) -> Outcome:
    out = Outcome(NAME)
    seed, seconds, quick, tracer, import_s = (
        ctx.seed, ctx.seconds, ctx.quick, ctx.tracer, ctx.import_s
    )
    seams = tracer.seams() if tracer is not None else Seams()
    rng = random.Random(seed)
    offsets = sorted(rng.uniform(0.0, START_STAGGER) for _ in range(SESSIONS))
    harness, setups = await repeated_setup(spec(), seams, offsets, quick)
    try:
        sim = harness.sim
        client = harness.client
        frames = {h.session_id: FrameLog() for h in harness.handles}

        def on_frame(_sender: Any, message: ResponseMsg) -> None:
            frames[message.session_id].add(time.monotonic(), message)

        t0 = sim.now + 0.05
        ctx.progress.watch(lambda: (
            int(max(sim.now - t0, 0.0) * SESSIONS * FRAME_RATE),
            sum(len(log) for log in frames.values()),
        ))
        skips = 0
        for handle in harness.handles:
            first = t0 + rng.uniform(0.0, SKIP_EVERY)
            j = 0
            while first + j * SKIP_EVERY < t0 + seconds:
                sim.schedule_at(
                    first + j * SKIP_EVERY,
                    lambda h=handle, n=j + 1: client.send_update(
                        h, {"op": "skip", "to": n * REGION}
                    ),
                    label="bench:skip",
                )
                j += 1
            skips += j
        def observe(on: bool) -> None:
            client.observer = on_frame if on else None

        sim.schedule_at(t0, lambda: observe(True), label="bench:mark")
        sim.schedule_at(t0 + seconds, lambda: observe(False), label="bench:mark")
        cpu_slices = CpuSlices(
            harness, t0, t0 + seconds, SLICE,
            lambda: sum(len(log) for log in frames.values()), tracer,
        )
        views0 = verify.config_view_counts(harness)
        probe = LiveProbe(harness, tracer) if tracer is not None else None
        if probe is not None:
            probe.arm(t0, t0 + seconds)
        await harness.run_for(seconds + 0.1)
        await harness.run_until(lambda: client.gcs.unacked_count == 0, 2.0)

        # ---------------- metrics ----------------
        late = judge_frames(out, frames)
        received = len(late)
        out.put("setup_s", import_s + stats.calm_level(setups), "s", n=len(setups))
        # the median lateness, in the calm quarter of the run's slices
        p50_slices = stats.slice_medians(
            (pair for log in frames.values() if len(log)
             for pair in zip(log.when, lateness(log))),
            harness.wall_of(t0), harness.wall_of(t0 + seconds), SLICE,
        )
        out.put("frame_late_p50_ms", stats.calm_level(p50_slices) * 1e3, "ms", n=received,
                slices=len(p50_slices), whole_window=stats.percentile(late, 0.50) * 1e3)
        out.put(
            "frame_late_p90_ms", stats.percentile(late, 0.90) * 1e3, "ms",
            n=received, beyond=stats.beyond(received, 0.90),
        )
        out.put(
            "frame_late_p99_ms", stats.percentile(late, 0.99) * 1e3, "ms",
            n=received, beyond=stats.beyond(received, 0.99),
        )
        on_time = sum(1 for v in late if v <= PERIOD / 2)
        out.put("frames_on_time_share", on_time / max(out.attempted, 1), "share", n=out.attempted)
        cpu = statistics.median(cpu_slices.normalised() or [0.0])
        out.put("cpu_us_per_frame", cpu * 1e6, "us", n=received,
                slices=len(cpu_slices.normalised()),
                whole_window=cpu_slices.seconds() * 1e6 / max(received, 1))
        out.put("peak_rss_mb", peak_rss_mb(), "MB")
        out.put("failed_share", out.failed / max(out.attempted, 1), "share", n=out.attempted)
        harness.put_gc_burden(out)
        out.info["cpu_seconds_per_op"] = cpu
        if probe is not None:
            probe.report(out, ops=received)
        out.info.update(
            transport=TRANSPORT, profile=PROFILE, sessions=SESSIONS,
            frames_per_second=received / seconds, measured_seconds=seconds,
            skips_sent=skips, cpu_share_of_one_core=cpu_slices.seconds() / seconds,
            setup_samples=setups, import_seconds=import_s,
            cpu_seconds_per_op_slices=cpu_slices.per_operation(),
            cpu_seconds_per_op_normalised=cpu_slices.normalised(),
            frame_late_p50_seconds_slices=p50_slices,
            view_changes=verify.view_changes_since(harness, views0),
        )

        out.check("no_view_change", out.info["view_changes"] == 0, str(out.info["view_changes"]))
        verify.update_checks(out, harness)
        verify.cluster_checks(out, harness, kill_windows=[])
        return out
    finally:
        await harness.close()


def run(ctx: RunContext) -> Outcome:
    return asyncio.run(_run(ctx))
