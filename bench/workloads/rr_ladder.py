"""``rr_ladder``: the full ordered-write path under open-loop load.

Request/response application, 8 sessions, TCP mesh, ``default`` profile.  A
reference phase at 500 req/s, then rungs at 1000..3000 req/s, stopping at
the first rung that misses the SLO (p99 <= 25 ms, >= 99.9 % answered,
unanswered backlog not growing).  ``GcsClient.mcast`` -> contact daemon ->
sequencer batch -> ``SequencedBatch`` fan-out -> delivery ->
``FrameworkServer`` apply -> point-to-point response: ``gcs.ordering``,
``net.codec`` and ``net.runtime`` do most of the work, ``services`` and the
failure detector almost none.
"""

from __future__ import annotations

import asyncio
import random
import statistics
from typing import Any

from repro.core.config import AvailabilityPolicy

from bench import stats
from bench.layers import LiveProbe, nonet_cpu_us_per_request
from bench.context import RunContext
from bench.live import SLICE, CpuSlices, LiveSpec, Seams, repeated_setup
from bench.loadgen import poisson_arrivals
from bench.outcome import Outcome, peak_rss_mb
from bench.requests import SLO_MS, RequestDriver, judge_lateness
from bench.rrapp import RrApplication
from bench.trace import Tracer
from bench import verify

NAME = "rr_ladder"
SESSIONS = 8
REFERENCE_RPS = 500
RUNG_RPS = (1000, 1500, 2000, 2500, 3000)
#: nominal lengths (seconds): reference phase, each rung; scaled to --seconds
NOMINAL_REFERENCE = 15.0
NOMINAL_RUNG = 4.0
RUNG_GAP = 0.15
TRANSPORT = "tcp"
PROFILE = "default"


def spec() -> LiveSpec:
    return LiveSpec(
        transport=TRANSPORT,
        profile=PROFILE,
        unit="rr",
        application=RrApplication(),
        policy=AvailabilityPolicy(num_backups=1),
    )


def plan(seconds: float) -> tuple[float, float]:
    """Split ``seconds`` into (reference length, rung length) in the nominal
    15 : 4 proportion, the inter-rung gaps included."""
    usable = seconds - RUNG_GAP * len(RUNG_RPS)
    share = usable / (NOMINAL_REFERENCE + NOMINAL_RUNG * len(RUNG_RPS))
    return NOMINAL_REFERENCE * share, NOMINAL_RUNG * share


def schedule_phase(
    driver: RequestDriver, rng: random.Random, rate: float, start: float,
    length: float, tag: int,
) -> None:
    """Schedule one phase of Poisson arrivals, spread over the sessions."""
    for due in poisson_arrivals(rng, rate, start, length):
        driver.schedule(due, rng.randrange(SESSIONS), rng.randrange(1 << 16), tag)


def rung_verdict(
    latencies: list[float], sent: int, unanswered: int, backlog_mid: int,
    backlog_end: int, rate: float,
) -> dict[str, Any]:
    """Judge one phase against the SLO; unanswered requests count as
    missing every latency limit."""
    ordered = sorted(latencies) + [float("inf")] * unanswered
    p99 = stats.percentile(ordered, 0.99) * 1000.0 if ordered else float("inf")
    answered_share = (len(latencies) / sent) if sent else 0.0
    growing = backlog_end > backlog_mid + 0.01 * rate
    return {
        "rate_rps": rate,
        "sent": sent,
        "p50_ms": stats.percentile(ordered, 0.50) * 1000.0 if ordered else float("inf"),
        "p99_ms": p99,
        "answered_share": answered_share,
        "backlog_mid": backlog_mid,
        "backlog_end": backlog_end,
        "in_slo": bool(sent and p99 <= SLO_MS and answered_share >= 0.999 and not growing),
    }


def budgets(
    out: Outcome, tracer: Tracer, counters: dict[str, float], requests: int, seed: int,
    reference_len: float,
) -> None:
    """The two closed budgets of the traced reference phase.

    CPU: ``cpu_ms_per_request`` = codec encode + codec decode + transport
    send + application + protocol-and-simulator (the no-network baseline
    minus the application) + what runs outside ``Simulator.run_until``
    (asyncio, socket reads and writes, the pacer) + the harness's own
    yardstick chunks (``bench.refload``) + an explicit ``unattributed``
    remainder inside it (``LiveNetwork`` glue, per-node
    accounting, the spans themselves).  Latency: ``request_p50_ms`` ~
    ``gcs.order_ms_p50`` + ``core.respond_ms_p50``, residual printed."""
    layer = out.layers
    ops = max(requests, 1)
    sent = counters["sent"]
    encode_detail = layer.get("codec.encode_us_per_frame", {})
    encode = (
        encode_detail.get("payload_us", 0.0) * (sent - counters["cache_hits"])
        + encode_detail.get("envelope_us", 0.0) * sent
    ) / ops
    decode = layer["codec.decode_us_per_frame"]["value"] * counters["tx:frames_sent"] / ops
    transport = tracer.total("transport.send") * 1e6 / ops
    application = sum(
        tracer.total(name) for name in tracer.spans if name.startswith("app.")
    ) * 1e6 / ops
    nonet = nonet_cpu_us_per_request(seed, REFERENCE_RPS, reference_len, SESSIONS)
    out.layer("sim.cpu_us_per_request_nonet", nonet, "us/req")
    total = counters["cpu"] * 1e6 / ops
    protocol = max(nonet - application, 0.0)
    # nothing blocks inside run_until, so its wall time is CPU time
    outside = max(total - tracer.total("sim.run_until") * 1e6 / ops, 0.0)
    ingress = min(tracer.total("transport.on_frame") * 1e6 / ops, outside)
    yardstick = tracer.total("harness.yardstick") * 1e6 / ops
    unattributed = total - (
        encode + decode + transport + application + protocol + outside + yardstick
    )
    out.layer("budget.cpu_outside_event_loop_share", outside / total if total else 0.0, "share")
    out.layer("budget.cpu_unattributed_share", unattributed / total if total else 0.0, "share")
    out.info["cpu_budget_us_per_request"] = {
        "total (traced cpu_ms_per_request x 1000)": total,
        "codec encode": encode,
        "codec decode": decode,
        "transport send": transport,
        "application": application,
        "protocol + simulator (no-network baseline - application)": protocol,
        "outside run_until: frame ingress (on_frame -> schedule + wake)": ingress,
        "outside run_until: asyncio, socket reads/writes, pacer": outside - ingress,
        "harness: yardstick chunks at the slice boundaries": yardstick,
        "unattributed (inside run_until)": unattributed,
    }
    p50 = out.metrics["request_p50_ms"]["value"]
    order = layer["gcs.order_ms_p50"]["value"]
    respond = layer["core.respond_ms_p50"]["value"]
    out.layer("budget.latency_residual_ms", p50 - order - respond, "ms")
    out.info["latency_budget_ms"] = {
        "request_p50_ms (traced)": p50,
        "gcs.order_ms_p50": order,
        "core.respond_ms_p50": respond,
        "residual": p50 - order - respond,
    }


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
        reference_len, rung_len = plan(seconds)
        t0 = sim.now + 0.05
        backlog: dict[tuple[int, str], int] = {}
        rungs: list[dict[str, Any]] = []
        stopped = False
        reference_rss: list[float] = []

        schedule_phase(driver, rng, REFERENCE_RPS, t0, reference_len, 0)
        cpu_slices = CpuSlices(
            harness, t0, t0 + reference_len, SLICE, lambda: driver.sent_by_tag.get(0, 0),
            tracer,
        )
        sim.schedule_at(
            t0 + reference_len, lambda: reference_rss.append(peak_rss_mb()), label="bench:mark"
        )

        def note_backlog(tag: int, where: str) -> None:
            backlog[(tag, where)] = driver.outstanding

        def judge(tag: int, rate: float) -> None:
            nonlocal stopped
            verdict = rung_verdict(
                driver.latencies.get(tag, []), driver.sent_by_tag.get(tag, 0),
                driver.outstanding_of(tag), backlog.get((tag, "mid"), 0),
                backlog.get((tag, "end"), 0), rate,
            )
            rungs.append(verdict)
            if not verdict["in_slo"] and not stopped:
                stopped = True
                for later in range(tag + 1, len(RUNG_RPS) + 1):
                    driver.cancel(later)
                harness.end_window()

        cursor = t0 + reference_len + RUNG_GAP
        for index, rate in enumerate(RUNG_RPS, start=1):
            schedule_phase(driver, rng, rate, cursor, rung_len, index)
            sim.schedule_at(
                cursor + rung_len / 2, lambda i=index: note_backlog(i, "mid"),
                label="bench:mark",
            )
            sim.schedule_at(
                cursor + rung_len, lambda i=index: note_backlog(i, "end"),
                label="bench:mark",
            )
            sim.schedule_at(
                cursor + rung_len + RUNG_GAP * 0.9,
                lambda i=index, r=rate: None if stopped else judge(i, r),
                label="bench:judge",
            )
            cursor += rung_len + RUNG_GAP
        total = cursor - sim.now

        probe = LiveProbe(harness, tracer) if tracer is not None else None
        if probe is not None:
            probe.arm(t0, t0 + reference_len)
        views0 = verify.config_view_counts(harness)
        await harness.run_for(total)
        await driver.drain(3.0)
        await harness.run_until(lambda: harness.client.gcs.unacked_count == 0, 1.0)

        # ---------------- metrics (reference phase) ----------------
        reference = sorted(driver.latencies.get(0, []))
        sent_ref = driver.sent_by_tag.get(0, 0)
        n = len(reference)
        out.put("setup_s", import_s + stats.calm_level(setups), "s", n=len(setups))
        # the median wait, in the calm quarter of the phase's slices
        p50_slices = stats.slice_medians(
            zip(driver.due_walls.get(0, []), driver.latencies.get(0, [])),
            harness.wall_of(t0), harness.wall_of(t0 + reference_len), SLICE,
        )
        out.put("request_p50_ms", stats.calm_level(p50_slices) * 1e3, "ms", n=n,
                slices=len(p50_slices), whole_window=stats.percentile(reference, 0.50) * 1e3)
        out.put(
            "request_p90_ms", stats.percentile(reference, 0.90) * 1e3, "ms",
            n=n, beyond=stats.beyond(n, 0.90),
        )
        out.put(
            "request_p99_ms", stats.percentile(reference, 0.99) * 1e3, "ms",
            n=n, beyond=stats.beyond(n, 0.99),
        )
        cpu = statistics.median(cpu_slices.normalised() or [0.0])
        out.put("cpu_ms_per_request", cpu * 1e3, "ms", n=sent_ref,
                slices=len(cpu_slices.normalised()),
                whole_window=cpu_slices.seconds() * 1e3 / max(sent_ref, 1))
        in_slo = sum(1 for v in reference if v * 1e3 <= SLO_MS)
        out.put("answered_in_slo_share", in_slo / max(sent_ref, 1), "share", n=sent_ref)
        ref_verdict = rung_verdict(
            driver.latencies.get(0, []), sent_ref, driver.outstanding_of(0), 0, 0,
            REFERENCE_RPS,
        )
        best = REFERENCE_RPS if ref_verdict["in_slo"] else 0
        for verdict in rungs:
            if not verdict["in_slo"]:
                break
            best = verdict["rate_rps"]
        out.put("max_rate_in_slo_rps", float(best), "1/s", rungs=len(rungs))
        out.put("peak_rss_mb", reference_rss[0] if reference_rss else peak_rss_mb(), "MB",
                whole_run=peak_rss_mb())
        verify.request_checks(out, harness, driver, kill_windows=[])
        changes = verify.view_changes_since(harness, views0)
        out.check("no_view_change", changes == 0, str(changes))
        out.put("failed_share", out.failed / max(out.attempted, 1), "share", n=out.attempted)
        harness.put_gc_burden(out)
        judge_lateness(out, driver.generator_late.get(0, []))

        out.info["cpu_seconds_per_op"] = cpu
        if probe is not None:
            counters = probe.report(
                out, ops=sent_ref, late_p99_ms=out.metrics["loadgen_late_p99_ms"]["value"]
            )
            budgets(out, tracer, counters, sent_ref, seed, reference_len)
        out.info.update(
            transport=TRANSPORT, profile=PROFILE, sessions=SESSIONS,
            reference_rps=REFERENCE_RPS, reference_seconds=reference_len,
            rung_seconds=rung_len, rungs=[ref_verdict, *rungs],
            ladder_stopped_early=stopped, responses=driver.responses,
            setup_samples=setups, import_seconds=import_s,
            cpu_seconds_per_op_slices=cpu_slices.per_operation(),
            cpu_seconds_per_op_normalised=cpu_slices.normalised(),
            request_p50_seconds_slices=p50_slices,
        )
        return out
    finally:
        await harness.close()


def run(ctx: RunContext) -> Outcome:
    return asyncio.run(_run(ctx))
