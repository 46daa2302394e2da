"""Per-layer metrics of a traced run, and the two closed budgets.

Every number here comes from the spans and counters in :mod:`bench.trace`
plus counters the stack already keeps (``TransportStats``,
``Network.sent_kind_stats``, ``server.counters``).  Before measuring, the
README's layer -> end-to-end map says which end-to-end metric each of these
should move, on which workload, and which cells must stay flat.
"""

from __future__ import annotations

import json
import random
import time
from typing import Any

from repro.chaos.oracles import run_oracles
from repro.chaos.runner import trace_digest
from repro.core.config import AvailabilityPolicy
from repro.core.service import ServiceCluster
from repro.gcs.messages import ClientAck, PtpData, SequencedBatch
from repro.gcs.settings import GcsSettings
from repro.metrics.collectors import split_liveness
from repro.net.codec import (
    CodecError,
    WireEnvelope,
    decode_frame,
    encode_envelope_frame,
    encode_payload,
    fast_path_types,
)

from bench import OUT_DIR, stats
from bench.live import LiveHarness
from bench.loadgen import poisson_arrivals
from bench.outcome import Outcome
from bench.rrapp import RrApplication
from bench.spec import per_layer
from bench.trace import Tracer

def fill_missing(out: Outcome) -> None:
    """Report 0 for every per-layer metric of BENCHMARK.json this workload
    does not exercise (those are the predicted no-change cells)."""
    for name, unit in per_layer().items():
        if name not in out.layers:
            out.layer(name, 0.0, unit, applies=False)


def _ms(values: list[float], q: float) -> float:
    return stats.percentile(sorted(values), q) * 1e3 if values else 0.0


# ----------------------------------------------------------------------
# counters the stack keeps, as one flat snapshot
# ----------------------------------------------------------------------
def snapshot(harness: LiveHarness) -> dict[str, float]:
    snap: dict[str, float] = {
        "cpu": time.process_time(),
        "wall": time.monotonic(),
        "sim": harness.sim.now,
        "events": harness.sim.executed_events,
    }
    for node, network in harness.networks.items():
        snap["sent"] = snap.get("sent", 0) + network.total_sent
        snap["cache_hits"] = snap.get("cache_hits", 0) + network.encode_cache_hits
        for kind, (frames, _abstract) in network.sent_kind_stats(node).items():
            snap["kind:" + kind] = snap.get("kind:" + kind, 0) + frames
        for kind, size in network.actual_bytes_sent.items():
            snap["bytes:" + kind] = snap.get("bytes:" + kind, 0) + size
    for transport in harness.transports.values():
        for field in ("frames_sent", "bytes_sent", "writes", "dropped_oldest",
                      "dropped_oversize", "reconnects"):
            snap["tx:" + field] = snap.get("tx:" + field, 0) + getattr(transport.stats, field)
    for server in harness.servers.values():
        for name, value in server.counters.items():
            snap["srv:" + name] = snap.get("srv:" + name, 0) + value
    snap["sends_failed"] = harness.client.gcs.sends_failed
    return snap


def delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


# ----------------------------------------------------------------------
# codec replay
# ----------------------------------------------------------------------
def codec_replay(corpus: list[bytes]) -> dict[str, float]:
    """Replay the captured frame corpus through the public codec calls the
    live network makes: ``decode_frame`` on the way in, ``encode_payload`` +
    ``encode_envelope_frame`` on the way out."""
    if not corpus:
        return {}
    envelopes = []
    started = time.perf_counter()
    for frame in corpus:
        try:
            envelopes.append(decode_frame(frame))
        except CodecError:
            envelopes.append(None)
    decode = time.perf_counter() - started
    envelopes = [e for e in envelopes if isinstance(e, WireEnvelope)]
    started = time.perf_counter()
    payloads = [encode_payload(e.payload) for e in envelopes]
    payload_s = time.perf_counter() - started
    started = time.perf_counter()
    for envelope, raw in zip(envelopes, payloads):
        encode_envelope_frame(envelope.sender, envelope.receiver, envelope.kind,
                              envelope.size, raw)
    shell_s = time.perf_counter() - started
    fast = set(fast_path_types())
    inner = [e.payload.payload if isinstance(e.payload, PtpData) else e.payload
             for e in envelopes]
    batches = [len(p.messages) for p in inner if isinstance(p, SequencedBatch)]
    n = max(len(envelopes), 1)
    return {
        "frames": len(corpus),
        "decode_us": decode * 1e6 / len(corpus),
        "payload_us": payload_s * 1e6 / n,
        "shell_us": shell_s * 1e6 / n,
        "bytes": sum(len(f) for f in corpus) / len(corpus),
        "fast_share": sum(1 for e in envelopes if type(e.payload) in fast) / n,
        "batch_mean": (sum(batches) / len(batches)) if batches else 0.0,
    }


def client_ack_ms(tracer: Tracer) -> list[float]:
    """``mcast`` -> end-to-end ``ClientAck``, from the raw frames the
    client's transport wrapper saw (decoded after the run, so the traced run
    pays nothing for it)."""
    waits: list[float] = []
    for arrived, frame in tracer.client_inbound:
        try:
            envelope = decode_frame(frame)
        except CodecError:
            continue
        payload = getattr(envelope, "payload", None)
        if isinstance(payload, ClientAck):
            sent = tracer.mcast_at.get(payload.request_id)
            if sent is not None:
                waits.append(arrived - sent)
    return waits


# ----------------------------------------------------------------------
# the no-network baseline
# ----------------------------------------------------------------------
def nonet_cpu_us_per_request(seed: int, rate: float, length: float, sessions: int) -> float:
    """CPU per request of the same reference schedule on a simulated
    cluster with zero latency: the protocol stack and the simulator kernel
    with no codec, no sockets and no pacer.  ``cpu_ms_per_request`` minus
    this is what ``net.*`` costs."""
    cluster = ServiceCluster.build(
        n_servers=3, units={"rr": RrApplication()}, replication=3,
        policy=AvailabilityPolicy(num_backups=1), settings=GcsSettings(),
        seed=seed, latency="zero", trace=False,
    )
    cluster.settle()
    client = cluster.add_client("c0")
    handles = [client.start_session("rr") for _ in range(sessions)]
    cluster.run(1.0)
    rng = random.Random(seed)
    t0 = cluster.sim.now + 0.05
    arrivals = poisson_arrivals(rng, rate, t0, length)
    for due in arrivals:
        handle = handles[rng.randrange(sessions)]
        value = rng.randrange(1 << 16)
        cluster.sim.schedule_at(
            due, lambda h=handle, v=value: client.send_update(h, {"op": "put", "v": v})
        )
    started = time.process_time()
    cluster.run(length + 0.3)
    cpu = time.process_time() - started
    answered = sum(len(h.received) for h in handles)
    if answered < len(arrivals):
        raise RuntimeError("no-network baseline lost responses")
    return cpu * 1e6 / max(len(arrivals), 1)


# ----------------------------------------------------------------------
# a traced live window
# ----------------------------------------------------------------------
class LiveProbe:
    """Brackets the measured window of a traced live run and turns what the
    tracer and the stack's counters saw into per-layer metrics."""

    def __init__(self, harness: LiveHarness, tracer: Tracer) -> None:
        self.harness = harness
        self.tracer = tracer
        self.before: dict[str, float] = {}
        self.after: dict[str, float] = {}

    def arm(self, start: float, end: float) -> None:
        sim = self.harness.sim

        def begin() -> None:
            self.tracer.reset()
            self.before = snapshot(self.harness)

        def finish() -> None:
            self.after = snapshot(self.harness)
            self.tracer.enabled = False

        sim.schedule_at(start, begin, label="bench:trace-begin")
        sim.schedule_at(end, finish, label="bench:trace-end")
        self.tracer.arm_pacer_probe(self.harness, end)

    # ------------------------------------------------------------------
    def report(
        self, out: Outcome, ops: int, late_p99_ms: float = 0.0,
        kills: list[dict[str, Any]] | None = None,
        senders: dict[str, list[tuple[float, Any, int]]] | None = None,
    ) -> dict[str, float]:
        """Fill ``out.layers``; returns the window's counter deltas."""
        tracer = self.tracer
        d = delta(self.after, self.before)
        ops = max(ops, 1)
        wall = max(d["wall"], 1e-9)
        frames = max(d["tx:frames_sent"], 1)

        codec = codec_replay(tracer.corpus)
        if codec:
            out.layer("codec.encode_us_per_frame", codec["payload_us"] + codec["shell_us"],
                      "us/frame", n=codec["frames"], payload_us=codec["payload_us"],
                      envelope_us=codec["shell_us"])
            out.layer("codec.decode_us_per_frame", codec["decode_us"], "us/frame",
                      n=codec["frames"])
            out.layer("codec.bytes_per_frame", codec["bytes"], "B/frame", n=codec["frames"])
            out.layer("codec.fast_path_share", codec["fast_share"], "share")
            out.layer("gcs.batch_size_mean", codec["batch_mean"], "count")
        out.layer("codec.encode_cache_hit_share", d["cache_hits"] / max(d["sent"], 1), "share",
                  n=int(d["sent"]))

        sends = max(tracer.count("transport.send"), 1)
        out.layer("transport.send_us_per_frame",
                  tracer.total("transport.send") * 1e6 / sends, "us/frame", n=sends)
        out.layer("transport.wire_ms_p50", _ms(list(tracer.wire), 0.50), "ms",
                  n=len(tracer.wire), p99_ms=_ms(list(tracer.wire), 0.99))
        out.layer("transport.frames_per_write", frames / max(d["tx:writes"], 1), "count")
        out.layer("transport.frames_per_op", frames / ops, "count")
        out.layer("transport.bytes_per_op", d["tx:bytes_sent"] / ops, "B")
        out.layer("transport.dropped_oldest", d["tx:dropped_oldest"], "count")
        out.layer("transport.dropped_oversize", d["tx:dropped_oversize"], "count")
        out.layer("transport.reconnects", d["tx:reconnects"], "count")

        lag = list(tracer.pacer_lag)
        out.layer("runtime.pacer_lag_p50_ms", _ms(lag, 0.50), "ms", n=len(lag))
        out.layer("runtime.pacer_lag_p99_ms", _ms(lag, 0.99), "ms", n=len(lag))
        out.layer("runtime.busy_share", tracer.total("sim.run_until") / wall, "share")
        out.layer("runtime.wakeups_per_op", tracer.count("sim.run_until") / ops, "count")
        burden = self.harness.gc_burden
        out.layer("runtime.gc_full_pass_ms", burden["gc_full_pass_ms"], "ms")
        out.layer("runtime.gc_tracked_objects", burden["gc_tracked_objects"], "count")
        out.layer("runtime.gc_unreachable_objects", burden["gc_unreachable_objects"], "count")

        order = [
            when - tracer.sent[key]
            for key, (when, _server) in tracer.delivered.items() if key in tracer.sent
        ]
        respond = [
            tracer.responded[key] - when
            for key, (when, _server) in tracer.delivered.items()
            if key in tracer.responded and key in tracer.sent
        ]
        out.layer("gcs.order_ms_p50", _ms(order, 0.50), "ms", n=len(order))
        out.layer("gcs.order_ms_p99", _ms(order, 0.99), "ms", n=len(order))
        acks = client_ack_ms(tracer)
        out.layer("gcs.ack_ms_p50", _ms(acks, 0.50), "ms", n=len(acks))
        kinds = {k[5:]: v for k, v in d.items() if k.startswith("kind:") and v}
        out.layer("gcs.msgs_per_op", d["sent"] / ops, "count",
                  by_kind={k: v / ops for k, v in sorted(kinds.items())})
        out.layer("gcs.nacks", kinds.get("gcs.nack", 0) + kinds.get("gcs.nack_seq", 0), "count")
        out.layer("gcs.sends_failed", d["sends_failed"], "count")
        live_frames, _data = split_liveness(kinds)
        live_bytes, _data = split_liveness(
            {k[6:]: v for k, v in d.items() if k.startswith("bytes:")}
        )
        out.layer("gcs.liveness_frames_per_s", live_frames / wall, "1/s")
        out.layer("gcs.liveness_bytes_per_s", live_bytes / wall, "B/s")
        out.layer("gcs.view_changes", d.get("srv:config_views", 0), "count")

        out.layer("core.respond_ms_p50", _ms(respond, 0.50), "ms", n=len(respond))
        sessions = max(len(self.harness.handles), 1)
        out.layer("core.propagation_bytes_per_session_s",
                  d.get("srv:propagation_bytes_sent", 0) / sessions / wall, "B/s")
        out.layer("core.delta_share",
                  d.get("srv:propagations_delta", 0) / max(d.get("srv:propagations_sent", 0), 1),
                  "share", n=int(d.get("srv:propagations_sent", 0)))
        out.layer("core.promotions", d.get("srv:promotions", 0), "count")
        out.layer("core.handoff_timeouts", d.get("srv:handoff_timeouts", 0), "count")
        if kills:
            self._takeovers(out, kills, senders or {})

        app_calls = sum(tracer.count(n) for n in tracer.spans if n.startswith("app."))
        app_time = sum(tracer.total(n) for n in tracer.spans if n.startswith("app."))
        out.layer("services.app_us_per_call", app_time * 1e6 / max(app_calls, 1), "us/call",
                  n=app_calls)
        out.layer("sim.events_per_wall_s", d["events"] / wall, "1/s")
        out.layer("sim.events_per_sim_s", d["events"] / max(d["sim"], 1e-9), "1/s")
        out.layer("sim.msgs_per_sim_s", d["sent"] / max(d["sim"], 1e-9), "1/s")
        out.layer("loadgen.late_p99_ms", late_p99_ms, "ms")
        out.info["spans"] = {
            name: {"count": int(c), "total_s": t, "self_s": s}
            for name, (c, t, s) in sorted(tracer.spans.items())
        }
        out.info["traced_cpu_s_per_op"] = d["cpu"] / ops
        return d

    def _takeovers(
        self, out: Outcome, kills: list[dict[str, Any]],
        senders: dict[str, list[tuple[float, Any, int]]],
    ) -> None:
        """Split each takeover at the view change: kill -> every survivor has
        installed a view without the victim -> first response from the new
        primary."""
        tracer = self.tracer
        survivors = {str(s) for s in self.harness.servers}
        reconfig: list[float] = []
        after_view: list[float] = []
        duplicates = 0
        for kill in kills:
            victim = str(kill["victim"])
            seen: dict[str, float] = {}
            for when, server, members in tracer.config_views:
                if when > kill["wall"] and victim not in members and server not in seen:
                    if server != victim:
                        seen[server] = when
            if len(seen) < len(survivors) - 1:
                continue
            view_at = max(seen.values())
            reconfig.append(view_at - kill["wall"])
            for session_id in kill["sessions"]:
                log = senders.get(session_id, [])
                first = next(
                    (w for w, s, _b in log if w > kill["wall"] and str(s) != victim), None
                )
                if first is None:
                    continue
                after_view.append(first - view_at)
                # re-answers: responses of the takeover's first 250 ms that
                # reflect nothing the client had not already seen answered
                answered = max((b for w, _s, b in log if w <= kill["wall"]), default=0)
                duplicates += sum(
                    1 for w, _s, b in log
                    if kill["wall"] < w <= kill["wall"] + 0.25 and b <= answered
                )
        out.layer("gcs.reconfig_ms_p50", _ms(reconfig, 0.50), "ms", n=len(reconfig))
        out.layer("core.takeover_after_view_ms_p50", _ms(after_view, 0.50), "ms",
                  n=len(after_view))
        out.layer("core.dup_responses_per_takeover", duplicates / max(len(after_view), 1),
                  "count", n=len(after_view))


def write_trace(workload: str, seed: int, out: Outcome, tracer: Tracer | None) -> str:
    """Write the traced run's spans (aggregates plus a sample of per-request
    instants) under ``bench/out/``; returns the path."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-{seed}.json"
    requests = []
    if tracer is not None:
        for key in sorted(tracer.sent)[:2000]:
            delivered = tracer.delivered.get(key)
            requests.append({
                "session": key[0], "counter": key[1], "send_update": tracer.sent[key],
                "delivered_at_primary": delivered[0] if delivered else None,
                "primary": delivered[1] if delivered else None,
                "first_response": tracer.responded.get(key),
            })
    path.write_text(json.dumps(
        {"workload": workload, "seed": seed, "spans": out.info.get("spans", {}),
         "layers": out.layers, "requests": requests}, indent=1,
    ))
    return str(path)


# ----------------------------------------------------------------------
# sim_chaos under trace
# ----------------------------------------------------------------------
class SimProbe:
    """Per-layer numbers for ``sim_chaos``: where a chaos seed's wall time
    goes beyond the event loop itself."""

    def __init__(self) -> None:
        self.view_changes = 0
        self.promotions = 0
        self.handoff_timeouts = 0
        self.kinds: dict[str, int] = {}
        self.propagation_bytes = 0.0
        self.propagations = 0
        self.propagations_delta = 0
        self.session_seconds = 0.0

    def sim_seed(self, observation: Any, result: Any, seconds: dict[str, float]) -> None:
        cluster = observation.cluster
        started = time.perf_counter()
        trace_digest(cluster.trace_log())
        seconds["digest"] += time.perf_counter() - started
        started = time.perf_counter()
        run_oracles(observation)
        seconds["oracles"] += time.perf_counter() - started
        for server_id, server in cluster.servers.items():
            self.view_changes += server.counters["config_views"]
            self.promotions += server.counters["promotions"]
            self.handoff_timeouts += server.counters["handoff_timeouts"]
            self.propagation_bytes += server.counters["propagation_bytes_sent"]
            self.propagations += server.counters["propagations_sent"]
            self.propagations_delta += server.counters["propagations_delta"]
            for kind, (frames, _size) in cluster.network.sent_kind_stats(server_id).items():
                self.kinds[kind] = self.kinds.get(kind, 0) + frames
        self.session_seconds += len(observation.handles) * result.end_time

    def sim_layers(self, out: Outcome, seconds: dict[str, float], window: float,
                   cpu: float) -> None:
        info = out.info
        seeds = max(info["seeds"], 1)
        # run_schedule computes the digest and the oracles once itself; the
        # probe's repeat of both is inside the window too, so their share of
        # the *untraced* seed time is one call each out of (window - repeat)
        repeat = seconds["digest"] + seconds["oracles"]
        base = max(window - repeat, 1e-9)
        out.layer("chaos.digest_share", seconds["digest"] / base, "share")
        out.layer("chaos.oracle_share", seconds["oracles"] / base, "share")
        out.layer("metrics.trace_events_per_sim_s",
                  info["trace_events"] / max(info["sim_seconds"], 1e-9), "1/s")
        out.layer("sim.events_per_wall_s", info["events"] / base, "1/s")
        out.layer("sim.events_per_sim_s", info["events"] / max(info["sim_seconds"], 1e-9), "1/s")
        out.layer("sim.msgs_per_sim_s", info["messages"] / max(info["sim_seconds"], 1e-9), "1/s")
        out.layer("gcs.msgs_per_op", info["messages"] / seeds, "count",
                  by_kind={k: v / seeds for k, v in sorted(self.kinds.items())})
        live_frames, _data = split_liveness(self.kinds)
        out.layer("gcs.liveness_frames_per_s",
                  live_frames / max(info["sim_seconds"], 1e-9), "1/s", clock="simulated")
        out.layer("gcs.nacks", self.kinds.get("gcs.nack", 0) + self.kinds.get("gcs.nack_seq", 0),
                  "count")
        out.layer("gcs.view_changes", self.view_changes, "count")
        out.layer("core.promotions", self.promotions, "count")
        out.layer("core.handoff_timeouts", self.handoff_timeouts, "count")
        out.layer("core.delta_share", self.propagations_delta / max(self.propagations, 1),
                  "share", n=self.propagations)
        out.layer("core.propagation_bytes_per_session_s",
                  self.propagation_bytes / max(self.session_seconds, 1e-9), "B/s",
                  clock="simulated", bytes="estimated")
        info["traced_cpu_s_per_op"] = (cpu - repeat) / max(info["events"], 1)
