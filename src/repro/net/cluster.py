"""In-process live clusters and the scripted VoD workload.

``python -m repro cluster`` builds one
:class:`~repro.core.service.ServiceCluster` — the cluster class the
simulator uses too — in which every server (and the client) owns its own
socket and its own :class:`~repro.net.runtime.LiveNetwork`, all paced by
one shared simulator running in lock-step with the wall clock — so every message
between nodes crosses a real socket through the binary codec, while the
protocol modules execute unchanged.

The workload is scripted as simulator events (deterministic given the
socket timings): connect, start a VoD session, stream a batch of context
updates, optionally kill the current primary mid-run and restart it
later, then quiesce and audit.  The audit report is the same
:mod:`repro.metrics.session_audit` machinery the experiments use, plus
the live-only extras: transport counters and codec-rejected frames.

``python -m repro serve`` runs one server node over the TCP mesh for
multi-OS-process deployments; peers are named on the command line.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, cast

from repro.core.application import ServiceApplication
from repro.core.client import SessionHandle
from repro.core.config import AvailabilityPolicy
from repro.core.service import ServiceCluster
from repro.gcs.settings import GcsSettings
from repro.gcs.spec import SpecMonitor
from repro.metrics.collectors import split_liveness
from repro.metrics.session_audit import audit_session, lost_acked_updates, lost_updates
from repro.metrics.windows import multi_primary_time
from repro.net.faults import FaultControlServer, FaultPlane, FaultyTransport
from repro.net.runtime import IngressRecorder, LiveNetwork, LiveRuntime
from repro.net.transport import MeshTransport, create_transport
from repro.services.content import build_movie
from repro.services.vod import VodApplication
from repro.sim.engine import Simulator
from repro.sim.topology import Topology
from repro.sim.trace import TraceLog

#: the content unit a scripted live run streams (and ``repro serve``'s
#: default ``--unit``)
_DEMO_UNIT = "demo"


@dataclass(slots=True)
class LiveClusterOptions:
    """Shape of one scripted live run.

    ``transport`` names a registered backend (see
    :func:`repro.net.transport.create_transport`).  ``profile`` picks the
    :class:`GcsSettings` preset — live loopback runs default to the tight
    :meth:`GcsSettings.live_lan` timings the fast wire path affords.  A
    killed primary is always recovered later in the run.
    """

    nodes: int = 3
    requests: int = 200
    kill_primary: bool = False
    update_interval: float = 0.02
    warmup: float = 1.8
    settle: float = 2.0
    transport: str = "tcp"
    profile: str = "live_lan"
    stats_json: str | None = None


def resolve_profile(name: str) -> GcsSettings:
    """Map a profile name to its :class:`GcsSettings` preset.  The
    ``*_gossip`` variants run the same timings with the SWIM gossip
    detector instead of the heartbeat mesh."""
    if name == "default":
        return GcsSettings()
    if name == "live_lan":
        return GcsSettings.live_lan()
    if name == "gossip":
        return replace(GcsSettings(), membership_mode="gossip")
    if name == "live_lan_gossip":
        return replace(GcsSettings.live_lan(), membership_mode="gossip")
    raise ValueError(
        f"unknown settings profile {name!r}"
        " (default, live_lan, gossip, live_lan_gossip)"
    )


@dataclass(slots=True)
class WorkloadPlan:
    """What the script decided and observed (filled in as events fire)."""

    duration: float = 0.0
    updates_from: float = 0.0
    handle: SessionHandle | None = None
    killed: str | None = None
    kill_time: float | None = None
    restart_time: float | None = None


def assemble(
    sim: Simulator,
    transports: dict[str, MeshTransport],
    server_ids: list[str],
    client_ids: list[str],
    applications: dict[str, ServiceApplication],
    policy: AvailabilityPolicy,
    settings: GcsSettings,
    trace: TraceLog,
    monitor: SpecMonitor | None,
    runtime: LiveRuntime | None = None,
    faults: Topology | None = None,
    recorder: IngressRecorder | None = None,
    world: list[str] | None = None,
) -> ServiceCluster:
    """Build the protocol stack over already-created transports: a
    :class:`ServiceCluster` whose nodes each get a :class:`LiveNetwork`
    over their own transport.  The servers (each hosting every unit of
    ``applications``) are constructed, then started, then each client is
    constructed and started.

    The only live assembler — the scripted cluster, ``repro serve``,
    live chaos and its replay all come through here — because the
    construction order fixes every RNG stream, timer and event-sequence
    allocation: a replay is bit-identical to its recording only if both
    were built in the same order, so the order lives in one place.
    ``world`` (default ``server_ids``) names the servers of other
    processes a ``repro serve`` node heartbeats.
    """
    wake = runtime.wake if runtime is not None else None
    cluster = ServiceCluster(
        sim,
        lambda node: LiveNetwork(
            sim, transports[node], trace=trace, wake=wake, node_id=node, recorder=recorder
        ),
        applications,
        policy,
        settings,
        trace,
        monitor,
        faults,
        runtime=runtime,
        transports=transports,
    )
    for server_id in server_ids:
        cluster.add_server(server_id, world if world is not None else server_ids)
    for server in cluster.servers.values():
        server.start()
    for client_id in client_ids:
        cluster.add_client(client_id)
    return cluster


def connect_mesh(transports: dict[str, MeshTransport]) -> None:
    """Tell every started transport every other one's bound address."""
    for node, transport in transports.items():
        for peer, peer_transport in transports.items():
            if peer != node:
                host, port = peer_transport.address
                transport.set_peer(peer, host, port)


async def build_live_cluster(options: LiveClusterOptions) -> ServiceCluster:
    """Bind one socket per node, wire the full-mesh address book, and
    start the servers and client (protocol timers arm at sim t=0; nothing
    runs until the pacer does)."""
    if options.nodes < 1:
        raise ValueError("a cluster needs at least one node")
    sim = Simulator()
    server_ids = [f"s{i}" for i in range(options.nodes)]
    transports: dict[str, MeshTransport] = {}
    for node in [*server_ids, "c0"]:
        transports[node] = create_transport(options.transport, node)
        await transports[node].start("127.0.0.1", 0)
    connect_mesh(transports)

    # a movie long enough that the stream cannot finish mid-run
    run_seconds = (
        options.warmup + 0.7 + options.requests * options.update_interval
        + options.settle + 10.0
    )
    movie = build_movie(
        _DEMO_UNIT, duration_seconds=int(run_seconds * 2) + 60, frame_rate=24
    )
    return assemble(
        sim,
        transports,
        server_ids,
        ["c0"],
        {_DEMO_UNIT: VodApplication({_DEMO_UNIT: movie})},
        AvailabilityPolicy(num_backups=1),
        resolve_profile(options.profile),
        TraceLog(enabled=True),
        SpecMonitor(),
        runtime=LiveRuntime(sim),
    )


def schedule_workload(
    cluster: ServiceCluster, options: LiveClusterOptions
) -> WorkloadPlan:
    """Script the whole run as simulator events before the pacer starts."""
    sim = cluster.sim
    client = cluster.clients["c0"]
    plan = WorkloadPlan()

    def do_connect() -> None:
        client.connect()

    def do_start() -> None:
        plan.handle = client.start_session(_DEMO_UNIT)

    sim.schedule_at(min(1.0, options.warmup / 2), do_connect, label="wl:connect")
    sim.schedule_at(options.warmup, do_start, label="wl:start-session")

    updates_from = options.warmup + 0.7
    plan.updates_from = updates_from
    interval = options.update_interval

    def send_update(index: int) -> None:
        if plan.handle is None or not plan.handle.started:
            # the session confirmation has not landed yet; skip rather
            # than queue updates the audit would call lost
            return
        client.send_update(
            plan.handle, {"op": "rate", "value": 24.0 + float(index % 2)}
        )

    for i in range(options.requests):
        sim.schedule_at(
            updates_from + i * interval,
            (lambda index=i: send_update(index)),
            label="wl:update",
        )

    updates_until = updates_from + options.requests * interval
    end = updates_until + options.settle

    if options.kill_primary:
        kill_at = updates_from + 0.45 * options.requests * interval

        def do_kill() -> None:
            if plan.handle is None:
                return
            primaries = cluster.primaries_of(plan.handle.session_id)
            if not primaries:
                return
            plan.killed = primaries[0]
            plan.kill_time = sim.now
            cluster.servers[primaries[0]].crash()

        sim.schedule_at(kill_at, do_kill, label="wl:kill-primary")
        restart_at = kill_at + max(1.5, 0.3 * options.requests * interval)

        def do_restart() -> None:
            if plan.killed is not None:
                plan.restart_time = sim.now
                cluster.servers[plan.killed].recover()

        sim.schedule_at(restart_at, do_restart, label="wl:restart")
        end = max(end, restart_at + 1.5)

    plan.duration = end + 0.5
    return plan


def build_report(cluster: ServiceCluster, plan: WorkloadPlan) -> dict[str, Any]:
    """Audit the finished run; ``clean`` summarizes the CI gate."""
    handle = plan.handle
    client = cluster.clients["c0"]
    reasons: list[str] = []
    report: dict[str, Any] = {
        "mode": "live",
        "sim_seconds": round(cluster.sim.now, 3),
        "servers": sorted(cluster.servers),
        "killed": plan.killed,
        "kill_time": plan.kill_time,
        "restart_time": plan.restart_time,
    }
    if handle is None:
        report["clean"] = False
        report["reasons"] = ["workload never started a session"]
        return report

    audit = audit_session(handle)
    lost = lost_updates(cluster, handle)
    lost_acked = lost_acked_updates(cluster, handle)
    report["session"] = {
        "session_id": audit.session_id,
        "started": handle.started,
        "denied_reason": handle.denied_reason,
        "updates_sent": audit.updates_sent,
        "responses_received": audit.responses_received,
        "distinct_indices": audit.distinct_indices,
        "duplicate_count": audit.duplicate_count,
        "stale_count": audit.stale_count,
        "uncertain_resends": audit.uncertain_resends,
        "max_gap": round(audit.max_gap, 3),
        "failed_sends": handle.failed_sends,
        "unacked_sends": client.gcs.unacked_count,
        "lost_updates": lost,
        "lost_acked_updates": lost_acked,
    }
    report["multi_primary_time"] = round(
        multi_primary_time(cluster, handle.session_id), 4
    )
    report["transport"] = {
        node: {
            "frames_sent": transport.stats.frames_sent,
            "frames_received": transport.stats.frames_received,
            "bytes_sent": transport.stats.bytes_sent,
            "bytes_received": transport.stats.bytes_received,
            "writes": transport.stats.writes,
            "dropped_oldest": transport.stats.dropped_oldest,
            "dropped_oversize": transport.stats.dropped_oversize,
            "oversize_frames": transport.stats.oversize_frames,
            "reconnects": transport.stats.reconnects,
        }
        for node, transport in sorted(cluster.transports.items())
    }
    report["frames_rejected"] = sum(
        network.frames_rejected for network in _live_networks(cluster).values()
    )
    if plan.killed is not None and plan.kill_time is not None:
        takeover: float | None = None
        for response in handle.received:
            if response.time > plan.kill_time and response.sender != plan.killed:
                takeover = response.time - plan.kill_time
                break
        report["takeover_seconds"] = (
            round(takeover, 3) if takeover is not None else None
        )
        if takeover is None:
            reasons.append("no post-failover responses")

    if not handle.started:
        reasons.append("session never started")
    if handle.denied_reason is not None:
        reasons.append(f"session denied: {handle.denied_reason}")
    if audit.responses_received == 0:
        reasons.append("no responses received")
    if handle.failed_sends > 0:
        reasons.append(f"{handle.failed_sends} client sends failed")
    if client.gcs.unacked_count > 0:
        reasons.append(f"{client.gcs.unacked_count} sends never acked")
    if lost_acked > 0:
        reasons.append(f"{lost_acked} acknowledged updates lost")
    if report["multi_primary_time"] > 0:
        reasons.append("overlapping primaries observed")
    if report["frames_rejected"] > 0:
        reasons.append(f"{report['frames_rejected']} frames rejected by the codec")
    report["clean"] = not reasons
    report["reasons"] = reasons
    return report


def _live_networks(cluster: ServiceCluster) -> dict[str, LiveNetwork]:
    """The per-node networks of a cluster :func:`assemble` built."""
    return cast("dict[str, LiveNetwork]", cluster.networks)


def _dump_stats(path: str | None, cluster: ServiceCluster) -> None:
    """Write every transport's full per-peer snapshot as one JSON file.

    Each node also reports its outgoing traffic split into liveness
    (heartbeats / SWIM probes) and data, in real encoded bytes and
    frames — the number an operator watches to judge membership overhead
    at a given cluster size — and each server its holdback retention
    (``GcsDaemon.holdback_stats``)."""
    if path is None:
        return
    payload: dict[str, Any] = {
        str(node): transport.stats_snapshot()
        for node, transport in sorted(cluster.transports.items(), key=lambda kv: str(kv[0]))
    }
    for node, network in sorted(_live_networks(cluster).items(), key=lambda kv: str(kv[0])):
        frames = {
            kind: sent for kind, (sent, _bytes) in network.sent_kind_stats(node).items()
        }
        liveness_frames, data_frames = split_liveness(frames)
        liveness_bytes, data_bytes = split_liveness(network.actual_bytes_sent)
        payload.setdefault(str(node), {})["traffic_split"] = {
            "liveness_frames_sent": liveness_frames,
            "liveness_bytes_sent": liveness_bytes,
            "data_frames_sent": data_frames,
            "data_bytes_sent": data_bytes,
        }
    for node, server in sorted(cluster.servers.items()):
        payload.setdefault(str(node), {})["holdback"] = server.daemon.holdback_stats()
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


async def _run_cluster(options: LiveClusterOptions) -> dict[str, Any]:
    cluster = await build_live_cluster(options)
    try:
        plan = schedule_workload(cluster, options)
        if cluster.runtime is None:  # only a replay is built without a pacer
            raise RuntimeError("build_live_cluster returned no runtime")
        await cluster.runtime.run(plan.duration)
        report = build_report(cluster, plan)
        _dump_stats(options.stats_json, cluster)
        return report
    finally:
        await cluster.close()


def run_live_cluster(options: LiveClusterOptions) -> dict[str, Any]:
    """Blocking entry point used by ``python -m repro cluster`` and tests."""
    return asyncio.run(_run_cluster(options))


# ---------------------------------------------------------------------------
# single-node daemon (`python -m repro serve`)
# ---------------------------------------------------------------------------
@dataclass(slots=True)
class ServeOptions:
    """One server node of a multi-process TCP deployment.

    ``control`` opens a JSON-lines fault control channel on the given
    ``(host, port)``: the node's transport is wrapped in a
    :class:`~repro.net.faults.FaultyTransport` and an external harness
    can sever/delay/perturb its links at runtime (``repro.net.faults``
    documents the command vocabulary).
    """

    node_id: str
    listen: tuple[str, int]
    peers: dict[str, tuple[str, int]] = field(default_factory=dict)
    unit: str = _DEMO_UNIT
    duration: float = 10.0
    expect_members: int | None = None
    transport: str = "tcp"
    profile: str = "default"
    stats_json: str | None = None
    control: tuple[str, int] | None = None


async def _serve(options: ServeOptions) -> dict[str, Any]:
    sim = Simulator()
    runtime = LiveRuntime(sim)
    transport = create_transport(options.transport, options.node_id)
    plane: FaultPlane | None = None
    control_server: FaultControlServer | None = None
    if options.control is not None:
        if not isinstance(transport, FaultyTransport):
            transport = FaultyTransport(transport)
        plane = FaultPlane()
        plane.adopt(options.node_id, transport)
        control_server = FaultControlServer(plane)
        await control_server.start(*options.control)
    await transport.start(*options.listen)
    for peer, (host, port) in options.peers.items():
        transport.set_peer(peer, host, port)
    movie = build_movie(
        options.unit, duration_seconds=int(options.duration * 2) + 60, frame_rate=24
    )
    cluster = assemble(
        sim,
        {options.node_id: transport},
        [options.node_id],
        [],
        {options.unit: VodApplication({options.unit: movie})},
        AvailabilityPolicy(num_backups=1),
        resolve_profile(options.profile),
        TraceLog(enabled=False),
        None,
        runtime=runtime,
        faults=plane.model if plane is not None else None,
        world=sorted([options.node_id, *options.peers]),
    )
    try:
        await runtime.run(options.duration)
        _dump_stats(options.stats_json, cluster)
    finally:
        await cluster.close()
        if control_server is not None:
            await control_server.close()
    daemon = cluster.servers[options.node_id].daemon
    report: dict[str, Any] = {
        "node": options.node_id,
        "members": sorted(str(member) for member in daemon.config.members),
        "view": str(daemon.config.view_id),
        "frames_sent": transport.stats.frames_sent,
        "frames_received": transport.stats.frames_received,
    }
    if control_server is not None and control_server.address is not None:
        host, port = control_server.address
        report["control"] = f"{host}:{port}"
    return report


def run_single_node(options: ServeOptions) -> dict[str, Any]:
    """Blocking entry point used by ``python -m repro serve``."""
    return asyncio.run(_serve(options))


__all__ = [
    "LiveClusterOptions",
    "ServeOptions",
    "WorkloadPlan",
    "assemble",
    "build_live_cluster",
    "build_report",
    "resolve_profile",
    "run_live_cluster",
    "run_single_node",
    "schedule_workload",
]
