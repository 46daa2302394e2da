"""Chaos on the live wire: real-socket runs of chaos schedules.

``run_live_schedule`` executes the same ``(config, seed, schedule)``
triple as the simulator runner, but against a cluster of real asyncio
loopback sockets wrapped in :class:`~repro.net.faults.FaultyTransport`:
partitions sever actual links, link-delay spikes hold actual frames, and
duplicate/reorder perturb actual datagrams.  The same clean-window
algebra and invariant oracles judge the run, so a schedule that fails in
simulation and one that fails live produce the same kind of artifact.

**Determinism.**  A live run is *not* reproducible from its seed alone —
the kernel schedules sockets.  It is reproducible from its **ingress
frame log**: the pacer always advances the clock to its exact target,
every internal event time derives from scheduled workload times and
protocol delays, and the single wall-clock input is the ``(time, seq)``
coordinate each inbound frame's delivery event receives.  Recording
those coordinates plus the raw bytes (:class:`~repro.net.replay.IngressLog`)
makes :func:`replay_live` exact: rebuild the identical cluster on null
transports, fence the recorded seqs off the simulator's counter, inject
every frame at its recorded coordinate, and run — the event heap pops in
the identical order and the trace digest matches bit-for-bit.

**Phasing.**  Everything — client connects, session starts, workload
interactions, every fault, the heal sweep — is pre-scheduled as
simulator events before the pacer takes its first step, exactly like the
scripted live cluster (:mod:`repro.net.cluster`).  There is no
imperative phase interleaving to race against the wall clock::

    0 ──── _BOOT ──── inject_t0 ──────── heal_time ───────── end
    boot    sessions    faults fire        heal sweep          oracles
            + workload  (schedule times    (stop workloads,
            streaming    relative to        clear faults,
                         inject_t0)         recover crashed)

What a phase *does* is not live-specific: ``start_session``,
``heal_sweep`` and ``evaluate`` are the simulated runner's
(:mod:`repro.chaos.runner`), faults are applied by the one
:func:`repro.faults.injector.apply`, and the cluster is built by the one
live assembler (:func:`repro.net.cluster.assemble`).
"""

from __future__ import annotations

import asyncio

from repro.chaos.config import ChaosConfig
from repro.chaos.runner import (
    evaluate,
    heal_sweep,
    phase_times,
    start_session,
    vod_units,
)
from repro.core.service import ServiceCluster
from repro.faults.injector import inject
from repro.faults.schedule import FaultSchedule
from repro.gcs.settings import GcsSettings
from repro.gcs.spec import SpecMonitor
from repro.net.cluster import assemble, connect_mesh
from repro.net.faults import FaultPlane, FaultyTransport, wan_profile
from repro.net.replay import IngressLog, ReplayTransport
from repro.net.runtime import LiveRuntime
from repro.net.transport import MeshTransport, UdpLoopbackTransport
from repro.services.workload import VodViewerWorkload
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog

#: Wall seconds between pacer start and client connects/session starts —
#: long enough for the first view to form under live_lan timings.
_BOOT = 1.5


#: Chaos runs scale the live-LAN timings up: the stock 30 ms suspect
#: timeout is fine for one scripted run, but a chaos exploration re-runs
#: the cluster dozens of times on a loaded box, and a single event-loop
#: stall past the timeout manufactures a spurious suspicion that the
#: oracles (or a settings-layer plant) can't tell from a real fault.
_CHAOS_SETTINGS_FACTOR = 2.0


def _live_settings(config: ChaosConfig) -> GcsSettings:
    """The GCS timing constants for one live chaos run: the live-LAN
    preset, scaled up when a WAN profile stretches the links, with the
    config's failure-detection protocol."""
    factor = _CHAOS_SETTINGS_FACTOR
    if config.wan_profile is not None:
        factor = wan_profile(config.wan_profile).settings_factor
    settings = GcsSettings.live_lan().scaled(factor)
    return config.apply_plant_settings(settings)


def _assemble(
    config: ChaosConfig, sim: Simulator, transports: dict[str, MeshTransport], **live
) -> ServiceCluster:
    """The chaos cluster over already-created transports; ``live`` is the
    recording run's ``runtime``/``faults``/``recorder``, empty in replay."""
    cluster = assemble(
        sim,
        transports,
        config.server_ids,
        config.client_ids,
        vod_units(config),
        config.build_policy(),
        _live_settings(config),
        TraceLog(enabled=True),
        SpecMonitor(),
        **live,
    )
    # here, not in the recording run: a replay must rebuild the same
    # sabotaged cluster or the frame log plays into different daemons
    config.plant_bugs(cluster)
    return cluster


def _schedule_phases(
    cluster: ServiceCluster, config: ChaosConfig, seed: int, schedule: FaultSchedule
) -> tuple[list[VodViewerWorkload], float, float]:
    """Pre-schedule the whole run as simulator events — identically in
    live and replay, so the sequence numbers they take match.

    Returns ``(workloads, inject_t0, end)``; ``workloads`` fills in as
    the session-start events fire.
    """
    sim = cluster.sim
    rngs = RngRegistry(seed)
    workloads: list[VodViewerWorkload] = []
    for client_id in config.client_ids:
        sim.schedule_at(
            _BOOT * 0.5, cluster.clients[client_id].connect, label="chaos:connect"
        )

    def do_start(index: int) -> None:
        client = cluster.clients[config.client_ids[index]]
        workloads.append(start_session(cluster, config, index, client, rngs))

    for index in range(config.n_sessions):
        sim.schedule_at(
            _BOOT, (lambda i=index: do_start(i)), label="chaos:start-session"
        )
    inject_t0 = _BOOT + config.establish
    inject(cluster, schedule, offset=inject_t0)
    heal_time, end = phase_times(config, inject_t0)
    sim.schedule_at(
        heal_time, lambda: heal_sweep(cluster, workloads), label="chaos:heal"
    )
    return workloads, inject_t0, end


# ----------------------------------------------------------------------
# the live run
# ----------------------------------------------------------------------
async def _run_live(
    config: ChaosConfig, seed: int, schedule: FaultSchedule, keep_cluster: bool
):
    sim = Simulator()
    runtime = LiveRuntime(sim)
    log = IngressLog()
    plane = FaultPlane()
    transports: dict[str, MeshTransport] = {}
    for node in [*config.server_ids, *config.client_ids]:
        faulty = FaultyTransport(UdpLoopbackTransport(node), seed=seed)
        await faulty.start("127.0.0.1", 0)
        transports[node] = faulty
        plane.adopt(node, faulty)
    connect_mesh(transports)
    if config.wan_profile is not None:
        wan_profile(config.wan_profile).install(plane)

    cluster = _assemble(
        config, sim, transports, runtime=runtime, faults=plane.model, recorder=log.record
    )
    try:
        workloads, inject_t0, end = _schedule_phases(cluster, config, seed, schedule)
        await runtime.run(end)
    finally:
        await cluster.close()
    return evaluate(
        cluster, config, seed, schedule, workloads, inject_t0, log.to_blob(), keep_cluster
    )


def run_live_schedule(
    config: ChaosConfig, seed: int, schedule: FaultSchedule, keep_cluster: bool = False
):
    """Execute one chaos run on real sockets (blocking; takes roughly
    ``_BOOT + establish + duration + settle`` wall seconds)."""
    return asyncio.run(_run_live(config, seed, schedule, keep_cluster))


# ----------------------------------------------------------------------
# bit-identical replay from the ingress frame log
# ----------------------------------------------------------------------
def replay_live(
    config: ChaosConfig,
    seed: int,
    schedule: FaultSchedule,
    log_blob: str,
    keep_cluster: bool = False,
):
    """Re-execute a recorded live run without sockets.

    Pure simulation: the recorded ingress frames are injected at their
    recorded ``(time, seq)`` coordinates, so the event heap — and hence
    every handler, timer, trace record, and oracle verdict — reproduces
    the original run exactly.  A digest match against the recorded run
    is the witness.
    """
    log = IngressLog.from_blob(log_blob)
    sim = Simulator()
    sim.reserve_seqs(log.seqs())
    cluster = _assemble(
        config,
        sim,
        {node: ReplayTransport(node) for node in [*config.server_ids, *config.client_ids]},
    )
    workloads, inject_t0, end = _schedule_phases(cluster, config, seed, schedule)
    for record in log.records:
        network = cluster.networks.get(record.node)
        if network is None:
            raise ValueError(f"ingress log names unknown node {record.node!r}")
        sim.inject_at(
            record.time,
            record.seq,
            (lambda n=network, data=record.frame: n._ingest(data)),
            label="live:frame",
        )
    sim.run_until(end)
    return evaluate(
        cluster, config, seed, schedule, workloads, inject_t0, log_blob, keep_cluster
    )


__all__ = ["replay_live", "run_live_schedule"]
