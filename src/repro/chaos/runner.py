"""Deterministic execution of one chaos run.

``run_schedule(config, seed, schedule)`` builds a fresh cluster, streams
live VoD sessions, injects the schedule, heals everything, settles, and
evaluates the oracles.  Everything is a pure function of ``(config, seed,
schedule)`` — the simulator is deterministic, every RNG hangs off the
cluster's seeded registry, and faults are applied at exact simulated
times — which is what makes delta-debugging re-runs and ``--replay``
artifacts reproduce a failure bit-for-bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.chaos.config import ChaosConfig
from repro.chaos.oracles import RunObservation, Violation, run_oracles
from repro.core.service import ServiceCluster
from repro.faults.injector import inject
from repro.faults.schedule import KINDS, FaultSchedule
from repro.gcs.settings import GcsSettings
from repro.metrics.windows import (
    Interval,
    merge_intervals,
    pad_intervals,
    subtract_intervals,
)
from repro.services import VodApplication, build_movie
from repro.services.workload import VodViewerWorkload


@dataclass
class RunResult:
    """Outcome of one deterministic chaos run."""

    seed: int
    schedule: FaultSchedule
    violations: list[Violation]
    digest: str
    clean_windows: list[Interval] = field(default_factory=list)
    responses: int = 0
    updates: int = 0
    end_time: float = 0.0
    mode: str = "sim"
    #: live runs only: the serialized ingress frame log
    #: (:meth:`repro.net.replay.IngressLog.to_blob`) that lets
    #: ``--replay`` reproduce the run bit-for-bit without sockets
    replay_log: str | None = None

    @property
    def failed(self) -> bool:
        return bool(self.violations)

    def oracle_names(self) -> frozenset[str]:
        return frozenset(v.oracle for v in self.violations)


# ----------------------------------------------------------------------
# disruption windows
# ----------------------------------------------------------------------
def disruption_spans(
    schedule: FaultSchedule, t0: float, heal_time: float
) -> list[Interval]:
    """Absolute-time intervals during which some fault is active: each
    event that opens a disruption (:data:`repro.faults.schedule.KINDS`)
    lasts until the first later closer its record matches, or to
    ``heal_time``, when the runner force-heals everything."""
    events = schedule.sorted_events()
    spans: list[Interval] = []
    for index, event in enumerate(events):
        kind = KINDS[event.kind]
        if not kind.opens(event):
            continue
        end = heal_time
        for later in events[index + 1 :]:
            if later.kind == kind.closer and kind.match(event, later):
                end = t0 + later.time
                break
        spans.append((t0 + event.time, end))
    return merge_intervals(spans)


# ----------------------------------------------------------------------
# trace digest (determinism witness)
# ----------------------------------------------------------------------
def _stable(value) -> str:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_stable(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted((str(k), _stable(v)) for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (frozenset, set)):
        return "{" + ",".join(sorted(_stable(v) for v in value)) + "}"
    # objects with data-class reprs are stable; anything else degrades to
    # its type name rather than an id()-bearing default repr
    text = repr(value)
    return text if "0x" not in text else f"<{type(value).__name__}>"


#: most characters handed to the hash at once
_DIGEST_CHUNK = 1 << 16
#: most distinct details one digest remembers
_DETAIL_MEMO = 4096


def _detail_renderer():
    """``_stable`` for trace details, remembering what it returned for
    details made of ``str`` keys and ``str`` values — 99 % of a run's
    records (``net.deliver``: sender and kind), in a few dozen distinct
    combinations.  The memo is keyed by the items and holds ``_stable``'s
    own output; the types are checked exactly, so no two keys that compare
    equal (``1``, ``True``, a ``str`` subclass with its own ``repr``) can
    stand for details that ``_stable`` would print differently."""
    seen: dict[tuple, str] = {}

    def render(detail: dict) -> str:
        for name, value in detail.items():
            if type(name) is not str or type(value) is not str:
                return _stable(detail)
        key = tuple(detail.items())
        text = seen.get(key)
        if text is None:
            text = _stable(detail)
            if len(seen) < _DETAIL_MEMO:
                seen[key] = text
        return text

    return render


def trace_digest(trace) -> str:
    """SHA-256 over the full event trace: two runs are *the same run*
    iff their digests match (times, nodes, categories and details)."""
    digest = hashlib.sha256()
    render = _detail_renderer()
    # each line's tail after the time, rendered once per distinct (node,
    # category, detail) — keyed by identity, which is exact: the log keeps
    # every record alive and unchanged while this runs, and one object
    # prints one way (a value key would let ``1`` stand for ``True``)
    tails: dict[tuple[int, int, int], str] = {}
    lines: list[str] = []
    size = 0
    for time, node, category, detail in zip(*trace.columns()):
        key = (id(node), id(category), id(detail))  # repro-lint: allow(D104) — memo key
        tail = tails.get(key)
        if tail is None:
            if len(tails) >= _DETAIL_MEMO:
                tails.clear()
            tail = tails[key] = f"|{node}|{category}|{render(detail)}\n"
        line = f"{time!r}{tail}"
        if size + len(line) > _DIGEST_CHUNK and lines:
            digest.update("".join(lines).encode())
            lines.clear()
            size = 0
        lines.append(line)
        size += len(line)
    digest.update("".join(lines).encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# the three phases both runtimes share
# ----------------------------------------------------------------------
def vod_units(config: ChaosConfig) -> dict[str, VodApplication]:
    """The content units of a chaos cluster, all served by one app."""
    movies = {
        unit: build_movie(unit, duration_seconds=600.0, frame_rate=10.0)
        for unit in config.unit_ids
    }
    app = VodApplication(movies)
    return {unit: app for unit in movies}


def start_session(cluster, config: ChaosConfig, index: int, client, rngs):
    """Open session ``index`` on ``client`` and start its viewer; the
    returned workload carries the ``client`` and the session ``handle``."""
    workload = VodViewerWorkload(
        cluster=cluster,
        client=client,
        handle=client.start_session(config.unit_ids[index % len(config.unit_ids)]),
        rng=rngs.stream(f"chaos-workload-{index}"),
        skip_interval_mean=3.0,
    )
    workload.start()
    return workload


def heal_sweep(cluster, workloads: list[VodViewerWorkload]) -> None:
    """Lift every fault so the cluster can converge before the oracles
    look: exactly what :func:`disruption_spans` promises at ``heal_time``."""
    for workload in workloads:
        workload.stop()  # quiesce updates so lost-update checks are exact
        # a viewer stopped mid-pause would legitimately stay silent and
        # fake a responsiveness stall: hit play one final time
        if workload.client.is_up():
            workload.client.send_update(workload.handle, {"op": "resume"})
    for server in cluster.servers.values():
        server.disarm_crash_hooks()
        if server.is_up():
            server.daemon.set_dispatch_delay(0.0)
    if cluster.faults is not None:  # None: a replay, faults are in the frame log
        cluster.faults.clear_all()
    for _server_id, server in sorted(cluster.servers.items()):
        if not server.is_up():
            server.recover()


def phase_times(config: ChaosConfig, inject_t0: float) -> tuple[float, float]:
    """``(heal_time, end)`` of a run whose schedule starts at ``inject_t0``."""
    heal_time = inject_t0 + config.duration
    return heal_time, heal_time + config.settle


def evaluate(
    cluster,
    config: ChaosConfig,
    seed: int,
    schedule: FaultSchedule,
    workloads: list[VodViewerWorkload],
    inject_t0: float,
    replay_log: str | None = None,
    keep_cluster: bool = False,
):
    """Clean windows, oracles, digest: the verdict on a finished run."""
    heal_time, end = phase_times(config, inject_t0)
    handles = [workload.handle for workload in workloads]
    disrupted = pad_intervals(
        disruption_spans(schedule, inject_t0, heal_time), config.stabilize_margin
    )
    clean_windows = subtract_intervals([(inject_t0, end)], disrupted)
    observation = RunObservation(
        cluster=cluster,
        config=config,
        schedule=schedule,
        handles=handles,
        clean_windows=clean_windows,
        serve_start=inject_t0,
        end=end,
    )
    result = RunResult(
        seed=seed,
        schedule=schedule,
        violations=run_oracles(observation),
        digest=trace_digest(cluster.trace_log()),
        clean_windows=clean_windows,
        responses=sum(len(h.received) for h in handles),
        updates=sum(h.update_counter for h in handles),
        end_time=end,
        mode=config.mode,
        replay_log=replay_log,
    )
    if keep_cluster:
        return result, observation
    return result


# ----------------------------------------------------------------------
# the simulated run
# ----------------------------------------------------------------------
def run_schedule(
    config: ChaosConfig,
    seed: int,
    schedule: FaultSchedule,
    keep_cluster: bool = False,
):
    """Execute one chaos run; returns a :class:`RunResult` (and the final
    :class:`RunObservation` when ``keep_cluster`` is set, for debugging).

    ``config.mode == "live"`` dispatches to :mod:`repro.chaos.live`,
    which runs the identical schedule/oracle pipeline against a real
    asyncio socket cluster wrapped in fault-injecting transports.

    The simulated run keeps its phases imperative — run, act, run — where
    the live one pre-schedules them as events: the order in which its
    events enter the heap is pinned by the trace-digest anchors.
    """
    if config.mode == "live":
        # local import: repro.chaos.live imports this module for the
        # shared phases and the digest
        from repro.chaos.live import run_live_schedule

        return run_live_schedule(config, seed, schedule, keep_cluster=keep_cluster)
    cluster = ServiceCluster.build(
        n_servers=config.n_servers,
        units=vod_units(config),
        replication=config.n_servers,
        policy=config.build_policy(),
        settings=GcsSettings(),
        seed=seed,
    )
    config.plant_bugs(cluster)
    cluster.settle()
    workloads = []
    for index, client_id in enumerate(config.client_ids):
        client = cluster.add_client(client_id)
        workloads.append(start_session(cluster, config, index, client, cluster.rngs))
    cluster.run(config.establish)
    inject_t0 = cluster.sim.now
    inject(cluster, schedule)
    cluster.run(config.duration)
    heal_sweep(cluster, workloads)
    cluster.run(config.settle)
    return evaluate(
        cluster, config, seed, schedule, workloads, inject_t0, keep_cluster=keep_cluster
    )


__all__ = [
    "RunResult",
    "disruption_spans",
    "evaluate",
    "heal_sweep",
    "phase_times",
    "run_schedule",
    "start_session",
    "trace_digest",
    "vod_units",
]
