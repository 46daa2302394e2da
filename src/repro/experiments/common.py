"""Shared experiment machinery.

Provides the :class:`LedgerApplication` — a minimal service whose session
state is the *set of update counters received*, making per-update loss
directly observable — and :func:`ledger_churn`, the one Section-4 loss run
(E1, E7 and E11), plus world builders and measurement helpers used by
several experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.core import AvailabilityPolicy, ServiceCluster
from repro.core.application import RequestResponseApplication
from repro.faults.generators import poisson_crash_schedule
from repro.faults.injector import inject
from repro.faults.schedule import FaultSchedule
from repro.gcs.settings import GcsSettings
from repro.net.codec import register
from repro.services.content import build_movie
from repro.services.vod import VodApplication


@dataclass(frozen=True)
class LedgerState:
    """The set of update counters this session has absorbed."""

    unit_id: str
    counters: frozenset[int] = frozenset()


# propagated inside snapshots, so it is priced (and would travel) as a wire type
register(LedgerState)


class LedgerApplication(RequestResponseApplication):
    """A diagnostic service: every update ``{"counter": c}`` is recorded in
    the context.  A counter the client sent but no surviving context holds
    is *exactly* one lost context update — the Section-4 event."""

    def initial_state(self, unit_id: str, params: Any) -> LedgerState:
        return LedgerState(unit_id=unit_id)

    def apply_update(self, state: LedgerState, update: Any) -> LedgerState:
        counter = update.get("counter")
        if counter is None:
            return state
        return replace(state, counters=state.counters | {int(counter)})

    def respond_to_update(self, state, update):
        return state, []


def surviving_counters(cluster, session_id: str) -> frozenset[int]:
    """The counters present in the session's *current serving context*
    (the live primary's), falling back to the freshest surviving backup or
    unit-database record when no primary exists."""
    for server in cluster.servers.values():
        if not server.is_up():
            continue
        runtime = server.primaries.get(session_id)
        if runtime is not None:
            return runtime.ctx.app_state.counters
    best: frozenset[int] = frozenset()
    best_key = None
    for server in cluster.servers.values():
        if not server.is_up():
            continue
        backup = server.backups.get(session_id)
        if backup is not None:
            app = server.applications[backup.base.app_state.unit_id]
            effective = backup.effective(app.apply_update)
            key = effective.freshness_key()
            if best_key is None or key > best_key:
                best, best_key = effective.app_state.counters, key
        for db in server.unit_dbs.values():
            record = db.get(session_id)
            if record is not None:
                key = record.snapshot.freshness_key()
                if best_key is None or key > best_key:
                    best, best_key = record.snapshot.app_state.counters, key
    return best


def ledger_cluster(
    n_servers: int,
    policy: AvailabilityPolicy,
    seed: int,
    replication: int | None = None,
    settings: GcsSettings | None = None,
) -> ServiceCluster:
    """A settled cluster serving the one ledger unit ``ledger-0``."""
    cluster = ServiceCluster.build(
        n_servers=n_servers,
        units={"ledger-0": LedgerApplication()},
        replication=replication if replication is not None else n_servers,
        policy=policy,
        settings=settings,
        seed=seed,
        trace=False,
    )
    cluster.settle()
    return cluster


def ledger_churn(
    cluster: ServiceCluster,
    n_sessions: int,
    faults_rng: np.random.Generator,
    duration: float,
    failure_rate: float,
    mean_downtime: float,
    update_period: float,
    spare: str | None = None,
    settle: float = 8.0,
) -> tuple[int, int, FaultSchedule]:
    """The Section-4 loss run on a :func:`ledger_cluster`.

    Clients ``c0…`` each open a ledger session and stream ``{"counter":
    k+1}`` every ``update_period`` while the servers crash and recover as
    independent Poisson processes (``spare`` never crashes).  After the
    fault window every downed server recovers and the cluster settles for
    ``settle`` seconds.  Returns ``(sent, lost, schedule)``: the counters
    sent (less those the client saw fail), how many of them no surviving
    context holds, and the injected schedule (relative to its start).
    """
    sessions = []
    for index in range(n_sessions):
        client = cluster.add_client(f"c{index}")
        sessions.append((client, client.start_session("ledger-0")))
    cluster.run(2.0)
    schedule = poisson_crash_schedule(
        faults_rng,
        servers=sorted(cluster.servers),
        duration=duration,
        failure_rate=failure_rate,
        mean_downtime=mean_downtime,
        spare=spare,
    )
    inject(cluster, schedule)
    for client, handle in sessions:
        send_updates_periodically(
            cluster, client, handle, update_period, duration,
            lambda k: {"counter": k + 1},
        )
    cluster.run(duration + 1.0)
    for server_id in list(cluster.servers):
        if not cluster.servers[server_id].is_up():
            cluster.recover_server(server_id)
    cluster.run(settle)
    sent = 0
    lost = 0
    for _, handle in sessions:
        failed = set(handle.failed_update_counters)
        sent_counters = {c for _, c, _ in handle.updates_sent} - failed
        sent += len(sent_counters)
        lost += len(sent_counters - surviving_counters(cluster, handle.session_id))
    return sent, lost, schedule


def vod_cluster(
    n_servers: int,
    num_backups: int,
    propagation_period: float,
    seed: int,
    frame_rate: float = 10.0,
    movie_seconds: float = 600.0,
    replication: int | None = None,
    n_movies: int = 1,
    uncertainty_policy=None,
    trace: bool = True,
) -> ServiceCluster:
    movies = {
        f"m{i}": build_movie(f"m{i}", duration_seconds=movie_seconds, frame_rate=frame_rate)
        for i in range(n_movies)
    }
    app = VodApplication(movies)
    kwargs = {
        "num_backups": num_backups,
        "propagation_period": propagation_period,
    }
    if uncertainty_policy is not None:
        kwargs["uncertainty_policy"] = uncertainty_policy
    cluster = ServiceCluster.build(
        n_servers=n_servers,
        units={unit: app for unit in movies},
        replication=replication if replication is not None else n_servers,
        policy=AvailabilityPolicy(**kwargs),
        seed=seed,
        trace=trace,
    )
    cluster.settle()
    return cluster


def send_updates_periodically(
    cluster: ServiceCluster,
    client,
    handle,
    period: float,
    duration: float,
    make_update,
) -> None:
    """Schedule ``make_update(k)`` sends every ``period`` for ``duration``."""
    count = int(duration / period)
    for k in range(count):
        at = cluster.sim.now + (k + 1) * period

        def send(k=k):
            if client.is_up():
                client.send_update(handle, make_update(k))

        cluster.sim.schedule_at(at, send)


def rng_for(seed: int, name: str) -> np.random.Generator:
    from repro.sim.rng import RngRegistry

    return RngRegistry(seed).stream(name)


__all__ = [
    "LedgerApplication",
    "LedgerState",
    "ledger_churn",
    "ledger_cluster",
    "rng_for",
    "send_updates_periodically",
    "surviving_counters",
    "vod_cluster",
]
