"""Shared experiment machinery.

Provides the :class:`LedgerApplication` — a minimal service whose session
state is the *set of update counters received*, making per-update loss
directly observable — plus world builders and measurement helpers used by
several experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.core import AvailabilityPolicy, ServiceCluster
from repro.core.application import RequestResponseApplication
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
    num_backups: int,
    propagation_period: float,
    seed: int,
    replication: int | None = None,
    n_units: int = 1,
) -> ServiceCluster:
    app = LedgerApplication()
    units = {f"ledger-{i}": app for i in range(n_units)}
    cluster = ServiceCluster.build(
        n_servers=n_servers,
        units=units,
        replication=replication if replication is not None else n_servers,
        policy=AvailabilityPolicy(
            num_backups=num_backups, propagation_period=propagation_period
        ),
        seed=seed,
        trace=False,
    )
    cluster.settle()
    return cluster


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
    "ledger_cluster",
    "rng_for",
    "send_updates_periodically",
    "surviving_counters",
    "vod_cluster",
]
