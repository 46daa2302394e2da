"""Shared experiment machinery.

Provides :func:`ledger_churn`, the one Section-4 loss run (E1, E7 and
E11) over the :mod:`repro.services.ledger` service, plus world builders
and measurement helpers used by several experiments.
"""

from __future__ import annotations

import numpy as np

from repro.core import AvailabilityPolicy, ServiceCluster
from repro.faults.generators import poisson_crash_schedule
from repro.faults.injector import inject
from repro.faults.schedule import FaultSchedule
from repro.gcs.settings import GcsSettings
from repro.services.content import build_movie
from repro.services.ledger import LedgerApplication, promised_and_lost
from repro.services.vod import VodApplication


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
    counts = [promised_and_lost(cluster, handle) for _, handle in sessions]
    return sum(sent for sent, _ in counts), sum(lost for _, lost in counts), schedule


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
    "ledger_churn",
    "ledger_cluster",
    "rng_for",
    "send_updates_periodically",
    "vod_cluster",
]
