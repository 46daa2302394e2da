"""E2 — the cost side of the tradeoff: per-server load vs parameters.

Paper claim (Section 4): "increasing either of these factors places more
work on each server.  Whenever client database information is propagated,
each server in the content group must process it; when the session groups
become larger, each server is a backup in more groups, and must therefore
receive more client requests (however, the work is merely receiving and
recording the request; only the primary responds)."

Method: a fault-free cluster streams VoD to a fixed session population
while clients send periodic context updates; we count, per server and
second, the propagation messages processed and the client updates received
as backup, sweeping the number of backups and the propagation period.  The
closed-form load model is printed alongside.
"""

from __future__ import annotations

from repro.analysis.availability import per_server_load
from repro.metrics.report import Table
from repro.experiments.common import send_updates_periodically, vod_cluster

N_SERVERS = 4
N_SESSIONS = 8
FRAME_RATE = 10.0
UPDATE_PERIOD = 1.0


def _one_cell(seed: int, num_backups: int, period: float, duration: float):
    cluster = vod_cluster(
        n_servers=N_SERVERS,
        num_backups=num_backups,
        propagation_period=period,
        seed=seed,
        frame_rate=FRAME_RATE,
        movie_seconds=3600,
        trace=False,
    )
    clients = []
    handles = []
    for index in range(N_SESSIONS):
        client = cluster.add_client(f"c{index}")
        handle = client.start_session("m0")
        clients.append(client)
        handles.append(handle)
    cluster.run(3.0)
    # zero counters after warm-up so only steady state is measured
    for server in cluster.servers.values():
        server.counters.clear()
    cluster.network.reset_stats()
    for client, handle in zip(clients, handles):
        send_updates_periodically(
            cluster,
            client,
            handle,
            period=UPDATE_PERIOD,
            duration=duration,
            make_update=lambda k: {"op": "skip", "to": 100 + k},
        )
    cluster.run(duration)

    per_server = []
    for server_id, server in sorted(cluster.servers.items()):
        propagations = server.counters["propagations_processed"] / duration
        backup_updates = server.counters["updates_backup"] / duration
        primary_updates = server.counters["updates_primary"] / duration
        responses = server.counters["responses_sent"] / duration
        # codec bytes of the propagations this member processed per second
        prop_bytes = server.counters["propagation_bytes_processed"] / duration
        per_server.append(
            (propagations, backup_updates, primary_updates, responses, prop_bytes)
        )
    n = len(per_server)
    return tuple(sum(values[i] for values in per_server) / n for i in range(5))


def run(seed: int = 0, fast: bool = False) -> list[Table]:
    backups_grid = [0, 2] if fast else [0, 1, 2, 3]
    period_grid = [0.25, 1.0] if fast else [0.1, 0.25, 0.5, 1.0, 2.0]
    duration = 8.0 if fast else 20.0

    table = Table(
        title="E2: per-server load (msgs/s) vs backups and propagation period",
        columns=[
            "backups",
            "period_s",
            "propagations",
            "prop_bytes_s",
            "backup_updates",
            "primary_updates",
            "responses",
            "pred_propagations",
            "pred_backup_updates",
        ],
    )
    for num_backups in backups_grid:
        for period in period_grid:
            (
                propagations,
                backup_updates,
                primary_updates,
                responses,
                prop_bytes,
            ) = _one_cell(seed, num_backups, period, duration)
            predicted = per_server_load(
                n_sessions=N_SESSIONS,
                n_servers=N_SERVERS,
                content_group_size=N_SERVERS,
                propagation_period=period,
                num_backups=num_backups,
                update_rate=1.0 / UPDATE_PERIOD,
                response_rate=FRAME_RATE,
            )
            table.add_row(
                num_backups,
                period,
                propagations,
                prop_bytes,
                backup_updates,
                primary_updates,
                responses,
                predicted["propagation"],
                predicted["backup_updates"],
            )
    table.add_note(
        "claim: propagation processing rises as the period shrinks; backup "
        "update load rises with the number of backups; responses are "
        "unaffected (only the primary responds).  prop_bytes_s is the codec "
        "bytes of the propagations each server processed per second: a VoD "
        "delta costs about what a full snapshot does, so bytes are linear "
        "in the propagation count"
    )
    return [table]
