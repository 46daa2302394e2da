"""E8 — fair redistribution of clients across membership changes.

Paper claims (Section 3.4): "Upon receiving the new view, the servers
evenly re-distribute the clients among them" and the join-time allocation
"is done deterministically based on the combined information, in such a
way as to balance the load fairly."

Method: a population of sessions spreads over the cluster; we record the
per-server primary counts and Jain's fairness index before a crash, after
the crash (survivors absorb the victims' sessions), and after the victim
rejoins (rebalance hands sessions back).  We also count how many sessions
migrated at the rejoin — fairness should be restored with only about
``sessions/servers`` migrations.
"""

from __future__ import annotations

from repro.core.selection import jain_fairness
from repro.metrics.report import Table
from repro.experiments.common import vod_cluster

N_SESSIONS = 24
N_SERVERS = 4


def _primary_counts(cluster, handles) -> dict[str, int]:
    counts: dict[str, int] = {s: 0 for s in cluster.servers if cluster.servers[s].is_up()}
    for handle in handles:
        primaries = cluster.primaries_of(handle.session_id)
        if primaries:
            counts[primaries[0]] = counts.get(primaries[0], 0) + 1
    return counts


def _assignment(cluster, handles) -> dict[str, str]:
    out = {}
    for handle in handles:
        primaries = cluster.primaries_of(handle.session_id)
        out[handle.session_id] = primaries[0] if primaries else "-"
    return out


def run(seed: int = 0, fast: bool = False) -> list[Table]:
    n_sessions = 12 if fast else N_SESSIONS
    cluster = vod_cluster(
        n_servers=N_SERVERS,
        num_backups=1,
        propagation_period=0.5,
        seed=seed,
        frame_rate=5.0,
        movie_seconds=3600,
        trace=False,
    )
    handles = []
    for index in range(n_sessions):
        client = cluster.add_client(f"c{index}")
        handles.append(client.start_session("m0"))
    cluster.run(4.0)

    table = Table(
        title="E8: load balance across membership changes "
        f"({n_sessions} sessions, {N_SERVERS} servers)",
        columns=["stage", "per_server_primaries", "jain_index", "migrations"],
    )

    before_counts = _primary_counts(cluster, handles)
    before_assign = _assignment(cluster, handles)
    table.add_row(
        "initial",
        str(dict(sorted(before_counts.items()))),
        jain_fairness(list(before_counts.values())),
        "-",
    )

    cluster.crash_server("s1")
    cluster.run(4.0)
    crash_counts = _primary_counts(cluster, handles)
    crash_assign = _assignment(cluster, handles)
    crash_migrations = sum(
        1 for sid in crash_assign if crash_assign[sid] != before_assign[sid]
    )
    table.add_row(
        "after crash of s1",
        str(dict(sorted(crash_counts.items()))),
        jain_fairness(list(crash_counts.values())),
        crash_migrations,
    )

    cluster.recover_server("s1")
    cluster.run(8.0)
    rejoin_counts = _primary_counts(cluster, handles)
    rejoin_assign = _assignment(cluster, handles)
    rejoin_migrations = sum(
        1 for sid in rejoin_assign if rejoin_assign[sid] != crash_assign[sid]
    )
    table.add_row(
        "after s1 rejoins",
        str(dict(sorted(rejoin_counts.items()))),
        jain_fairness(list(rejoin_counts.values())),
        rejoin_migrations,
    )
    table.add_note(
        "claims: only the victim's sessions move on the crash; fairness "
        "returns to ~1.0 after the rejoin with roughly sessions/servers "
        "migrations"
    )
    return [table]
