"""E6 — takeover paths: immediate (failure-only) vs exchange (join).

Paper claim (Section 3.4): "If the content group membership change
notification reflects server failures only, then virtual synchrony
semantics allow the servers to immediately reach a consistent decision as
to which clients each server will serve *without exchanging additional
information* ... The ability to re-distribute the clients immediately
without first exchanging messages allows servers to quickly take over
failed servers' clients.  If a content group change reflects the joining
of new servers ..., then all the servers first exchange information about
clients, and then use the exchanged information to decide."

Method: measure (a) the client-visible service gap when the primary
crashes (failure-only path) and when a rebalance migrates the session to
a joining server (exchange path), and (b) how many state-exchange
multicasts each path generated.
"""

from __future__ import annotations

from repro.analysis.montecarlo import MonteCarlo
from repro.metrics.report import Table
from repro.metrics.session_audit import service_gaps
from repro.experiments.common import vod_cluster


def _crash_failover(seed: int) -> dict:
    cluster = vod_cluster(
        n_servers=3, num_backups=1, propagation_period=0.5, seed=seed,
        frame_rate=20.0, movie_seconds=600, trace=False,
    )
    client = cluster.add_client("c0")
    handle = client.start_session("m0")
    cluster.run(4.0)
    before = sum(
        s.counters["exchanges_started"] for s in cluster.servers.values()
    )
    at = cluster.sim.now
    cluster.crash_server(cluster.primaries_of(handle.session_id)[0])
    cluster.run(8.0)
    gaps = service_gaps(handle, threshold=0.2)
    gap = max((b - a) for a, b in gaps if a >= at - 1.0) if gaps else 0.0
    exchanges = (
        sum(s.counters["exchanges_started"] for s in cluster.servers.values())
        - before
    )
    return {"gap_s": gap, "exchanges": exchanges}


def _join_migration(seed: int) -> dict:
    cluster = vod_cluster(
        n_servers=3, num_backups=1, propagation_period=0.5, seed=seed,
        frame_rate=20.0, movie_seconds=600, trace=False,
    )
    # Victim crashes first so its later recovery is a pure join that the
    # rebalance will use (sessions migrate toward the joiner).
    cluster.crash_server("s2")
    cluster.settle()
    clients = []
    handles = []
    for index in range(6):
        client = cluster.add_client(f"c{index}")
        handles.append(client.start_session("m0"))
        clients.append(client)
    cluster.run(4.0)
    before = sum(
        s.counters["exchanges_started"] for s in cluster.servers.values()
    )
    at = cluster.sim.now
    cluster.recover_server("s2")
    cluster.run(8.0)
    migrated = [
        handle
        for handle in handles
        if cluster.primaries_of(handle.session_id) == ["s2"]
    ]
    gap = 0.0
    for handle in migrated:
        gaps = service_gaps(handle, threshold=0.2)
        relevant = [(b - a) for a, b in gaps if a >= at - 1.0]
        if relevant:
            gap = max(gap, max(relevant))
    exchanges = (
        sum(s.counters["exchanges_started"] for s in cluster.servers.values())
        - before
    )
    return {
        "gap_s": gap,
        "exchanges": exchanges,
        "migrated": len(migrated),
    }


def run(seed: int = 0, fast: bool = False) -> list[Table]:
    reps = 2 if fast else 5
    table = Table(
        title="E6: takeover behaviour — failure-only vs join-type view change",
        columns=[
            "path",
            "client_gap_s",
            "state_exchange_mcasts",
            "migrated_sessions",
        ],
    )
    crash = MonteCarlo(fn=_crash_failover, n_reps=reps, base_seed=seed).run()
    join = MonteCarlo(fn=_join_migration, n_reps=reps, base_seed=seed + 1).run()
    table.add_row(
        "crash (immediate)",
        crash.aggregate("gap_s").mean,
        crash.aggregate("exchanges").mean,
        "-",
    )
    table.add_row(
        "join (exchange+rebalance)",
        join.aggregate("gap_s").mean,
        join.aggregate("exchanges").mean,
        join.aggregate("migrated").mean,
    )
    table.add_note(
        "claim: the failure path reallocates with zero exchange messages "
        "(virtual synchrony made the databases identical); the join path "
        "pays one exchange multicast per member but migrates smoothly "
        "(handoff), so its client gap stays small"
    )
    return [table]
