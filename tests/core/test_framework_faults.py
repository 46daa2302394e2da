"""Framework behaviour under faults: takeover, migration, partitions.

These tests exercise the scenarios of the paper's Section 4 analysis in
miniature; the experiment suite measures them quantitatively.
"""

from dataclasses import replace

import pytest

from repro.core import AvailabilityPolicy
from repro.core.responses import SkipUncertain
from repro.experiments.common import ledger_cluster
from repro.services.ledger import LedgerState
from tests.core.conftest import make_vod_cluster, start_streaming_session


# ---------------------------------------------------------------------------
# failure takeover
# ---------------------------------------------------------------------------


def test_primary_crash_fails_over(streaming):
    cluster, client, handle = streaming
    old_primary = cluster.primaries_of(handle.session_id)[0]
    cluster.crash_server(old_primary)
    cluster.run(4.0)
    primaries = cluster.primaries_of(handle.session_id)
    assert len(primaries) == 1
    assert primaries[0] != old_primary


def test_failover_prefers_backup(streaming):
    cluster, client, handle = streaming
    old_primary = cluster.primaries_of(handle.session_id)[0]
    backup = next(
        sid
        for sid, server in cluster.servers.items()
        if handle.session_id in server.backup_sessions()
    )
    cluster.crash_server(old_primary)
    cluster.run(4.0)
    assert cluster.primaries_of(handle.session_id) == [backup]


def test_stream_continues_after_failover(streaming):
    cluster, client, handle = streaming
    count_before = len(handle.received)
    cluster.crash_server(cluster.primaries_of(handle.session_id)[0])
    cluster.run(6.0)
    assert len(handle.received) > count_before + 20


def test_failover_duplicates_bounded_by_propagation_window(streaming):
    """ResendAll at 10 fps and T=0.5 s: expect roughly <= T * rate + a few
    detection-time frames of duplicates, not dozens (Section 3.1)."""
    cluster, client, handle = streaming
    cluster.crash_server(cluster.primaries_of(handle.session_id)[0])
    cluster.run(6.0)
    indices = handle.response_indices()
    duplicates = len(indices) - len(set(indices))
    assert 1 <= duplicates <= 15


def test_failover_no_frame_loss_with_resend_all(streaming):
    cluster, client, handle = streaming
    cluster.crash_server(cluster.primaries_of(handle.session_id)[0])
    cluster.run(6.0)
    indices = handle.response_indices()
    seen = set(indices)
    assert seen == set(range(max(seen) + 1))  # gap-free


def test_skip_policy_avoids_duplicates_but_loses_frames():
    cluster = make_vod_cluster(uncertainty_policy=SkipUncertain())
    client, handle = start_streaming_session(cluster)
    cluster.crash_server(cluster.primaries_of(handle.session_id)[0])
    cluster.run(6.0)
    indices = handle.response_indices()
    duplicates = len(indices) - len(set(indices))
    assert duplicates == 0
    missing = set(range(max(indices) + 1)) - set(indices)
    assert missing  # the uncertainty window was skipped


def test_client_update_survives_failover_via_backup(streaming):
    """The paper's key claim for backups: client context updates are not
    lost on migration to a backup."""
    cluster, client, handle = streaming
    client.send_update(handle, {"op": "skip", "to": 800})
    cluster.run(0.1)  # update reaches session group; propagation hasn't run
    cluster.crash_server(cluster.primaries_of(handle.session_id)[0])
    cluster.run(5.0)
    tail = handle.response_indices()[-10:]
    assert all(index >= 800 for index in tail)


def test_promotion_keeps_the_backups_context_on_a_tie():
    """The tie rule of ``FrameworkServer.freshest_context``: a backup whose
    replayed log ties the unit-database record on ``freshness_key()`` is
    promoted with its own context, not the record's (DESIGN §6)."""
    cluster = ledger_cluster(
        n_servers=3,
        policy=AvailabilityPolicy(num_backups=1, propagation_period=100.0),
        seed=9,
    )
    client = cluster.add_client("c0")
    handle = client.start_session("ledger-0")
    cluster.run(2.0)
    primary = cluster.primaries_of(handle.session_id)[0]
    (holder,) = [s for s in cluster.servers.values() if handle.session_id in s.backups]
    record = holder.unit_dbs["ledger-0"].get(handle.session_id)
    holder.backups[handle.session_id].apply_update(1, {"counter": 1})
    tied = replace(
        record.snapshot, app_state=LedgerState("ledger-0", frozenset({2})), update_counter=1
    )
    assert holder.unit_dbs["ledger-0"].apply_propagation(handle.session_id, tied)
    own = holder.freshest_context("ledger-0", handle.session_id)
    assert own.freshness_key() == tied.freshness_key()
    assert own.app_state.counters == {1}
    assert holder.freshest_context("ledger-0", "no-such-session") is None

    cluster.crash_server(primary)
    cluster.run(4.0)
    assert cluster.primaries_of(handle.session_id) == [holder.server_id]
    assert holder.primaries[handle.session_id].ctx.app_state.counters == {1}


def test_update_lost_without_backups_in_window():
    """With num_backups=0 ([2]'s design), an update arriving just before
    the crash and after the last propagation can be lost."""
    cluster = make_vod_cluster(num_backups=0, propagation_period=5.0)
    client, handle = start_streaming_session(cluster)
    primary = cluster.primaries_of(handle.session_id)[0]
    # Deliver the update, then crash before the (5 s) propagation fires.
    client.send_update(handle, {"op": "skip", "to": 900})
    cluster.run(0.3)
    cluster.crash_server(primary)
    cluster.run(6.0)
    tail = handle.response_indices()[-5:]
    assert tail and all(index < 900 for index in tail)  # context regressed


def test_double_crash_with_two_backups():
    cluster = make_vod_cluster(n_servers=4, replication=4, num_backups=2)
    client, handle = start_streaming_session(cluster)
    for _ in range(2):
        primary = cluster.primaries_of(handle.session_id)[0]
        cluster.crash_server(primary)
        cluster.run(4.0)
    assert len(cluster.primaries_of(handle.session_id)) == 1
    count = len(handle.received)
    cluster.run(3.0)
    assert len(handle.received) > count


def test_total_content_group_crash_is_outage(streaming):
    cluster, client, handle = streaming
    for server_id in list(cluster.servers):
        cluster.crash_server(server_id)
    cluster.run(2.0)
    count = len(handle.received)
    cluster.run(5.0)
    assert len(handle.received) == count  # nobody can serve
    assert cluster.primaries_of(handle.session_id) == []


# ---------------------------------------------------------------------------
# recovery / join-type changes (state exchange)
# ---------------------------------------------------------------------------


def test_recovered_server_reintegrates(streaming):
    cluster, client, handle = streaming
    victim = cluster.primaries_of(handle.session_id)[0]
    cluster.crash_server(victim)
    cluster.run(4.0)
    cluster.recover_server(victim)
    cluster.run(6.0)
    # the recovered server has a merged database again
    db = cluster.servers[victim].unit_dbs["m0"]
    assert handle.session_id in db
    cluster.monitor.check_all()


def test_join_triggers_state_exchange(streaming):
    cluster, client, handle = streaming
    victim = next(
        sid
        for sid in cluster.servers
        if sid not in cluster.primaries_of(handle.session_id)
    )
    cluster.crash_server(victim)
    cluster.run(4.0)
    before = {
        sid: server.counters["exchanges_started"]
        for sid, server in cluster.servers.items()
    }
    cluster.recover_server(victim)
    cluster.run(6.0)
    started = sum(
        server.counters["exchanges_started"] - before[sid]
        for sid, server in cluster.servers.items()
    )
    assert started >= 2  # every member of the new view exchanges


def test_rebalance_distributes_to_joiner():
    cluster = make_vod_cluster(n_servers=3, replication=3)
    handles = []
    for i in range(9):
        client = cluster.add_client(f"c{i}")
        handles.append(client.start_session("m0"))
    cluster.run(4.0)
    cluster.crash_server("s2")
    cluster.run(4.0)
    cluster.recover_server("s2")
    cluster.run(8.0)
    counts = {}
    for handle in handles:
        primaries = cluster.primaries_of(handle.session_id)
        assert len(primaries) == 1
        counts[primaries[0]] = counts.get(primaries[0], 0) + 1
    assert counts.get("s2", 0) >= 2  # the joiner took a fair share


def test_controlled_migration_preserves_context():
    """A rebalance-driven migration (old primary alive) must not lose the
    client's context: the handoff carries the exact state."""
    cluster = make_vod_cluster(n_servers=3, replication=3)
    handles = []
    clients = []
    for i in range(6):
        client = cluster.add_client(f"c{i}")
        clients.append(client)
        handles.append(client.start_session("m0"))
    cluster.run(3.0)
    # park every session at a distinctive position
    for i, (client, handle) in enumerate(zip(clients, handles)):
        client.send_update(handle, {"op": "skip", "to": 400 + i})
    cluster.run(1.0)
    cluster.crash_server("s2")
    cluster.run(3.0)
    cluster.recover_server("s2")
    cluster.run(8.0)
    for i, handle in enumerate(handles):
        tail = handle.response_indices()[-3:]
        assert tail and all(index >= 400 for index in tail), (i, tail[-5:])


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def test_partition_majority_side_keeps_serving(streaming):
    cluster, client, handle = streaming
    primary = cluster.primaries_of(handle.session_id)[0]
    others = [s for s in cluster.servers if s != primary]
    # isolate the primary; client stays connected to the others
    cluster.partition({primary}, set(others) | {client.client_id})
    cluster.run(6.0)
    live_primaries = [
        s
        for s in cluster.primaries_of(handle.session_id)
        if s != primary
    ]
    assert len(live_primaries) == 1
    recent = [r for r in handle.received if r.time > cluster.sim.now - 2.0]
    assert recent and all(r.sender == live_primaries[0] for r in recent)


def test_partition_heal_restores_single_primary(streaming):
    cluster, client, handle = streaming
    primary = cluster.primaries_of(handle.session_id)[0]
    others = [s for s in cluster.servers if s != primary]
    cluster.partition({primary}, set(others) | {client.client_id})
    cluster.run(5.0)
    cluster.heal()
    cluster.run(8.0)
    assert len(cluster.primaries_of(handle.session_id)) == 1
    cluster.monitor.check_all()


def test_non_transitive_cut_can_create_two_primaries():
    """The WAN scenario of Section 4: two servers cannot talk to each
    other but both can talk to the client -> both may serve the session."""
    cluster = make_vod_cluster(n_servers=2, replication=2, num_backups=1)
    client, handle = start_streaming_session(cluster)
    topo = cluster.network.topology
    topo.cut_link("s0", "s1")  # client keeps both links
    cluster.run(6.0)
    primaries = cluster.primaries_of(handle.session_id)
    assert len(primaries) == 2
    senders = {r.sender for r in handle.received if r.time > cluster.sim.now - 2.0}
    assert len(senders) == 2  # the client hears two 'primaries'
