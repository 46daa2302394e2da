"""Tests for preemptive load-balancing migration (Section 3.1)."""

import pytest

from repro.core import AvailabilityPolicy, ServiceCluster
from repro.core.selection import jain_fairness
from repro.services import VodApplication, build_movie


def skewed_cluster():
    """All sessions land on s0/s1 (s2 joins later without a rebalance)."""
    movie = build_movie("m0", duration_seconds=600, frame_rate=5)
    cluster = ServiceCluster.build(
        n_servers=3,
        units={"m0": VodApplication({"m0": movie})},
        replication=3,
        policy=AvailabilityPolicy(num_backups=1, propagation_period=0.5),
        seed=23,
        trace=False,
    )
    cluster.crash_server("s2")
    cluster.settle()
    handles = []
    for index in range(8):
        client = cluster.add_client(f"c{index}")
        handles.append(client.start_session("m0"))
    cluster.run(4.0)
    # sabotage: no member starts the state exchange a join triggers, so s2
    # rejoins the content group with no records and no roles
    for server in cluster.servers.values():
        server._begin_exchange = lambda unit, view: None
    cluster.recover_server("s2")
    cluster.run(5.0)
    for server in cluster.servers.values():
        del server._begin_exchange
    return cluster, handles


def primary_counts(cluster, handles):
    counts = {}
    for handle in handles:
        for primary in cluster.primaries_of(handle.session_id):
            counts[primary] = counts.get(primary, 0) + 1
    return counts


def test_skew_exists_without_rebalance():
    cluster, handles = skewed_cluster()
    counts = primary_counts(cluster, handles)
    assert counts.get("s2", 0) == 0  # the ablation left s2 idle


def test_preemptive_rebalance_evens_load():
    cluster, handles = skewed_cluster()
    cluster.servers["s0"].request_rebalance("m0")
    cluster.run(5.0)
    counts = primary_counts(cluster, handles)
    assert jain_fairness(list(counts.values())) > 0.95
    assert counts.get("s2", 0) >= 2


def test_preemptive_migration_preserves_context():
    cluster, handles = skewed_cluster()
    clients = list(cluster.clients.values())
    for index, handle in enumerate(handles):
        clients[index].send_update(handle, {"op": "skip", "to": 1000 + index})
    cluster.run(1.0)
    cluster.servers["s1"].request_rebalance("m0")
    cluster.run(5.0)
    for index, handle in enumerate(handles):
        tail = [r.index for r in handle.received][-3:]
        assert tail and all(i >= 1000 for i in tail), (index, tail)


def test_rebalance_keeps_single_primary_everywhere():
    cluster, handles = skewed_cluster()
    cluster.servers["s0"].request_rebalance("m0")
    cluster.run(5.0)
    for handle in handles:
        assert len(cluster.primaries_of(handle.session_id)) == 1
    cluster.monitor.check_all()


def test_rebalance_on_unhosted_unit_rejected():
    cluster, handles = skewed_cluster()
    with pytest.raises(ValueError):
        cluster.servers["s0"].request_rebalance("nope")


def test_rebalance_noop_when_balanced():
    cluster, handles = skewed_cluster()
    cluster.servers["s0"].request_rebalance("m0")
    cluster.run(5.0)
    before = primary_counts(cluster, handles)
    cluster.servers["s0"].request_rebalance("m0")
    cluster.run(5.0)
    assert primary_counts(cluster, handles) == before
