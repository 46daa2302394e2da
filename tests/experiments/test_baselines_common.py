"""Tests for the single-server baseline (E7's ``single-server``
configuration, built directly) and the experiments' shared machinery."""

from repro.core import AvailabilityPolicy, ServiceCluster
from repro.experiments.common import ledger_cluster, send_updates_periodically
from repro.services import VodApplication, build_movie


def _single_server_vod():
    movie = build_movie("m0", duration_seconds=60, frame_rate=10)
    cluster = ServiceCluster.build(
        n_servers=1,
        units={"m0": VodApplication({"m0": movie})},
        replication=1,
        policy=AvailabilityPolicy(num_backups=0, propagation_period=0.5),
    )
    cluster.settle()
    return cluster


class TestBaselines:
    def test_single_server_cluster_serves(self):
        cluster = _single_server_vod()
        client = cluster.add_client("c0")
        handle = client.start_session("m0")
        cluster.run(3.0)
        assert handle.started
        assert len(cluster.servers) == 1

    def test_single_server_crash_is_total_outage(self):
        cluster = _single_server_vod()
        client = cluster.add_client("c0")
        handle = client.start_session("m0")
        cluster.run(3.0)
        cluster.crash_server("s0")
        count = len(handle.received)
        cluster.run(5.0)
        assert len(handle.received) == count


def test_send_updates_periodically_schedules_all():
    cluster = ledger_cluster(
        n_servers=2,
        policy=AvailabilityPolicy(num_backups=0, propagation_period=0.5),
        seed=9,
    )
    client = cluster.add_client("c0")
    handle = client.start_session("ledger-0")
    cluster.run(2.0)
    send_updates_periodically(
        cluster, client, handle, period=0.2, duration=2.0,
        make_update=lambda k: {"counter": k + 1},
    )
    cluster.run(3.0)
    assert handle.update_counter == 10
