"""Tests for trace-based primary interval analysis, on a live cluster."""

from repro.metrics.session_audit import primary_intervals
from repro.metrics.windows import multi_primary_time, no_primary_time
from tests.core.conftest import make_vod_cluster, start_streaming_session


def test_single_primary_has_one_open_interval():
    cluster = make_vod_cluster()
    client, handle = start_streaming_session(cluster)
    intervals = primary_intervals(cluster, handle.session_id)
    assert len(intervals) == 1
    ((server, spans),) = intervals.items()
    assert len(spans) == 1
    start, end = spans[0]
    assert end == cluster.sim.now


def test_crash_closes_interval_and_opens_new_one():
    cluster = make_vod_cluster()
    client, handle = start_streaming_session(cluster)
    victim = cluster.primaries_of(handle.session_id)[0]
    cluster.crash_server(victim)
    cluster.run(4.0)
    intervals = primary_intervals(cluster, handle.session_id)
    assert len(intervals) == 2
    victim_spans = intervals[victim]
    assert victim_spans[0][1] < cluster.sim.now  # closed at crash


def test_no_multi_primary_in_clean_failover():
    cluster = make_vod_cluster()
    client, handle = start_streaming_session(cluster)
    cluster.crash_server(cluster.primaries_of(handle.session_id)[0])
    cluster.run(4.0)
    assert multi_primary_time(cluster, handle.session_id) == 0.0


def test_no_primary_time_covers_takeover_gap():
    cluster = make_vod_cluster()
    client, handle = start_streaming_session(cluster)
    start = cluster.sim.now
    cluster.crash_server(cluster.primaries_of(handle.session_id)[0])
    cluster.run(4.0)
    gap = no_primary_time(cluster, handle.session_id, start, cluster.sim.now)
    assert 0.0 < gap < 2.0  # detection + reallocation, well under 2s


def test_no_primary_time_zero_when_stable():
    cluster = make_vod_cluster()
    client, handle = start_streaming_session(cluster)
    start = cluster.sim.now
    cluster.run(3.0)
    assert no_primary_time(cluster, handle.session_id, start, cluster.sim.now) == 0.0


def test_multi_primary_during_non_transitive_cut():
    cluster = make_vod_cluster(n_servers=2, replication=2)
    client, handle = start_streaming_session(cluster)
    cluster.network.topology.cut_link("s0", "s1")
    cluster.run(6.0)
    assert multi_primary_time(cluster, handle.session_id) > 3.0
