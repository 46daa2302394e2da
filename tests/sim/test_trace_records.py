"""A trace record is four column entries, not an object: a traced run
leaves no ``TraceEvent`` behind, and every delivery of one sender and kind
shares one detail dict.  Events are still what readers get, built on
read."""

import gc

from repro.core.service import ServiceCluster
from repro.services import VodApplication, build_movie
from repro.sim.trace import TraceEvent, TraceLog


def _traced_cluster():
    movies = {"m0": build_movie("m0", duration_seconds=10.0, frame_rate=10.0)}
    app = VodApplication(movies)
    cluster = ServiceCluster.build(n_servers=3, units={"m0": app}, replication=3)
    cluster.settle()
    cluster.add_client("c0").start_session("m0")
    cluster.run(1.0)
    return cluster


def test_a_traced_run_holds_no_trace_events():
    # the collector stays off during the run: a pass would untrack tuples
    # of untracked items, and a stored event could hide from the count
    gc.collect()
    gc.disable()
    try:
        cluster = _traced_cluster()
        assert not any(type(obj) is TraceEvent for obj in gc.get_objects())
    finally:
        gc.enable()
    delivered = cluster.trace.count("net.deliver")
    assert delivered > 100
    # reading builds them, and they are what the log holds
    assert len(cluster.trace.select(category="net.deliver")) == delivered


def test_deliveries_of_one_sender_and_kind_share_their_detail():
    cluster = _traced_cluster()
    by_pair: dict[tuple, set[int]] = {}
    for event in cluster.trace.in_categories("net.deliver"):
        detail = event.detail
        by_pair.setdefault((detail["sender"], detail["kind"]), set()).add(id(detail))
    assert len(by_pair) > 1
    assert all(len(ids) == 1 for ids in by_pair.values())
    assert cluster.trace.count("net.deliver") > len(by_pair)


def test_times_come_back_as_given():
    log = TraceLog()
    log.record(3, "a", "x")
    log.record(0.5, "a", "x")
    times = [event.time for event in log]
    assert times == [3, 0.5]
    assert type(times[0]) is int and type(log.select(until=3)[0].time) is int
