"""Unit tests for the simulated network (delivery, loss, FIFO, accounting)."""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.latency import FixedLatency, UniformLatency
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.topology import Topology
from repro.sim.trace import TraceLog


class Sink:
    """A minimal attached endpoint that records deliveries."""

    def __init__(self, network, node_id, up=True):
        self.node_id = node_id
        self.up = up
        self.received = []
        network.attach(node_id, self.received.append, lambda: self.up)


@pytest.fixture
def net():
    sim = Simulator()
    return Network(sim, Topology(), FixedLatency(0.01))


def test_basic_delivery(net):
    a = Sink(net, "a")
    b = Sink(net, "b")
    net.send("a", "b", {"x": 1}, kind="data")
    net.sim.run()
    assert len(b.received) == 1
    msg = b.received[0]
    assert msg.payload == {"x": 1}
    assert msg.sender == "a"
    assert msg.kind == "data"
    assert net.sim.now == pytest.approx(0.01)
    assert a.received == []


def test_delivery_to_self(net):
    a = Sink(net, "a")
    net.send("a", "a", "loop")
    net.sim.run()
    assert [m.payload for m in a.received] == ["loop"]


def test_fifo_per_pair_even_with_jittered_latency():
    sim = Simulator()
    rng = RngRegistry(7).stream("latency")
    net = Network(sim, Topology(), UniformLatency(0.001, 0.1, rng))
    Sink(net, "a")
    b = Sink(net, "b")
    for i in range(50):
        net.send("a", "b", i)
    sim.run()
    assert [m.payload for m in b.received] == list(range(50))


def test_fifo_not_enforced_across_pairs():
    # Different senders may interleave arbitrarily; only per-pair order holds.
    sim = Simulator()
    net = Network(sim, Topology(), FixedLatency(0.01))
    Sink(net, "a")
    Sink(net, "b")
    c = Sink(net, "c")
    net.send("a", "c", "a1")
    net.send("b", "c", "b1")
    net.send("a", "c", "a2")
    sim.run()
    payloads = [m.payload for m in c.received]
    assert payloads.index("a1") < payloads.index("a2")


def test_drop_when_disconnected_at_send(net):
    Sink(net, "a")
    b = Sink(net, "b")
    net.topology.partition({"a"}, {"b"})
    net.send("a", "b", "lost")
    net.sim.run()
    assert b.received == []
    assert net.total_dropped == 1


def test_drop_when_partition_forms_in_flight(net):
    Sink(net, "a")
    b = Sink(net, "b")
    net.send("a", "b", "in-flight")
    net.sim.schedule(0.005, lambda: net.topology.partition({"a"}, {"b"}))
    net.sim.run()
    assert b.received == []
    assert net.total_dropped == 1


def test_delivered_if_partition_forms_after_arrival(net):
    Sink(net, "a")
    b = Sink(net, "b")
    net.send("a", "b", "made-it")
    net.sim.schedule(0.02, lambda: net.topology.partition({"a"}, {"b"}))
    net.sim.run()
    assert [m.payload for m in b.received] == ["made-it"]


def test_drop_when_receiver_down_at_arrival(net):
    Sink(net, "a")
    b = Sink(net, "b")
    net.send("a", "b", "too-late")
    b.up = False
    net.sim.run()
    assert b.received == []
    assert net.total_dropped == 1


def test_drop_when_receiver_unknown(net):
    Sink(net, "a")
    net.send("a", "ghost", "nobody-home")
    net.sim.run()
    assert net.total_dropped == 1


def test_multicast_reaches_all_receivers(net):
    Sink(net, "a")
    b = Sink(net, "b")
    c = Sink(net, "c")
    net.multicast("a", ["b", "c"], "hello")
    net.sim.run()
    assert [m.payload for m in b.received] == ["hello"]
    assert [m.payload for m in c.received] == ["hello"]


def test_multicast_include_self_flag(net):
    a = Sink(net, "a")
    b = Sink(net, "b")
    net.multicast("a", ["a", "b"], "x", include_self=False)
    net.sim.run()
    assert a.received == []
    assert len(b.received) == 1


def test_accounting_by_kind(net):
    Sink(net, "a")
    Sink(net, "b")
    net.send("a", "b", 1, kind="heartbeat", size=10)
    net.send("a", "b", 2, kind="heartbeat", size=10)
    net.send("a", "b", 3, kind="data", size=100)
    net.sim.run()
    assert net.sent_count("a") == 3
    assert net.sent_count("a", "heartbeat") == 2
    assert net.received_count("b", "data") == 1
    assert net.received_bytes("b") == 120
    assert net.kinds_received("b") == {"heartbeat": 2, "data": 1}


def test_reset_stats(net):
    Sink(net, "a")
    Sink(net, "b")
    net.send("a", "b", 1)
    net.sim.run()
    net.reset_stats()
    assert net.sent_count("a") == 0
    assert net.total_sent == 0


def test_trace_records_delivery_and_drop():
    sim = Simulator()
    trace = TraceLog()
    net = Network(sim, Topology(), FixedLatency(0.01), trace=trace)
    Sink(net, "a")
    Sink(net, "b")
    net.send("a", "b", 1, kind="data")
    sim.run()
    net.topology.cut_link("a", "b")
    net.send("a", "b", 2, kind="data")
    sim.run()
    assert trace.count("net.deliver") == 1
    assert trace.count("net.drop") == 1
    drop = trace.select(category="net.drop")[0]
    assert drop.detail["reason"] == "disconnected-at-send"


# ----------------------------------------------------------------------
# chaos adversity: duplication, reordering, link delay spikes (held by
# the topology, drawn by the network)
# ----------------------------------------------------------------------
def _chaos_net():
    sim = Simulator()
    rng = RngRegistry(11).stream("chaos")
    return Network(sim, Topology(), FixedLatency(0.01), chaos_rng=rng)


def test_duplication_and_reordering_require_seeded_rng(net):
    # determinism guard: unseeded adversity would make runs irreproducible
    with pytest.raises(ValueError, match="chaos_rng"):
        net.topology.set_duplication(0.2)
    with pytest.raises(ValueError, match="chaos_rng"):
        net.topology.set_reordering(0.2)
    net.topology.set_duplication(0.0)  # switching OFF never needs randomness
    net.topology.set_reordering(0.0)


def test_adversity_rejects_bad_parameters():
    net = _chaos_net()
    with pytest.raises(ValueError):
        net.topology.set_duplication(1.0)
    with pytest.raises(ValueError):
        net.topology.set_duplication(-0.1)
    with pytest.raises(ValueError):
        net.topology.set_reordering(0.5, window=-0.01)


def test_duplication_delivers_extra_copies():
    net = _chaos_net()
    Sink(net, "a")
    b = Sink(net, "b")
    net.topology.set_duplication(0.5)
    for i in range(200):
        net.send("a", "b", i)
    net.sim.run()
    assert net.total_duplicated > 0
    assert len(b.received) == 200 + net.total_duplicated
    # duplication only echoes, it never loses the original
    assert {m.payload for m in b.received} == set(range(200))


def test_reordering_breaks_per_pair_fifo():
    net = _chaos_net()
    Sink(net, "a")
    b = Sink(net, "b")
    net.topology.set_reordering(0.5, window=0.2)
    for i in range(100):
        net.send("a", "b", i)
    net.sim.run()
    payloads = [m.payload for m in b.received]
    assert net.total_reordered > 0
    assert payloads != sorted(payloads)  # FIFO actually violated
    assert set(payloads) == set(range(100))  # ...but nothing lost


def test_link_delay_spike_and_restore(net):
    Sink(net, "a")
    b = Sink(net, "b")
    net.topology.set_link_delay("a", "b", 0.5)
    net.send("a", "b", "slow")
    net.sim.run()
    assert net.sim.now == pytest.approx(0.51)
    net.topology.clear_link_delay("a", "b")
    net.send("a", "b", "fast")
    net.sim.run()
    assert net.sim.now == pytest.approx(0.52)
    assert [m.payload for m in b.received] == ["slow", "fast"]


def test_clear_adversity_lifts_everything():
    net = _chaos_net()
    Sink(net, "a")
    Sink(net, "b")
    net.topology.set_duplication(0.3)
    net.topology.set_reordering(0.3, window=0.1)
    net.topology.set_link_delay("a", "b", 1.0)
    net.topology.clear_all()
    assert net.topology.duplicate_probability == 0.0
    assert net.topology.reorder_probability == 0.0
    net.send("a", "b", "x")
    net.sim.run()
    assert net.sim.now == pytest.approx(0.01)  # spike lifted too


# ----------------------------------------------------------------------
# per-reason drop accounting
# ----------------------------------------------------------------------
def test_dropped_count_by_reason_and_node(net):
    Sink(net, "a")
    b = Sink(net, "b")
    c = Sink(net, "c")

    # reason 1: disconnected at send time
    net.topology.partition({"a"}, {"b", "c"})
    net.send("a", "b", "never-leaves")
    net.sim.run()
    net.topology.heal_partition()

    # reason 2: partition forms while in flight
    net.send("a", "b", "dies-mid-air")
    net.sim.schedule(0.005, lambda: net.topology.partition({"a"}, {"b", "c"}))
    net.sim.run()
    net.topology.heal_partition()

    # reason 3: receiver down at arrival
    net.send("a", "c", "nobody-listening")
    c.up = False
    net.sim.run()

    assert net.dropped_count() == 3
    assert net.dropped_count(reason="disconnected-at-send") == 1
    assert net.dropped_count(reason="disconnected-in-flight") == 1
    assert net.dropped_count(reason="receiver-down") == 1
    assert net.dropped_count(reason="random-loss") == 0
    assert net.drop_reasons() == {
        "disconnected-at-send": 1,
        "disconnected-in-flight": 1,
        "receiver-down": 1,
    }
    # sender-scoped filtering: all three losses were sent by "a"
    assert net.dropped_count(node="a") == 3
    assert net.dropped_count(reason="receiver-down", node="a") == 1
    assert net.dropped_count(node="b") == 0
    assert b.received == []


def test_random_loss_counted_with_reason():
    sim = Simulator()
    rng = RngRegistry(3).stream("loss")
    net = Network(sim, Topology(), FixedLatency(0.01), loss_probability=0.5, loss_rng=rng)
    Sink(net, "a")
    b = Sink(net, "b")
    for i in range(100):
        net.send("a", "b", i)
    sim.run()
    lost = net.dropped_count(reason="random-loss")
    assert lost > 0
    assert lost == net.total_dropped
    assert len(b.received) == 100 - lost


# ----------------------------------------------------------------------
# the link fast path: per-link fault records, block-drawn latency
# ----------------------------------------------------------------------
#: (verb that cuts a -> b, verb that lifts it), each a link-model call
_CUT_AND_LIFT = {
    "partition/heal_partition": (
        lambda net: net.topology.partition(["a"], ["b"]),
        lambda net: net.topology.heal_partition(),
    ),
    "partition/clear_all": (
        lambda net: net.topology.partition(["a"], ["b"]),
        lambda net: net.topology.clear_all(),
    ),
    "cut_link/restore_link": (
        lambda net: net.topology.cut_link("a", "b"),
        lambda net: net.topology.restore_link("a", "b"),
    ),
    "one-way cut_link/clear_all": (
        lambda net: net.topology.cut_link("a", "b", symmetric=False),
        lambda net: net.topology.clear_all(),
    ),
}


@pytest.mark.parametrize("verbs", sorted(_CUT_AND_LIFT))
def test_a_fault_overrides_a_warm_verdict(net, verbs):
    cut, lift = _CUT_AND_LIFT[verbs]
    Sink(net, "a")
    b = Sink(net, "b")
    net.send("a", "b", "warm")
    net.sim.run()
    assert [m.payload for m in b.received] == ["warm"]  # a -> b cached: connected

    net.send("a", "b", "in flight")
    cut(net)
    net.send("a", "b", "at send")
    assert net.drop_reasons() == {"disconnected-at-send": 1}
    net.sim.run()
    assert net.drop_reasons() == {
        "disconnected-at-send": 1,
        "disconnected-in-flight": 1,
    }

    # and the reverse: a -> b is now cached as cut
    lift(net)
    net.send("a", "b", "healed")
    net.sim.run()
    assert [m.payload for m in b.received] == ["warm", "healed"]
    assert net.total_dropped == 2


@pytest.mark.parametrize("verb", ["set_link_delay", "set_duplication", "set_reordering"])
def test_the_other_fault_verbs_keep_a_warm_link_connected(verb):
    net = _chaos_net()
    Sink(net, "a")
    b = Sink(net, "b")
    net.send("a", "b", "warm")
    net.sim.run()
    if verb == "set_link_delay":
        net.topology.set_link_delay("a", "b", 0.5)
    else:
        getattr(net.topology, verb)(0.0)
    net.send("a", "b", "after")
    net.sim.run()
    assert [m.payload for m in b.received] == ["warm", "after"]
    # the delay, consulted only while some link has one, applied at once
    assert net.sim.now == pytest.approx(0.52 if verb == "set_link_delay" else 0.02)


class _CountingTopology(Topology):
    def __init__(self):
        super().__init__()
        self.asked = []

    def connected(self, sender, receiver):
        self.asked.append((sender, receiver))
        return super().connected(sender, receiver)


def test_connected_is_asked_once_per_ordered_pair_per_generation():
    topology = _CountingTopology()
    net = Network(Simulator(), topology, FixedLatency(0.01))
    nodes = ["a", "b", "c"]
    for node in nodes:
        Sink(net, node)

    def three_rounds():
        for _ in range(3):
            for sender in nodes:
                net.multicast(sender, nodes, "x")
            net.sim.run()

    three_rounds()  # 27 sends and 27 deliveries over 9 ordered pairs
    assert sorted(topology.asked) == sorted((s, r) for s in nodes for r in nodes)
    topology.cut_link("a", "b")
    three_rounds()
    assert len(topology.asked) == 18 and len(set(topology.asked)) == 9
    assert net.total_dropped == 6  # a -> b and b -> a, three rounds


class _CountingGenerator:
    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def uniform(self, low, high, size=None):
        self.calls += 1
        return self._rng.uniform(low, high, size)


def test_1024_sends_cost_two_generator_calls():
    rng = _CountingGenerator(3)
    net = Network(Simulator(), Topology(), UniformLatency(0.001, 0.002, rng))
    Sink(net, "a")
    b = Sink(net, "b")
    for i in range(1024):
        net.send("a", "b", i)
    net.sim.run()
    assert len(b.received) == 1024
    assert rng.calls == 2


# ----------------------------------------------------------------------
# routes: what a message resolves once and carries to its delivery
# ----------------------------------------------------------------------
def test_messages_in_flight_across_reset_stats_count_after_it(net):
    """E2 resets the accounting at its warm-up cut with messages in
    flight: their deliveries and drops count after the cut, their sends
    before it, and a kind nothing touched since is not reported."""
    Sink(net, "a")
    Sink(net, "b")
    down = Sink(net, "c", up=False)
    net.send("a", "b", 1, kind="data", size=10)
    net.send("a", "b", 2, kind="warm", size=5)
    net.sim.run()  # "warm" has a route now, and nothing in flight
    net.send("a", "b", 3, kind="data", size=10)
    net.send("a", "c", 4, kind="data", size=7)
    net.reset_stats()
    assert net.sent_kind_stats("a") == {} and net.kinds_received("b") == {}
    net.sim.run()
    assert net.received_count("b") == 1 and net.received_bytes("b") == 10
    assert net.kinds_received("b") == {"data": 1}
    assert net.total_delivered == 1 and net.total_sent == 0
    assert net.sent_count("a") == 0
    assert net.sent_kind_stats("a") == {"data": (0, 0)}  # a drop touched it
    assert net.dropped_count(node="a") == net.dropped_count("receiver-down") == 1
    assert down.received == []
    net.send("a", "b", 5, kind="warm", size=5)
    net.sim.run()
    assert net.sent_kind_stats("a") == {"data": (0, 0), "warm": (1, 5)}
    assert net.kinds_received("b") == {"data": 1, "warm": 1}


def test_a_message_in_flight_to_a_detached_node_is_dropped(net):
    Sink(net, "a")
    b = Sink(net, "b")
    net.send("a", "b", 1)
    net.detach("b")
    net.sim.run()
    assert b.received == []
    assert net.drop_reasons() == {"receiver-down": 1}


def test_a_message_in_flight_from_a_detached_node_meets_the_link_as_it_is_now(net):
    # a and b share a partition component; once a is detached it belongs
    # to none, so its message in flight no longer crosses
    Sink(net, "a")
    b = Sink(net, "b")
    Sink(net, "c")
    net.topology.partition(["a", "b"])
    net.send("a", "b", 1)
    net.send("c", "b", 2)  # c is in no component either: cut off at send
    net.detach("a")
    net.sim.run()
    assert b.received == []
    assert net.drop_reasons() == {
        "disconnected-at-send": 1,
        "disconnected-in-flight": 1,
    }


def test_messages_in_flight_are_heap_entries_not_events():
    """The floor of a simulated message: a delivery in flight is one heap
    tuple holding the network's method, the route and the envelope — no
    ``Event`` and no ``functools.partial`` per message."""
    import functools
    import gc

    from repro.sim.engine import Event

    sim = Simulator()
    net = Network(sim, Topology(), FixedLatency(0.01), trace=TraceLog())
    for node in "abc":
        Sink(net, node)
    gc.collect()
    gc.disable()
    try:
        for i in range(300):
            net.send("abc"[i % 3], "abc"[(i + 1) % 3], i, kind=f"k{i % 2}")
        mine = [
            obj
            for obj in gc.get_objects()
            if (type(obj) is Event and obj._sim is sim)
            or (
                type(obj) is functools.partial
                and getattr(obj.func, "__self__", None) is net
            )
        ]
    finally:
        gc.enable()
    assert mine == []
    assert sim.pending_events == len(sim._queue) == 300
    assert {len(entry) for entry in sim._queue} == {5}
    assert len(net._routes) == 6  # one per (sender, receiver, kind)
    sim.run()
    assert net.total_delivered == 300
