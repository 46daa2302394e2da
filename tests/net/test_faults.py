"""The fault-injecting transport: severing, delay, chaos knobs, WAN
profiles, the fault plane, and the runtime control channel (fuzzed)."""

import asyncio
import json

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.faults.schedule import KINDS
from repro.net.codec import encode_frame
from repro.net.faults import (
    WAN_PROFILES,
    FaultControlServer,
    FaultPlane,
    FaultyTransport,
    wan_profile,
)
from repro.net.replay import ReplayTransport
from repro.net.transport import UdpLoopbackTransport, create_transport


def _run(coro):
    return asyncio.run(coro)


async def _wait_for(predicate, timeout=5.0, interval=0.01):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval)


async def _pair(seed=0):
    """Two faulty UDP transports wired to each other, under one plane."""
    ta = FaultyTransport(UdpLoopbackTransport("a"), seed=seed)
    tb = FaultyTransport(UdpLoopbackTransport("b"), seed=seed)
    await ta.start()
    await tb.start()
    ta.set_peer("b", *tb.address)
    tb.set_peer("a", *ta.address)
    plane = FaultPlane()
    plane.adopt("a", ta)
    plane.adopt("b", tb)
    return ta, tb


def test_passthrough_with_no_faults():
    async def scenario():
        ta, tb = await _pair()
        got = []
        tb.on_frame = got.append
        ta.send("b", b"hello")
        await _wait_for(lambda: got)
        await ta.close()
        await tb.close()
        assert got == [b"hello"]
        assert ta.faults.as_dict() == {
            "severed_drops": 0,
            "in_flight_killed": 0,
            "duplicated": 0,
            "reordered": 0,
            "delayed": 0,
        }

    _run(scenario())


def test_registry_has_faulty_backends():
    for name in ("faulty-tcp", "faulty-udp"):
        transport = create_transport(name, "x")
        assert isinstance(transport, FaultyTransport)


def test_sever_is_directional():
    async def scenario():
        ta, tb = await _pair()
        got_a, got_b = [], []
        ta.on_frame = got_a.append
        tb.on_frame = got_b.append
        ta.model.cut_link("a", "b", symmetric=False)
        ta.send("b", b"lost")
        tb.send("a", b"heard")  # the reverse direction still works
        await _wait_for(lambda: got_a)
        assert got_a == [b"heard"]
        assert got_b == []
        assert ta.faults.severed_drops == 1
        ta.model.restore_link("a", "b", symmetric=False)
        ta.send("b", b"healed")
        await _wait_for(lambda: got_b)
        await ta.close()
        await tb.close()
        assert got_b == [b"healed"]

    _run(scenario())


def test_sever_tags_are_independent_layers():
    async def scenario():
        ta, tb = await _pair()
        ta.model.partition(["a"], ["b"])
        ta.model.cut_link("a", "b")
        ta.model.heal_partition()
        # the cut layer still holds the link down
        got = []
        tb.on_frame = got.append
        ta.send("b", b"x")
        await asyncio.sleep(0.05)
        assert got == []
        ta.model.restore_link("a", "b")
        ta.send("b", b"y")
        await _wait_for(lambda: got)
        await ta.close()
        await tb.close()

    _run(scenario())


def test_same_seed_same_link_decisions():
    """The per-link RNG is a pure function of (seed, src, dst): two runs
    with the same seed duplicate exactly the same frame indices."""

    def decisions(seed):
        sent = []
        inner = ReplayTransport("a")
        inner.send = lambda peer, frame: sent.append(frame)
        transport = FaultyTransport(inner, seed=seed)
        transport.model.set_duplication(0.5)
        for index in range(64):
            transport.send("b", bytes([index]))
        return sent

    assert decisions(7) == decisions(7)
    assert decisions(7) != decisions(8)
    assert 64 < len(decisions(7)) < 128


def test_duplication_reaches_a_link_no_other_fault_touched():
    """Message adversity is cluster-wide, as in the simulator: a wrapper
    duplicates on every link, not only on links a partition, a cut or a
    delay already configured."""
    sent = []
    inner = ReplayTransport("a")
    inner.send = lambda peer, frame: sent.append(frame)
    plane = FaultPlane()
    transport = FaultyTransport(inner)
    plane.adopt("a", transport)
    plane.apply({"op": "duplicate", "probability": 0.99})
    for index in range(20):
        transport.send("b", bytes([index]))
    assert len(sent) > 20 and set(sent) == {bytes([i]) for i in range(20)}


def test_delay_holds_frames_and_duplicate_copies():
    async def scenario():
        ta, tb = await _pair()
        got = []
        tb.on_frame = got.append
        ta.model.set_link_delay("a", "b", 0.05, symmetric=False)
        ta.model.set_duplication(0.99)
        loop = asyncio.get_running_loop()
        started = loop.time()
        frame = encode_frame("slow")  # real framing so the batch splits
        ta.send("b", frame)
        await _wait_for(lambda: len(got) == 2)
        elapsed = loop.time() - started
        await ta.close()
        await tb.close()
        assert got == [frame, frame]
        assert elapsed >= 0.04
        assert ta.faults.delayed == 1
        assert ta.faults.duplicated == 1

    _run(scenario())


def test_sever_kills_in_flight_frames():
    async def scenario():
        ta, tb = await _pair()
        got = []
        tb.on_frame = got.append
        ta.model.set_link_delay("a", "b", 0.05)
        ta.send("b", b"doomed")
        ta.model.partition(["a"], ["b"])  # cut while the frame is in flight
        await asyncio.sleep(0.15)
        await ta.close()
        await tb.close()
        assert got == []
        assert ta.faults.in_flight_killed == 1

    _run(scenario())


def _severed(transport, peer):
    """Does ``transport`` drop what it sends to ``peer`` right now?"""
    before = transport.faults.severed_drops
    transport.send(peer, b"probe")
    return transport.faults.severed_drops > before


def test_plane_partition_uses_implicit_residual_component():
    """Unmentioned nodes share one implicit component — the link model's
    rule on both runtimes — rather than each being isolated alone."""
    transports = {n: FaultyTransport(ReplayTransport(n)) for n in "abcd"}
    plane = FaultPlane()
    for node, transport in transports.items():
        plane.adopt(node, transport)
    plane.apply({"op": "partition", "components": [["a"]]})

    def severed(src, dst):
        return _severed(transports[src], dst)

    assert severed("a", "b") and severed("b", "a")
    assert not severed("b", "c") and not severed("c", "d")
    plane.apply({"op": "heal"})
    assert not severed("a", "b")


def test_plane_heal_partition_leaves_cut_layer_alone():
    transports = {n: FaultyTransport(ReplayTransport(n)) for n in "ab"}
    plane = FaultPlane()
    for node, transport in transports.items():
        plane.adopt(node, transport)
    plane.apply({"op": "cut_link", "a": "a", "b": "b", "symmetric": False})
    plane.apply({"op": "partition", "components": [["a"], ["b"]]})
    plane.apply({"op": "heal"})
    assert _severed(transports["a"], "b")  # the cut survives
    assert not _severed(transports["b"], "a")
    plane.apply({"op": "restore_link", "a": "a", "b": "b", "symmetric": False})
    assert not _severed(transports["a"], "b")


def test_wan_profile_installs_latency_matrix():
    transports = {n: FaultyTransport(UdpLoopbackTransport(n)) for n in ("s0", "s1", "s2")}
    plane = FaultPlane()
    for node, transport in transports.items():
        plane.adopt(node, transport)
    profile = wan_profile("us-eu")
    assignment = profile.install(plane)
    # round-robin over sorted names: s0->us, s1->eu, s2->us
    assert assignment == {"s0": "us", "s1": "eu", "s2": "us"}
    intra = transports["s0"]._link("s2")
    inter = transports["s0"]._link("s1")
    assert intra.base_delay == profile.intra[0]
    assert inter.base_delay == profile.inter["eu-us"][0]
    assert profile.settings_factor > 1.0
    assert set(WAN_PROFILES) == {"us-eu", "global"}


def test_clear_all_lifts_faults_but_keeps_the_wan_matrix():
    """A heal lifts what a schedule injected; the WAN profile's base
    delay and jitter are the deployment's topology and survive it."""
    transports = {n: FaultyTransport(UdpLoopbackTransport(n)) for n in ("s0", "s1", "s2")}
    plane = FaultPlane()
    for node, transport in transports.items():
        plane.adopt(node, transport)
    profile = wan_profile("us-eu")
    profile.install(plane)
    pristine = plane.model.snapshot()
    for command in (
        {"op": "cut_link", "a": "s0", "b": "s1"},
        {"op": "partition", "components": [["s0"], ["s1", "s2"]]},
        {"op": "delay_link", "a": "s0", "b": "s2", "extra": 0.2},
        {"op": "duplicate", "probability": 0.1},
        {"op": "reorder", "probability": 0.1},
    ):
        plane.apply(command)
    assert plane.model.snapshot() != pristine
    plane.apply({"op": "clear_all"})
    assert plane.model.snapshot() == pristine
    region = {"s0": "us", "s1": "eu", "s2": "us"}
    for src, transport in transports.items():
        for dst, link in transport._links.items():
            expected = profile.link_delay(region[src], region[dst])
            assert (link.base_delay, link.jitter) == expected


def test_control_channel_applies_and_rejects_commands():
    async def scenario():
        ta, tb = await _pair()
        plane = FaultPlane()
        plane.adopt("a", ta)
        plane.adopt("b", tb)
        control = FaultControlServer(plane)
        host, port = await control.start()
        reader, writer = await asyncio.open_connection(host, port)

        async def command(obj):
            writer.write(json.dumps(obj).encode() + b"\n")
            await writer.drain()
            return json.loads(await reader.readline())

        # the schedule's own vocabulary: kind names and argument names
        assert (await command({"op": "cut_link", "a": "a", "b": "b"}))["ok"]
        assert not plane.model.connected("a", "b")
        assert not plane.model.connected("b", "a")
        assert (await command({"op": "delay_link", "a": "a", "b": "b", "extra": 0.1}))["ok"]
        assert plane.model.link("a", "b").extra_delay == 0.1
        snapshot = plane.model.snapshot()
        for bad, error in (
            ({"op": "no-such-op"}, "unknown fault kind"),
            ({"op": "cut_link", "src": "a", "dst": "b"}, "cut_link needs a"),
            ({"op": "duplicate", "probability": 1.5}, "must be in [0, 1)"),
            ({"op": "crash", "target": "a"}, "no arm"),
        ):
            reply = await command(bad)
            assert not reply["ok"] and error in reply["error"], (bad, reply)
        writer.write(b"not json\n")
        await writer.drain()
        assert not json.loads(await reader.readline())["ok"]
        assert plane.model.snapshot() == snapshot  # rejections change nothing
        assert (await command({"op": "clear_all"}))["ok"]
        assert plane.model.connected("a", "b")
        assert plane.model.link("a", "b").extra_delay == 0.0
        writer.close()
        await control.close()
        await ta.close()
        await tb.close()

    _run(scenario())


# ---------------------------------------------------------------------------
# the control-channel parser under arbitrary JSON objects
# ---------------------------------------------------------------------------
_NODE_IDS = ("a", "b", "c")
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=3)
    | st.sampled_from(_NODE_IDS),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)
# json.loads yields NaN and Infinity too, and integers of any size
_numbers = st.floats(0.0, 1.0) | st.integers() | st.floats()
_nodes = st.sampled_from(_NODE_IDS)
#: per link kind, each argument near its valid form: right type, any value
_near_args = {
    "a": _nodes, "b": _nodes, "symmetric": st.booleans(),
    "components": st.lists(st.lists(_nodes, max_size=3), max_size=3),
    "extra": _numbers, "probability": _numbers, "window": _numbers,
}
_arg_names = st.sampled_from(sorted(_near_args) + ["target", "hook", "delay", "time"])
_near_valid = st.builds(
    lambda op, args: {**args, "op": op},
    st.sampled_from([*sorted(KINDS), "clear_all"]),
    st.fixed_dictionaries({}, optional=_near_args),
)
_arbitrary = st.builds(
    lambda op, args, with_op: {**args, "op": op} if with_op else args,
    st.sampled_from([*sorted(KINDS), "clear_all"]) | _json_values,
    st.dictionaries(_arg_names | st.text(max_size=3), _json_values, max_size=5),
    st.booleans(),
)
_commands = _near_valid | _arbitrary


@seed(21)
@settings(max_examples=600, deadline=None)
@given(command=_commands)
def test_control_commands_apply_or_raise_value_error_and_change_nothing(command):
    plane = FaultPlane()
    for node in _NODE_IDS:
        plane.adopt(node, FaultyTransport(ReplayTransport(node)))
    plane.apply({"op": "partition", "components": [["a"], ["b"]]})
    before = plane.model.snapshot()
    try:
        plane.apply(command)
    except ValueError:
        assert plane.model.snapshot() == before
