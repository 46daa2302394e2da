"""The live runtime adapter: pacing, ingress, and local/remote split."""

import asyncio
import os
import random
import socket
import time
import types

import pytest

from repro.net import runtime as runtime_module
from repro.net.codec import WireEnvelope, encode_frame
from repro.net.runtime import LiveNetwork, LiveRuntime
from repro.net.transport import UdpLoopbackTransport
from repro.sim.engine import Simulator
from repro.sim.trace import TraceLog


def _run(coro):
    return asyncio.run(coro)


async def _wait_for(predicate, timeout=5.0, interval=0.01):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval)


def test_next_event_time_skips_cancelled():
    sim = Simulator()
    early = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.next_event_time() == 1.0
    early.cancel()
    assert sim.next_event_time() == 2.0


def test_runtime_paces_sim_against_wall_clock():
    async def scenario():
        sim = Simulator()
        fired = []
        sim.schedule(0.15, lambda: fired.append(sim.now))
        runtime = LiveRuntime(sim, max_tick=0.02)
        loop = asyncio.get_running_loop()
        started = loop.time()
        await runtime.run(0.3)
        elapsed = loop.time() - started
        assert fired == [0.15]
        assert sim.now == 0.3
        # wall time tracks sim time (loosely: CI boxes stall)
        assert 0.25 <= elapsed < 3.0

    _run(scenario())


def test_runtime_stop_interrupts_run():
    async def scenario():
        sim = Simulator()
        runtime = LiveRuntime(sim, max_tick=0.02)

        async def stopper():
            await asyncio.sleep(0.05)
            runtime.stop()

        loop = asyncio.get_running_loop()
        started = loop.time()
        await asyncio.gather(runtime.run(30.0), stopper())
        assert loop.time() - started < 5.0

    _run(scenario())


def test_runtime_stop_from_inside_an_event_ends_the_run_at_that_tick():
    async def scenario():
        sim = Simulator()
        runtime = LiveRuntime(sim, max_tick=0.02)
        fired = []
        sim.schedule(0.05, runtime.stop)
        sim.schedule(0.05 + 2 * runtime.io_slice, lambda: fired.append("after stop"))
        await asyncio.wait_for(runtime.run(30.0), 5.0)
        assert fired == []
        assert 0.05 <= sim.now < 0.05 + 2 * runtime.io_slice
        # a stopped runtime stays stopped
        await asyncio.wait_for(runtime.run(30.0), 5.0)
        assert fired == []

    _run(scenario())


def test_runtime_reraises_a_handler_exception():
    """A handler that raises inside a tick must fail ``run()``, not
    vanish into the loop's exception handler while the pacer sleeps on."""

    async def scenario():
        sim = Simulator()

        def broken_handler():
            raise LookupError("handler bug")

        sim.schedule(0.03, broken_handler)
        runtime = LiveRuntime(sim, max_tick=0.02)
        with pytest.raises(LookupError, match="handler bug"):
            await asyncio.wait_for(runtime.run(30.0), 5.0)

    _run(scenario())


def test_runtime_wake_outside_a_run_window_is_a_no_op():
    """Harnesses build one runtime per window and re-point ``set_wake``;
    a late frame may still wake the previous one."""

    async def scenario():
        sim = Simulator()
        fired = []
        sim.schedule(0.0, lambda: fired.append("ran"))
        runtime = LiveRuntime(sim, max_tick=0.02)
        runtime.wake()  # before any run(): nothing to wake
        await asyncio.sleep(0.01)
        assert fired == [] and sim.now == 0.0
        await runtime.run(0.05)
        assert fired == ["ran"]
        sim.schedule(0.0, lambda: fired.append("after the window"))
        runtime.wake()  # after run(): the window is over
        await asyncio.sleep(0.01)
        assert fired == ["ran"] and sim.now == 0.05

    _run(scenario())


class _CountingSimulator(Simulator):
    """Counts pacer ticks (one ``run_until`` each) and records them as
    ``(loop turn, from, to)``."""

    def __init__(self):
        super().__init__()
        self.turn = 0
        self.ticks = []

    def count_turns(self, loop):
        self.turn += 1
        loop.call_soon(self.count_turns, loop)

    def run_until(self, time, max_events=None):
        self.ticks.append((self.turn, self.now, time))
        super().run_until(time, max_events)


def test_frames_ingressed_in_one_loop_turn_cause_one_tick():
    async def scenario():
        sim = _CountingSimulator()
        runtime = LiveRuntime(sim, max_tick=5.0)
        transport = UdpLoopbackTransport("a")
        await transport.start()
        network = LiveNetwork(sim, transport, wake=runtime.wake)
        got = []
        network.attach("a", got.append, lambda: True)
        task = asyncio.get_running_loop().create_task(runtime.run(10.0))
        await asyncio.sleep(0.01)
        before = len(sim.ticks)
        for i in range(50):
            network._ingress(
                encode_frame(WireEnvelope("b", "a", "k", 1, i))
            )
        await asyncio.sleep(0)  # the one tick those 50 wake-ups asked for
        await asyncio.sleep(0)
        assert len(got) == 50
        assert len(sim.ticks) == before + 1
        runtime.stop()
        await task
        await transport.close()

    _run(scenario())


def test_stall_is_replayed_in_slices_with_socket_reads_between_them():
    """The stall-replay guarantee (PR 6): after the loop was blocked, the
    pacer catches up at most ``io_slice`` per loop turn, and a frame that
    reached the kernel during the stall is ingested before a timer from
    inside the stalled window fires — a heartbeat refutes the suspicion
    deadline it arrived ahead of."""

    async def scenario():
        loop = asyncio.get_running_loop()
        sim = _CountingSimulator()
        runtime = LiveRuntime(sim, max_tick=0.05, io_slice=0.01)
        transport = UdpLoopbackTransport("a")
        await transport.start()
        network = LiveNetwork(sim, transport, wake=runtime.wake)
        order = []
        network.attach("a", lambda message: order.append("heartbeat"), lambda: True)
        frame = encode_frame(WireEnvelope("b", "a", "hb", 1, "alive"))

        def stall():
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as peer:
                peer.sendto(frame, transport.address)  # sits in the kernel
            time.sleep(0.2)

        # the loop blocks from t=0.05 to t=0.25; the suspicion deadline
        # falls inside the stalled window
        loop.call_later(0.05, stall)
        sim.schedule(0.15, lambda: order.append("suspicion deadline"))
        sim.count_turns(loop)
        await runtime.run(0.4)
        await transport.close()
        assert order == ["heartbeat", "suspicion deadline"]
        catch_up = [tick for tick in sim.ticks if tick[1] >= 0.04 and tick[2] <= 0.26]
        assert len(catch_up) >= 15  # ~0.2 s in slices of 0.01 s
        assert all(until - start <= 0.01 + 1e-9 for _turn, start, until in sim.ticks)
        turns = [turn for turn, _start, _until in catch_up]
        assert all(later > earlier for earlier, later in zip(turns, turns[1:]))

    _run(scenario())


def test_stalled_loop_raises_no_suspicion_under_live_lan():
    """The same guarantee for the daemons' deadline one-shots: they are
    simulator events like the tick, so after a 0.2 s stall — almost seven
    ``live_lan`` suspect timeouts — each catch-up slice ingests the
    heartbeats that queued up before the deadlines they refute come due.
    Nobody is suspected and no view changes."""
    from repro.net.cluster import LiveClusterOptions, build_live_cluster

    async def scenario():
        cluster = await build_live_cluster(
            LiveClusterOptions(nodes=3, transport="udp", profile="live_lan")
        )
        try:
            await cluster.runtime.run(0.5)
            daemons = [server.daemon for server in cluster.servers.values()]
            assert len({d.config.view_id for d in daemons}) == 1
            assert len(daemons[0].config.members) == 3
            formed = cluster.trace.count("gcs.view_installed")
            proposed = cluster.trace.count("gcs.propose")
            asyncio.get_running_loop().call_later(0.05, time.sleep, 0.2)
            await cluster.runtime.run(0.6)
            for daemon in daemons:
                assert len(daemon.fd.alive_peers()) == 2, daemon.node_id
            assert cluster.trace.count("gcs.propose") == proposed
            assert cluster.trace.count("gcs.view_installed") == formed
        finally:
            await cluster.close()

    _run(scenario())


# ----------------------------------------------------------------------
# the pacer's clock: a kernel timer, leading edge + spacing (DESIGN §12)
# ----------------------------------------------------------------------
needs_timerfd = pytest.mark.skipif(
    runtime_module._timerfd_libc() is None, reason="libc has no timerfd"
)

#: what one wake-up may cost on a shared host, on top of the pacer's bound
#: (a timerfd expiry reaches an idle loop in 0.06-0.26 ms at the median)
_WAKE_UP = 0.00035


@pytest.fixture(params=["timerfd", "call_at"])
def pacer(request, monkeypatch):
    """Run a test on the kernel timer and on the ``call_at`` fallback."""
    if request.param == "call_at":
        monkeypatch.setattr(runtime_module, "_timerfd_libc", lambda: None)
    elif runtime_module._timerfd_libc() is None:
        pytest.skip("libc has no timerfd")
    return request.param


def _run_deadlines(times, sim=None):
    """Schedule one event per time on an otherwise idle runtime; return
    how late each one ran against the wall clock."""

    async def scenario():
        loop = asyncio.get_running_loop()
        runtime = LiveRuntime(sim if sim is not None else Simulator(), max_tick=5.0)
        late = []
        for at in times:
            runtime.sim.schedule(at, lambda at=at: late.append(loop.time() - started - at))
        started = loop.time()
        await runtime.run(max(times) + 0.005)
        return late

    return _run(scenario())


@needs_timerfd
def test_sub_millisecond_deadlines_fire_on_time():
    """A deadline that finds the pacer quiet fires at its instant, not at
    the selector's next whole millisecond (median ≈ 0.6 ms late on
    ``call_at``).  The host pauses, for 100 ms at times, so the bounds
    are on the median and the upper quartile, not on single samples."""
    rng = random.Random(20)
    times = [0.01 + 0.002 * i + rng.uniform(0.0, 0.001) for i in range(200)]
    late = sorted(_run_deadlines(times))
    assert len(late) == 200
    assert late[0] >= 0.0
    assert late[100] < _WAKE_UP
    assert late[150] < 0.001 + 0.01  # the old bound plus one io_slice


@needs_timerfd
def test_dense_deadlines_are_spaced_a_millisecond_apart():
    """Spacing: 50 deadlines 0.1 ms apart ride on a tick per millisecond
    (the coalescing ``call_at`` gave), each less than that late.  Five
    bursts.  A host pause only merges ticks and makes deadlines later, for
    several milliseconds at times, so the tick count is judged by the
    median burst, and the lateness by the second best burst's 90th
    percentile (which a short pause inside the burst does not move)."""
    ticks, late90 = [], []
    for _burst in range(5):
        sim = _CountingSimulator()
        late = _run_deadlines([0.005 + 0.0001 * i for i in range(50)], sim)
        assert len(late) == 50
        ticks.append(sum(1 for _turn, _start, until in sim.ticks if 0.005 <= until < 0.011))
        late90.append(sorted(late)[44])
    assert sorted(ticks)[2] <= 7
    assert sorted(late90)[1] < 0.001 + _WAKE_UP


@needs_timerfd
def test_frame_driven_tick_that_leaves_the_deadline_unchanged_arms_nothing(monkeypatch):
    armed = []
    arm = runtime_module._TimerFd.arm
    monkeypatch.setattr(
        runtime_module._TimerFd, "arm", lambda self, when: (armed.append(when), arm(self, when))
    )

    async def scenario():
        sim = _CountingSimulator()
        sim.schedule(0.5, lambda: None)  # the standing deadline
        runtime = LiveRuntime(sim, max_tick=5.0)
        transport = UdpLoopbackTransport("a")
        await transport.start()
        network = LiveNetwork(sim, transport, wake=runtime.wake)
        got = []
        network.attach("a", got.append, lambda: True)
        task = asyncio.get_running_loop().create_task(runtime.run(10.0))
        await asyncio.sleep(0.005)  # under one io_slice: nothing to catch up
        assert len(armed) == 1
        before = len(sim.ticks)
        network._ingress(encode_frame(WireEnvelope("b", "a", "k", 1, 0)))
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        assert len(got) == 1 and len(sim.ticks) == before + 1
        assert len(armed) == 1
        runtime.stop()
        await task
        await transport.close()

    _run(scenario())


def test_deadline_already_due_when_armed_fires_on_the_next_turn(pacer):
    async def scenario():
        sim = _CountingSimulator()
        turns = {}

        def slow():  # overruns the next deadline before the pacer arms it
            turns["slow"] = sim.turn
            time.sleep(0.003)

        sim.schedule(0.02, slow)
        sim.schedule(0.021, lambda: turns.setdefault("next", sim.turn))
        runtime = LiveRuntime(sim, max_tick=5.0)
        sim.count_turns(asyncio.get_running_loop())
        await runtime.run(0.03)
        assert turns["next"] == turns["slow"] + 1

    _run(scenario())


@needs_timerfd
def test_late_expiry_yields_to_the_socket_reads_of_its_turn():
    """A timerfd expiry is an I/O event: after a stall the loop may hand
    it over ahead of a socket that became readable later, and ticking
    from it would run the stalled window's deadlines before the frames
    that reached the kernel in it.  An expiry ``io_slice`` late defers
    to a due ``call_at``, like every catch-up slice."""

    async def scenario():
        loop = asyncio.get_running_loop()
        sim = Simulator()
        runtime = LiveRuntime(sim, max_tick=5.0, io_slice=0.01)
        transport = UdpLoopbackTransport("a")
        await transport.start()
        network = LiveNetwork(sim, transport, wake=runtime.wake)
        order = []
        network.attach("a", lambda message: order.append("frame"), lambda: True)
        frame = encode_frame(WireEnvelope("b", "a", "hb", 1, "alive"))

        def stall():
            order.append("stall")
            time.sleep(0.002)  # the armed deadline (+0.8 ms) expires first ...
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as peer:
                peer.sendto(frame, transport.address)  # ... then the frame lands
            time.sleep(0.02)

        for at in (0.008, 0.016):  # an idle simulator would be catching up
            sim.schedule(at, lambda: None)
        sim.schedule(0.02, lambda: loop.call_soon(stall))
        sim.schedule(0.0208, lambda: order.append("deadline"))
        await runtime.run(0.06)
        await transport.close()
        return order

    for _attempt in range(3):
        order = _run(scenario())
        if order[0] == "stall":  # else the host was late and the deadline ran first
            break
    assert order == ["stall", "frame", "deadline"]


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def test_run_windows_release_the_timer_fd(pacer):
    async def scenario():
        sim = Simulator()
        await LiveRuntime(sim).run(0.001)  # loop and selector are set up
        before = _open_fds()
        for _window in range(50):
            await LiveRuntime(sim).run(0.001)
        assert _open_fds() == before

        stopped = LiveRuntime(sim)
        sim.schedule(0.001, stopped.stop)
        await stopped.run(30.0)
        assert _open_fds() == before

        def broken_handler():
            raise LookupError("handler bug")

        sim.schedule(0.001, broken_handler)
        with pytest.raises(LookupError):
            await LiveRuntime(sim).run(30.0)
        assert _open_fds() == before

        task = asyncio.get_running_loop().create_task(LiveRuntime(sim).run(30.0))
        await asyncio.sleep(0.001)
        assert _open_fds() == before + (pacer == "timerfd")
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        assert _open_fds() == before

    _run(scenario())


@needs_timerfd
def test_timerfd_errors_raise_oserror():
    """A failed libc call is an ``OSError`` with its errno, never a
    ``-1`` file descriptor handed to the loop."""
    timerfd = runtime_module._TimerFd(runtime_module._timerfd_libc())
    timerfd.close()
    with pytest.raises(OSError, match="timerfd_settime"):
        timerfd.arm(1.0)

    def out_of_fds(_clock, _flags):
        runtime_module.ctypes.set_errno(24)
        return -1

    no_fds = types.SimpleNamespace(timerfd_create=out_of_fds, timerfd_settime=None)
    with pytest.raises(OSError, match="timerfd_create") as raised:
        runtime_module._TimerFd(no_fds)
    assert raised.value.errno == 24


@pytest.mark.parametrize(
    "pacing_test",
    [
        test_runtime_paces_sim_against_wall_clock,
        test_runtime_stop_interrupts_run,
        test_runtime_stop_from_inside_an_event_ends_the_run_at_that_tick,
        test_runtime_reraises_a_handler_exception,
        test_runtime_wake_outside_a_run_window_is_a_no_op,
        test_frames_ingressed_in_one_loop_turn_cause_one_tick,
        test_stall_is_replayed_in_slices_with_socket_reads_between_them,
    ],
)
def test_pacing_holds_on_the_call_at_fallback(monkeypatch, pacing_test):
    """Where libc has no ``timerfd`` the deadline goes to ``call_at``
    through the same ``_arm``: the pacing tests above, run through it."""
    monkeypatch.setattr(runtime_module, "_timerfd_libc", lambda: None)
    pacing_test()


def test_live_network_local_and_remote_paths():
    async def scenario():
        sim = Simulator()
        runtime = LiveRuntime(sim, max_tick=0.02)
        ta, tb = UdpLoopbackTransport("a"), UdpLoopbackTransport("b")
        await ta.start()
        await tb.start()
        na = LiveNetwork(sim, ta, wake=runtime.wake)
        nb = LiveNetwork(sim, tb, wake=runtime.wake)
        ta.set_peer("b", *tb.address)
        tb.set_peer("a", *ta.address)
        got_a, got_b = [], []
        na.attach("a", lambda m: got_a.append(m), lambda: True)
        na.attach("a2", lambda m: got_a.append(m), lambda: True)
        nb.attach("b", lambda m: got_b.append(m), lambda: True)

        def kick():
            na.send("a", "a2", {"local": True}, kind="loc", size=3)
            na.send("a", "b", {"remote": True}, kind="rem", size=7)

        sim.schedule(0.01, kick)
        task = asyncio.get_running_loop().create_task(runtime.run(10.0))
        await _wait_for(lambda: got_a and got_b)
        runtime.stop()
        await task
        await ta.close()
        await tb.close()
        # local hop never touched the socket
        assert got_a[0].payload == {"local": True}
        assert ta.stats.frames_sent == 1
        # remote hop crossed it, with actual bytes accounted by kind
        assert got_b[0].payload == {"remote": True}
        assert got_b[0].kind == "rem"
        assert na.actual_bytes_sent["rem"] == ta.stats.bytes_sent
        assert nb.actual_bytes_received["rem"] == tb.stats.bytes_received
        # sender-side abstract accounting mirrors the parent's
        assert na.total_sent == 2

    _run(scenario())


def test_unknown_remote_sender_rule_with_a_warm_verdict():
    """A remote sender is not in this node's topology and counts as
    connected; the cached verdict still follows the topology."""
    sim = Simulator()
    network = LiveNetwork(sim, types.SimpleNamespace(on_frame=None))
    got = []
    network.attach("a", got.append, lambda: True)

    def frame_from(sender):
        network._ingest(encode_frame(WireEnvelope(sender, "a", "k", 1, sender)))

    frame_from("z")
    frame_from("z")  # z -> a is now a cached verdict
    network.topology.set_node_down("z")
    frame_from("z")
    assert network.drop_reasons() == {"disconnected-in-flight": 1}
    frame_from("y")  # never seen, nothing cached: the default rule
    network.topology.set_node_down("z", down=False)
    frame_from("z")
    assert [m.payload for m in got] == ["z", "z", "y", "z"]


def test_live_network_rejects_garbage_frames():
    async def scenario():
        sim = Simulator()
        transport = UdpLoopbackTransport("a")
        await transport.start()
        network = LiveNetwork(sim, transport)
        network._ingress(b"\x00\x00\x00\x01\x63")  # bad version
        network._ingress(encode_frame("not an envelope"))
        # ingress only schedules; decoding (and rejection) happens
        # inside the event loop
        sim.run_until(0.0)
        await transport.close()
        assert network.frames_rejected == 2

    _run(scenario())


def test_live_network_survives_hostile_frames(hostile_frames):
    """Invalid UTF-8, unhashable keys and runaway nesting are rejected
    like any other malformed frame: counted, traced, and the node runs on
    (they used to leave ``run_until`` as UnicodeDecodeError / TypeError /
    RecursionError and end the process)."""

    async def scenario():
        sim = Simulator()
        transport = UdpLoopbackTransport("a")
        await transport.start()
        network = LiveNetwork(sim, transport, trace=TraceLog())
        delivered = []
        network.attach("a", delivered.append, lambda: True)
        for frame in hostile_frames.values():
            network._ingress(frame)
        network._ingress(encode_frame(WireEnvelope("b", "a", "k", 1, "still here")))
        sim.run_until(0.0)
        await transport.close()
        assert network.frames_rejected == 5
        assert network.trace.count("live.frame_rejected") == 5
        assert [message.payload for message in delivered] == ["still here"]

    _run(scenario())
