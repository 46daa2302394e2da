"""The asyncio transports: delivery, coalescing, backpressure, rejection."""

import asyncio
import socket

import pytest

from repro.net.codec import encode_frame
from repro.net.transport import (
    UDP_MAX_FRAME,
    TcpMeshTransport,
    UdpLoopbackTransport,
    available_transports,
    create_transport,
)


def _run(coro):
    return asyncio.run(coro)


async def _wait_for(predicate, timeout=5.0, interval=0.01):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval)


# ---------------------------------------------------------------------------
# TCP mesh
# ---------------------------------------------------------------------------
def test_tcp_round_trip_both_directions():
    async def scenario():
        a, b = TcpMeshTransport("a"), TcpMeshTransport("b")
        got_a, got_b = [], []
        a.on_frame = got_a.append
        b.on_frame = got_b.append
        await a.start()
        await b.start()
        a.set_peer("b", *b.address)
        b.set_peer("a", *a.address)
        frame_ab = encode_frame(["a", "to", "b"])
        frame_ba = encode_frame({"b": "to a"})
        a.send("b", frame_ab)
        b.send("a", frame_ba)
        await _wait_for(lambda: got_a and got_b)
        await a.close()
        await b.close()
        assert got_b == [frame_ab]
        assert got_a == [frame_ba]
        assert a.stats.frames_sent == 1 and a.stats.bytes_sent == len(frame_ab)
        assert b.stats.frames_received == 1

    _run(scenario())


def test_tcp_many_frames_keep_order():
    async def scenario():
        a, b = TcpMeshTransport("a"), TcpMeshTransport("b")
        got = []
        b.on_frame = got.append
        await a.start()
        await b.start()
        a.set_peer("b", *b.address)
        frames = [encode_frame(i) for i in range(200)]
        for frame in frames:
            a.send("b", frame)
        await _wait_for(lambda: len(got) == len(frames))
        await a.close()
        await b.close()
        assert got == frames

    _run(scenario())


def test_tcp_unroutable_peer_counted():
    async def scenario():
        a = TcpMeshTransport("a")
        await a.start()
        a.send("ghost", encode_frame(1))
        await a.close()
        assert a.stats.dropped_unroutable == 1

    _run(scenario())


def test_tcp_queue_drops_oldest_when_full():
    async def scenario():
        # peer address points nowhere reachable: frames pile up in the queue
        a = TcpMeshTransport("a", queue_limit=5, backoff_base=10.0)
        await a.start()
        a.set_peer("b", "127.0.0.1", 1)  # connect will fail
        frames = [encode_frame(i) for i in range(8)]
        for frame in frames:
            a.send("b", frame)
        channel = a._peers["b"]
        kept = list(channel.queue)
        await a.close()
        assert a.stats.dropped_oldest == 3
        assert a.stats.dropped_by_peer == {"b": 3}
        assert kept == frames[3:]  # oldest dropped, newest kept

    _run(scenario())


def test_tcp_reconnects_after_peer_restart():
    async def scenario():
        a, b = TcpMeshTransport("a", backoff_base=0.01, backoff_cap=0.05), None
        got = []
        await a.start()
        b = TcpMeshTransport("b")
        b.on_frame = got.append
        host, port = await b.start()
        a.set_peer("b", host, port)
        a.send("b", encode_frame("first"))
        await _wait_for(lambda: len(got) == 1)
        await b.close()  # peer goes away
        a.send("b", encode_frame("lost or queued"))
        await asyncio.sleep(0.05)
        # peer comes back on the same port
        b2 = TcpMeshTransport("b")
        got2 = []
        b2.on_frame = got2.append
        await b2.start(host, port)
        # frames written into the dying socket are lost until the pump
        # notices; the protocol layer retransmits, so the test does too
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 5.0
        while not got2 and loop.time() < deadline:
            a.send("b", encode_frame("after restart"))
            await asyncio.sleep(0.02)
        await a.close()
        await b2.close()
        assert got2
        assert all(frame == encode_frame("after restart") for frame in got2)

    _run(scenario())


def test_tcp_address_before_start_raises():
    transport = TcpMeshTransport("a")
    with pytest.raises(RuntimeError):
        transport.address


# ---------------------------------------------------------------------------
# TCP writer coalescing and reconnect hygiene (scripted connections)
# ---------------------------------------------------------------------------
class _ScriptedTransport(asyncio.Transport):
    """An ``asyncio.Transport`` stand-in that can lose specific writes.

    A write whose number is in ``die_on_write`` stays in user space — the
    protocol is paused, as a full kernel buffer pauses it — and the
    connection is then lost with that batch in flight."""

    def __init__(self, die_on_write=()):
        super().__init__()
        self.chunks = []
        self.limits = None
        self._die_on = set(die_on_write)
        self._protocol = None
        self._closing = False

    def attach(self, protocol):
        self._protocol = protocol
        protocol.connection_made(self)

    def set_write_buffer_limits(self, high=None, low=None):
        self.limits = (high, low)

    def is_closing(self):
        return self._closing

    def write(self, data):
        self.chunks.append(data)
        if len(self.chunks) in self._die_on:
            self._protocol.pause_writing()
            asyncio.get_running_loop().call_soon(self._lose)

    def _lose(self):
        self._closing = True
        self._protocol.connection_lost(ConnectionResetError("scripted drop"))

    def close(self):
        self._closing = True

    abort = close


def _script_connections(monkeypatch, script):
    """Fake the running loop's ``create_connection``: each call takes the
    next script item — ``None`` refuses, a transport connects."""
    items = iter(script)

    async def fake_create_connection(factory, host, port):
        item = next(items)
        if item is None:
            raise OSError("connection refused")
        protocol = factory()
        item.attach(protocol)
        return item, protocol

    monkeypatch.setattr(
        asyncio.get_running_loop(), "create_connection", fake_create_connection
    )


def _record_sleeps(monkeypatch):
    """Make ``asyncio.sleep`` record its delay and yield once; returns
    the delays and a ``settle(predicate)`` that spins real loop turns."""
    delays = []
    real_sleep = asyncio.sleep

    async def recording_sleep(delay):
        delays.append(delay)
        await real_sleep(0)

    async def settle(predicate):
        for _ in range(10_000):
            if predicate():
                return
            await real_sleep(0)
        raise AssertionError("condition not reached")

    monkeypatch.setattr(asyncio, "sleep", recording_sleep)
    return delays, settle


def test_tcp_burst_coalesces_into_one_write(monkeypatch):
    """A burst queued within one loop turn must go out as ONE write, not
    one socket operation per frame."""
    connection = _ScriptedTransport()

    async def scenario():
        _script_connections(monkeypatch, [connection])
        a = TcpMeshTransport("a")
        a.set_peer("b", "127.0.0.1", 9)
        frames = [encode_frame(i) for i in range(64)]
        for frame in frames:
            a.send("b", frame)
        await _wait_for(lambda: a.stats.frames_sent == len(frames))
        assert a.stats.writes <= 2  # the whole burst, coalesced
        assert len(connection.chunks) == a.stats.writes
        assert b"".join(connection.chunks) == b"".join(frames)
        assert a.stats.bytes_sent == sum(len(f) for f in frames)
        # bytes left in user space pause the channel at once, so "paused"
        # means exactly "the last batch is still in flight"
        assert connection.limits == (0, None)
        await a.close()

    _run(scenario())


def test_tcp_backoff_resets_and_requeues_in_flight_batch(monkeypatch):
    """Reconnect hygiene, pinned: (1) the backoff attempt counter resets
    after a successful connect, so a later drop retries from the base
    delay; (2) a batch in flight when the connection dies is re-queued
    and re-sent — neither silently dropped nor double-counted."""
    connection1 = _ScriptedTransport(die_on_write={2})  # dies on the second batch
    connection2 = _ScriptedTransport()
    delays, settle = _record_sleeps(monkeypatch)

    async def scenario():
        _script_connections(
            monkeypatch, [None, None, None, connection1, None, connection2]
        )
        a = TcpMeshTransport("a", backoff_base=0.01, backoff_cap=2.0)
        a.set_peer("b", "127.0.0.1", 9)
        first = encode_frame("first")
        a.send("b", first)
        await settle(lambda: a.stats.frames_sent == 1)
        # three refused connects backed off exponentially before success
        assert delays[:3] == [0.01, 0.02, 0.04]
        assert a.stats.connect_failures == 3
        assert a.stats.reconnects == 1
        second = encode_frame("second")
        a.send("b", second)  # connection1 dies with this in flight
        await settle(lambda: a.stats.frames_sent == 2)
        # the post-drop reconnect backed off from the BASE delay again:
        # a successful connect reset the attempt counter (0.08 here would
        # mean the pre-success failures still counted)
        assert delays[3:] == [0.01]
        assert a.stats.connect_failures == 4
        assert a.stats.reconnects == 2
        # the in-flight frame was re-sent on the new connection, once
        assert connection2.chunks == [second]
        assert a.stats.frames_sent == 2  # not double-counted
        assert a.stats.bytes_sent == len(first) + len(second)
        await a.close()

    _run(scenario())


def test_tcp_multiple_consecutive_losses_requeue_and_reset_backoff(monkeypatch):
    """Reconnect hygiene across SEVERAL consecutive connection losses:
    every cycle re-queues its in-flight batch in order and restarts the
    backoff from the base delay (a single-loss test cannot tell a
    correctly reset counter from one that was simply never incremented
    twice)."""
    connection1 = _ScriptedTransport(die_on_write={2})  # dies on its second batch
    connection2 = _ScriptedTransport(die_on_write={2})  # ... and so does its successor
    connection3 = _ScriptedTransport()
    delays, settle = _record_sleeps(monkeypatch)

    async def scenario():
        _script_connections(
            monkeypatch, [connection1, None, connection2, None, None, connection3]
        )
        a = TcpMeshTransport("a", backoff_base=0.01, backoff_cap=2.0)
        a.set_peer("b", "127.0.0.1", 9)
        f1, f2, f3, f4 = (encode_frame(f"frame-{i}") for i in range(4))
        a.send("b", f1)
        await settle(lambda: a.stats.frames_sent == 1)
        # cycle 1: a two-frame batch dies in flight on connection1
        a.send("b", f2)
        a.send("b", f3)
        await settle(lambda: a.stats.frames_sent == 3)
        # one refused connect, backed off from the BASE delay (reset
        # after connection1's successful connect)
        assert delays == [0.01]
        # the whole batch was re-queued in order and re-sent as one write
        assert connection2.chunks == [f2 + f3]
        # cycle 2: a single-frame batch dies in flight on connection2
        a.send("b", f4)
        await settle(lambda: a.stats.frames_sent == 4)
        # two refused connects this cycle — and again from the base
        # delay, not continuing cycle 1's progression
        assert delays[1:] == [0.01, 0.02]
        assert connection3.chunks == [f4]
        assert a.stats.reconnects == 2
        assert a.stats.connect_failures == 3
        assert a.stats.requeued_batches == 2
        assert a.stats.requeued_frames == 3  # [f2, f3] then [f4]
        assert a.stats.frames_sent == 4  # never double-counted
        # the per-peer snapshot attributes all of it to peer "b"
        snapshot = a.stats_snapshot()
        peer = snapshot["peers"]["b"]
        assert peer["reconnects"] == 2
        assert peer["connect_failures"] == 3
        assert peer["requeued_batches"] == 2
        assert peer["requeued_frames"] == 3
        assert peer["queue_depth"] == 0
        await a.close()

    _run(scenario())


def test_tcp_backoff_stays_at_cap_for_a_long_dead_peer(monkeypatch):
    """2 000 consecutive refused connects: ``2**attempt`` used to
    overflow a float at attempt 1024 and kill the writer for good."""
    connection = _ScriptedTransport()
    delays, settle = _record_sleeps(monkeypatch)

    async def scenario():
        _script_connections(monkeypatch, [None] * 2000 + [connection])
        a = TcpMeshTransport("a", backoff_base=0.05, backoff_cap=2.0)
        a.set_peer("b", "127.0.0.1", 9)
        frame = encode_frame("patient")
        a.send("b", frame)
        await settle(lambda: a.stats.frames_sent == 1)
        assert len(delays) == 2000
        assert delays[:7] == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0]
        assert set(delays[6:]) == {2.0}
        assert a.stats.connect_failures == 2000
        assert connection.chunks == [frame]
        await a.close()

    _run(scenario())


# ---------------------------------------------------------------------------
# TCP overload and hostile input (real sockets)
# ---------------------------------------------------------------------------
def test_tcp_peer_that_stops_reading_fills_the_bounded_queue(monkeypatch):
    """The overload policy at the new seam: a peer that never reads
    pauses the connection, frames then wait in the per-peer queue up to
    ``queue_limit``, the oldest are dropped and counted, and once the
    peer reads again the survivors go out in order."""

    async def scenario():
        loop = asyncio.get_running_loop()
        near, far = socket.socketpair()
        near.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        far.setblocking(False)
        real_create_connection = loop.create_connection

        async def over_socketpair(factory, host, port):
            return await real_create_connection(factory, sock=near)

        monkeypatch.setattr(loop, "create_connection", over_socketpair)
        a = TcpMeshTransport("a", queue_limit=8)
        a.set_peer("b", "127.0.0.1", 9)
        channel = a._peers["b"]
        filler = [encode_frame(("fill", i, "x" * 4000)) for i in range(2000)]
        sent = 0
        while not channel.paused:  # the peer reads nothing: the kernel fills up
            a.send("b", filler[sent])
            sent += 1
            await asyncio.sleep(0)
        accepted = a.stats.frames_sent  # all but the batch in flight
        assert accepted < sent
        assert channel.transport.get_write_buffer_size() > 0
        # paused: frames wait in the bounded queue, oldest dropped
        late = [encode_frame(("late", i)) for i in range(12)]
        for frame in late:
            a.send("b", frame)
        await asyncio.sleep(0)
        assert a.stats.frames_sent == accepted  # nothing went out
        assert len(channel.queue) == 8
        assert a.stats.dropped_oldest == 4
        assert a.stats.dropped_by_peer == {"b": 4}
        # the peer starts reading: in-flight batch, then the survivors
        received = bytearray()
        expected = b"".join(filler[:sent] + late[4:])
        while len(received) < len(expected):
            received.extend(await loop.sock_recv(far, 65536))
        assert bytes(received) == expected
        await _wait_for(lambda: a.stats.frames_sent == sent + 8)
        assert a.stats.requeued_frames == 0
        await a.close()
        far.close()

    _run(scenario())


def test_tcp_unframeable_stream_closes_that_connection_only():
    async def scenario():
        loop = asyncio.get_running_loop()
        a = TcpMeshTransport("a")
        got = []
        a.on_frame = got.append
        await a.start()
        hostile, honest = socket.socket(), socket.socket()
        for sock in (hostile, honest):
            sock.setblocking(False)
            await loop.sock_connect(sock, a.address)
        good = encode_frame("still served")
        await loop.sock_sendall(hostile, b"\xff\xff\xff\xff junk")
        # the insane length prefix drops the hostile connection...
        assert await asyncio.wait_for(loop.sock_recv(hostile, 1), 5.0) == b""
        # ...and nothing else: the listener and other connections live on
        await loop.sock_sendall(honest, good)
        await _wait_for(lambda: got == [good])
        await a.close()
        hostile.close()
        honest.close()

    _run(scenario())


# ---------------------------------------------------------------------------
# UDP loopback
# ---------------------------------------------------------------------------
def test_udp_round_trip():
    async def scenario():
        a, b = UdpLoopbackTransport("a"), UdpLoopbackTransport("b")
        got = []
        b.on_frame = got.append
        await a.start()
        await b.start()
        a.set_peer("b", *b.address)
        frame = encode_frame(("x", 1))
        a.send("b", frame)
        await _wait_for(lambda: got)
        await a.close()
        await b.close()
        assert got == [frame]
        assert b.stats.bytes_received == len(frame)

    _run(scenario())


def test_udp_oversize_frame_sent_standalone():
    # A frame above the coalescing bound goes out in its own datagram
    # (loopback's 64kB MTU carries it) instead of corrupting a batch.
    async def scenario():
        a, b = UdpLoopbackTransport("a"), UdpLoopbackTransport("b")
        got = []
        b.on_frame = got.append
        await a.start()
        await b.start()
        a.set_peer("b", *b.address)
        big = encode_frame("x" * (UDP_MAX_FRAME + 1))
        a.send("b", big)
        await _wait_for(lambda: got)
        await a.close()
        await b.close()
        assert got == [big]
        assert a.stats.oversize_frames == 1
        assert a.stats.dropped_oversize == 0
        assert a.stats.frames_sent == 1
        assert a.stats.writes == 1
        assert b.stats.frames_received == 1

    _run(scenario())


def test_udp_oversize_flushes_pending_batch_first():
    # Frames already coalescing for the peer must go out *before* the
    # oversize frame so send order is preserved on the wire.
    async def scenario():
        a, b = UdpLoopbackTransport("a"), UdpLoopbackTransport("b")
        got = []
        b.on_frame = got.append
        await a.start()
        await b.start()
        a.set_peer("b", *b.address)
        small = [encode_frame(("s", i)) for i in range(3)]
        big = encode_frame("y" * (UDP_MAX_FRAME + 1))
        for frame in small:
            a.send("b", frame)  # queued for this turn's coalesced flush
        a.send("b", big)  # must flush the batch, then go standalone
        await _wait_for(lambda: len(got) == 4)
        await a.close()
        await b.close()
        assert got == small + [big]
        assert a.stats.oversize_frames == 1
        assert a.stats.frames_sent == 4
        assert a.stats.writes == 2  # one packed datagram + one standalone

    _run(scenario())


def test_udp_frame_beyond_loopback_mtu_counted_dropped():
    # ~65507 bytes is the absolute UDP payload ceiling; past it the
    # kernel refuses the datagram and asyncio reports EMSGSIZE through
    # error_received, which the transport counts as an oversize drop.
    async def scenario():
        a, b = UdpLoopbackTransport("a"), UdpLoopbackTransport("b")
        got = []
        b.on_frame = got.append
        await a.start()
        await b.start()
        a.set_peer("b", *b.address)
        a.send("b", encode_frame("z" * 70_000))
        await asyncio.sleep(0.05)
        await a.close()
        await b.close()
        assert got == []
        assert a.stats.oversize_frames == 1  # we did attempt the send
        assert a.stats.dropped_oversize == 1  # ... and the kernel refused
        assert b.stats.frames_received == 0

    _run(scenario())


def test_udp_unroutable_peer_counted():
    async def scenario():
        a = UdpLoopbackTransport("a")
        await a.start()
        a.send("ghost", encode_frame(1))
        await a.close()
        assert a.stats.dropped_unroutable == 1

    _run(scenario())


def test_udp_burst_packs_one_datagram_and_receiver_splits_it():
    async def scenario():
        a, b = UdpLoopbackTransport("a"), UdpLoopbackTransport("b")
        got = []
        b.on_frame = got.append
        await a.start()
        await b.start()
        a.set_peer("b", *b.address)
        frames = [encode_frame(("burst", i)) for i in range(10)]
        for frame in frames:
            a.send("b", frame)
        await _wait_for(lambda: len(got) == len(frames))
        await a.close()
        await b.close()
        assert got == frames  # split back into individual frames, in order
        assert a.stats.writes == 1  # ...but shipped as one datagram
        assert a.stats.frames_sent == len(frames)
        assert b.stats.frames_received == len(frames)
        assert b.stats.bytes_received == sum(len(f) for f in frames)

    _run(scenario())


def test_udp_coalescing_respects_datagram_size_bound():
    async def scenario():
        a, b = UdpLoopbackTransport("a"), UdpLoopbackTransport("b")
        got = []
        b.on_frame = got.append
        await a.start()
        await b.start()
        a.set_peer("b", *b.address)
        big = encode_frame("x" * (UDP_MAX_FRAME // 2))
        a.send("b", big)
        a.send("b", big)  # would overflow one datagram together
        await _wait_for(lambda: len(got) == 2)
        await a.close()
        await b.close()
        assert a.stats.writes == 2
        assert a.stats.dropped_oversize == 0
        assert got == [big, big]

    _run(scenario())


def test_udp_datagrams_queued_in_the_kernel_arrive_in_one_loop_turn():
    """One readiness callback drains the socket (asyncio's datagram
    transport reads one datagram per loop turn, so a burst that built up
    during a stall used to trickle in behind the timers it refutes)."""

    async def scenario():
        loop = asyncio.get_running_loop()
        a = UdpLoopbackTransport("a")
        turn = 0
        seen = []

        def count_turn():
            nonlocal turn
            turn += 1
            loop.call_soon(count_turn)

        a.on_frame = lambda frame: seen.append((turn, frame))
        await a.start()
        frames = [encode_frame(("queued", i)) for i in range(20)]
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
            for frame in frames:
                sender.sendto(frame, a.address)  # loopback: queued on return
        count_turn()
        await _wait_for(lambda: len(seen) == len(frames))
        await a.close()
        assert [frame for _turn, frame in seen] == frames
        assert len({turn for turn, _frame in seen}) == 1

    _run(scenario())


class _FullSocket:
    """The transport's socket, except that the first ``refusals`` calls
    of ``sendto`` find the kernel's send buffer full."""

    def __init__(self, sock, refusals):
        self._sock = sock
        self.refusals = refusals

    def sendto(self, data, addr):
        if self.refusals:
            self.refusals -= 1
            raise BlockingIOError("scripted EAGAIN")
        return self._sock.sendto(data, addr)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_udp_send_the_kernel_cannot_take_is_retried_in_order():
    async def scenario():
        a, b = UdpLoopbackTransport("a"), UdpLoopbackTransport("b")
        got = []
        b.on_frame = got.append
        await a.start()
        await b.start()
        a.set_peer("b", *b.address)
        a._sock = _FullSocket(a._sock, refusals=1)
        first, second = encode_frame("refused once"), encode_frame("behind it")
        a.send("b", first)
        await asyncio.sleep(0)  # the flush ran into the scripted EAGAIN
        assert a.stats.frames_sent == 0 and a.stats.writes == 0  # not counted yet
        a.send("b", second)  # must not overtake the held datagram
        await _wait_for(lambda: len(got) == 2)
        await a.close()
        await b.close()
        assert got == [first, second]
        assert a.stats.frames_sent == 2 and a.stats.writes == 2
        assert a.stats.bytes_sent == len(first) + len(second)
        assert a.stats.dropped_oldest == 0

    _run(scenario())


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
def test_transport_registry_builds_backends_by_name():
    assert "tcp" in available_transports()
    assert "udp" in available_transports()
    assert isinstance(create_transport("tcp", "n0"), TcpMeshTransport)
    assert isinstance(create_transport("udp", "n0"), UdpLoopbackTransport)
    with pytest.raises(ValueError, match="unknown transport"):
        create_transport("carrier-pigeon", "n0")
