"""Asyncio transports for the live runtime.

Two interchangeable transports move opaque frames (produced by
:mod:`repro.net.codec`) between named nodes:

* :class:`TcpMeshTransport` — one listening socket per node and one
  outbound connection per peer, created lazily and re-created after
  failures with capped exponential backoff.  Outbound frames wait in a
  per-peer bounded queue; when the queue is full the *oldest* frame is
  dropped and counted (protocol retransmission recovers, exactly as it
  does from loss in the simulator).  Backoff is deterministic — no
  jitter — so live runs stay as reproducible as the sockets allow.
* :class:`UdpLoopbackTransport` — one datagram socket per node on
  127.0.0.1.  A single frame larger than the coalescing bound is sent
  *standalone* in its own datagram (never spliced into a packed batch)
  and counted in ``oversize_frames``; loopback's 64kB MTU usually
  carries it, and if the kernel refuses the send (``EMSGSIZE``) the
  drop is counted in ``dropped_oversize``.

Both are callback-driven — ``asyncio.Protocol`` objects on TCP, an
``add_reader`` callback on UDP; no streams, no task per connection, no
future per send — so a hop costs one socket read, one pacer tick and one
socket write, each in its own loop turn (DESIGN.md §12).

Both transports *coalesce*: frames queued for a peer within one
event-loop turn leave in one socket operation on the next — the TCP
channel joins its whole queue into a single ``transport.write``, the UDP
sender packs them into a single datagram up to :data:`UDP_MAX_FRAME`.
The length-prefixed frame format makes the receive side split coalesced
payloads back into frames without decoding anything.
``frames_sent``/``frames_received`` count *logical* frames so throughput
metrics stay comparable across transports; the ``writes`` counter
records actual socket operations.

Frames are counted as sent only once the kernel accepted them.  On TCP a
write the kernel takes only part of pauses the channel (the write-buffer
high-water mark is zero): later frames wait in the same bounded
drop-oldest queue until ``resume_writing``, and a batch still in flight
when the connection drops is re-queued ahead of newer frames, so a
reconnect re-sends it instead of silently losing it.  On UDP a send the
kernel has no room for (``EAGAIN``) waits in a bounded backlog until the
socket turns writable.

Both deliver inbound frames by calling ``on_frame(data)`` with one
complete raw frame, in the loop turn that read it; decoding stays the
caller's business so the byte accounting can see actual frame sizes.
Everything runs on the calling asyncio loop — no threads, no locks.

Transports register themselves by name (:func:`register_transport`), so
alternative backends can be benchmarked by name without touching the
runtime: ``create_transport("tcp", node_id)``.
"""

from __future__ import annotations

import asyncio
import errno
import socket
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Callable, Protocol, cast

from repro.net.codec import CodecError, split_frames
from repro.sim.topology import NodeId

FrameHandler = Callable[[bytes], None]

#: Largest datagram payload the UDP transport will send on loopback;
#: also the coalescing bound (frames are packed up to this size).
UDP_MAX_FRAME = 60_000


@dataclass(slots=True)
class TransportStats:
    """Counters both transports maintain (read by tests and the audit).

    ``frames_sent`` counts logical frames accepted by the socket layer;
    ``writes`` counts actual socket operations (writev-style batches on
    TCP, datagrams on UDP), so ``frames_sent / writes`` is the achieved
    coalescing factor.
    """

    frames_sent: int = 0
    frames_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    writes: int = 0
    dropped_oldest: int = 0
    dropped_oversize: int = 0
    dropped_unroutable: int = 0
    oversize_frames: int = 0
    reconnects: int = 0
    connect_failures: int = 0
    requeued_batches: int = 0
    requeued_frames: int = 0
    dropped_by_peer: dict[str, int] = field(default_factory=dict)

    def note_oldest_drop(self, peer: NodeId) -> None:
        self.dropped_oldest += 1
        key = str(peer)
        self.dropped_by_peer[key] = self.dropped_by_peer.get(key, 0) + 1

    def as_dict(self) -> dict[str, object]:
        """JSON-ready copy of every counter (for ``--stats-json``)."""
        return dict(asdict(self))


class MeshTransport(Protocol):
    """What the live network needs from a transport."""

    stats: TransportStats
    on_frame: FrameHandler | None

    @property
    def address(self) -> tuple[str, int]: ...

    def set_peer(self, peer: NodeId, host: str, port: int) -> None: ...

    def send(self, peer: NodeId, frame: bytes) -> None: ...

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]: ...

    async def close(self) -> None: ...

    def stats_snapshot(self) -> dict[str, object]: ...


# ---------------------------------------------------------------------------
# transport registry
# ---------------------------------------------------------------------------
TransportFactory = Callable[[NodeId], "MeshTransport"]

_TRANSPORT_REGISTRY: dict[str, TransportFactory] = {}


def register_transport(name: str, factory: TransportFactory) -> None:
    """Make ``factory`` constructible by name via :func:`create_transport`."""
    if name in _TRANSPORT_REGISTRY:
        raise ValueError(f"transport {name!r} is registered twice")
    _TRANSPORT_REGISTRY[name] = factory


def create_transport(name: str, node_id: NodeId) -> MeshTransport:
    """Build the transport registered under ``name`` for ``node_id``."""
    factory = _TRANSPORT_REGISTRY.get(name)
    if factory is None:
        raise ValueError(
            f"unknown transport {name!r} "
            f"(available: {', '.join(available_transports())})"
        )
    return factory(node_id)


def available_transports() -> tuple[str, ...]:
    return tuple(sorted(_TRANSPORT_REGISTRY))


# ---------------------------------------------------------------------------
# TCP mesh
# ---------------------------------------------------------------------------
#: Bytes asked of the kernel per read (above the UDP payload ceiling).
_READ_SIZE = 65536

#: Doublings after which the reconnect delay stops growing: the cap is
#: reached long before, and ``2**attempt`` overflows a float near 1024.
_BACKOFF_MAX_DOUBLINGS = 32


class _PeerChannel(asyncio.Protocol):
    """Outbound state for one peer — queue, connection, backoff — and
    the asyncio protocol of that connection.

    Carries its own counters so :meth:`TcpMeshTransport.stats_snapshot`
    can attribute reconnect churn and requeues to the peer that caused
    them (the global :class:`TransportStats` only sees totals).
    """

    __slots__ = (
        "owner",
        "addr",
        "queue",
        "transport",
        "connecting",
        "flushing",
        "paused",
        "in_flight",
        "reconnects",
        "connect_failures",
        "requeued_batches",
        "requeued_frames",
    )

    def __init__(self, owner: "TcpMeshTransport", addr: tuple[str, int]) -> None:
        self.owner = owner
        self.addr = addr
        self.queue: deque[bytes] = deque()
        self.transport: asyncio.WriteTransport | None = None
        self.connecting: asyncio.Task[None] | None = None
        #: a :meth:`flush` is scheduled for the next loop turn
        self.flushing = False
        #: the connection holds bytes the kernel has not taken yet
        self.paused = False
        #: the batch those bytes belong to: not yet counted as sent
        self.in_flight: list[bytes] = []
        self.reconnects = 0
        self.connect_failures = 0
        self.requeued_batches = 0
        self.requeued_frames = 0

    # -- connecting ------------------------------------------------------
    def connect(self) -> None:
        if self.connecting is None:
            self.connecting = asyncio.get_running_loop().create_task(self._connect())

    async def _connect(self) -> None:
        """Open the connection, retrying with capped deterministic
        backoff; every call starts again from the base delay."""
        owner = self.owner
        stats = owner.stats
        loop = asyncio.get_running_loop()
        attempt = 0
        try:
            while not owner._closed:
                try:
                    await loop.create_connection(lambda: self, *self.addr)
                except OSError:
                    stats.connect_failures += 1
                    self.connect_failures += 1
                    delay = min(
                        owner.backoff_base * 2 ** min(attempt, _BACKOFF_MAX_DOUBLINGS),
                        owner.backoff_cap,
                    )
                    attempt += 1
                    await asyncio.sleep(delay)
                    continue
                if attempt > 0:
                    stats.reconnects += 1
                    self.reconnects += 1
                return
        finally:
            self.connecting = None

    # -- asyncio.Protocol ------------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        connection = cast(asyncio.WriteTransport, transport)
        if self.owner._closed:
            connection.abort()
            return
        # pause as soon as one byte stays behind in user space: "paused"
        # then means exactly "the last batch is not with the kernel yet"
        connection.set_write_buffer_limits(high=0)
        self.transport = connection
        self.paused = False
        self.flush()

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        stats = self.owner.stats
        stats.frames_sent += len(self.in_flight)
        stats.bytes_sent += sum(map(len, self.in_flight))
        self.in_flight = []
        self.flush()

    def connection_lost(self, exc: Exception | None) -> None:
        self.transport = None
        self.paused = False
        if self.in_flight:
            # never counted as sent: back ahead of newer frames, so the
            # next connection re-sends it in order
            stats = self.owner.stats
            self.queue.extendleft(reversed(self.in_flight))
            stats.requeued_batches += 1
            stats.requeued_frames += len(self.in_flight)
            self.requeued_batches += 1
            self.requeued_frames += len(self.in_flight)
            self.in_flight = []
        if self.queue and not self.owner._closed:
            self.connect()

    # -- writing ---------------------------------------------------------
    def flush(self) -> None:
        """Hand the whole queue to the connection as one write."""
        self.flushing = False
        transport, queue = self.transport, self.queue
        if transport is None or self.paused or not queue or transport.is_closing():
            return  # resume_writing / the next connection picks the queue up
        payload = queue[0] if len(queue) == 1 else b"".join(queue)
        transport.write(payload)
        stats = self.owner.stats
        stats.writes += 1
        if self.paused or transport.is_closing():
            self.in_flight = list(queue)
        else:
            stats.frames_sent += len(queue)
            stats.bytes_sent += len(payload)
        queue.clear()


class _Inbound(asyncio.BufferedProtocol):
    """One accepted connection: reassemble, split, hand frames up in the
    loop turn that read them.  Inbound connections are never written to.

    Reads land in the owner's one read buffer (asyncio's plain
    ``data_received`` path allocates 256 kB for every ``recv``)."""

    __slots__ = ("owner", "buffer", "transport")

    def __init__(self, owner: "TcpMeshTransport") -> None:
        self.owner = owner
        self.buffer = bytearray()  # a partial frame between reads
        self.transport: asyncio.BaseTransport | None = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        if self.owner._closed:
            transport.close()  # accepted while the transport was closing
        else:
            self.owner._inbound.add(transport)

    def connection_lost(self, exc: Exception | None) -> None:
        if self.transport is not None:
            self.owner._inbound.discard(self.transport)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.owner._read_view

    def buffer_updated(self, nbytes: int) -> None:
        owner = self.owner
        if owner._closed:
            return
        self.buffer += owner._read_view[:nbytes]
        try:
            frames = split_frames(self.buffer)
        except CodecError:
            if self.transport is not None:
                self.transport.close()  # unframeable stream: this connection only
            return
        stats = owner.stats
        on_frame = owner.on_frame
        for frame in frames:
            stats.frames_received += 1
            stats.bytes_received += len(frame)
            if on_frame is not None:
                on_frame(frame)


class TcpMeshTransport:
    """A full mesh of TCP connections between named nodes.

    Frames carry the sender inside (the codec envelope), so inbound
    connections are read-only: any peer may connect and push frames, and
    this node pushes through its own outbound connections.
    """

    def __init__(
        self,
        node_id: NodeId,
        queue_limit: int = 1024,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.node_id = node_id
        self.queue_limit = queue_limit
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.stats = TransportStats()
        self.on_frame: FrameHandler | None = None
        self._peers: dict[NodeId, _PeerChannel] = {}
        self._server: asyncio.Server | None = None
        self._address: tuple[str, int] | None = None
        self._inbound: set[asyncio.BaseTransport] = set()
        #: where every inbound connection's ``recv_into`` lands (reads are
        #: consumed before the next one starts: one loop, no threads)
        self._read_view = memoryview(bytearray(_READ_SIZE))
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind the listening socket; returns the bound ``(host, port)``."""
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(lambda: _Inbound(self), host, port)
        sockname = self._server.sockets[0].getsockname()
        self._address = (str(sockname[0]), int(sockname[1]))
        return self._address

    @property
    def address(self) -> tuple[str, int]:
        if self._address is None:
            raise RuntimeError("transport not started")
        return self._address

    async def close(self) -> None:
        self._closed = True
        for channel in self._peers.values():
            if channel.connecting is not None:
                channel.connecting.cancel()
            if channel.transport is not None:
                channel.transport.close()
        for transport in list(self._inbound):
            transport.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await asyncio.sleep(0)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def set_peer(self, peer: NodeId, host: str, port: int) -> None:
        self._peers[peer] = _PeerChannel(self, (host, port))

    def send(self, peer: NodeId, frame: bytes) -> None:
        """Queue ``frame`` for ``peer`` (bounded; oldest dropped when full).

        The queue goes out as one write on the next loop turn; while the
        peer is unreachable or not reading, frames wait here under the
        same bound."""
        if self._closed:
            return
        channel = self._peers.get(peer)
        if channel is None:
            self.stats.dropped_unroutable += 1
            return
        queue = channel.queue
        if len(queue) >= self.queue_limit:
            queue.popleft()
            self.stats.note_oldest_drop(peer)
        queue.append(frame)
        if channel.transport is None:
            channel.connect()
        elif not (channel.flushing or channel.paused):
            channel.flushing = True
            asyncio.get_running_loop().call_soon(channel.flush)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict[str, object]:
        """Global counters plus per-peer channel state (``--stats-json``)."""
        peers: dict[str, object] = {}
        for peer in sorted(self._peers, key=str):
            channel = self._peers[peer]
            peers[str(peer)] = {
                "queue_depth": len(channel.queue),
                "dropped_oldest": self.stats.dropped_by_peer.get(str(peer), 0),
                "reconnects": channel.reconnects,
                "connect_failures": channel.connect_failures,
                "requeued_batches": channel.requeued_batches,
                "requeued_frames": channel.requeued_frames,
            }
        return {
            "transport": "tcp",
            "node": str(self.node_id),
            "stats": self.stats.as_dict(),
            "peers": peers,
        }


# ---------------------------------------------------------------------------
# UDP loopback
# ---------------------------------------------------------------------------
#: Datagrams read per readiness callback: enough to drain what a stall
#: queued in a few loop turns, bounded so one busy socket cannot starve
#: the pacer.
_UDP_READS_PER_TURN = 64

#: Datagrams held while the kernel's send buffer is full (drop-oldest
#: beyond it, counted like the TCP queue).
_UDP_BACKLOG_LIMIT = 1024


class UdpLoopbackTransport:
    """Datagram transport for in-process clusters.

    Loopback UDP gives real sockets and real serialization without
    connection management.  Frames queued for the same peer within one
    event-loop turn are packed into a single datagram (flushed via
    ``call_soon``, so coalescing never delays a frame past the current
    turn); the receive side splits packed datagrams on the length
    prefixes.  A frame above :data:`UDP_MAX_FRAME` — the *coalescing*
    bound, not the loopback MTU — is flushed around and sent standalone
    in its own datagram, counted in ``oversize_frames``; loopback's
    64kB MTU carries payloads up to ~65507 bytes, and anything the
    kernel still refuses (``EMSGSIZE``) is counted as
    ``dropped_oversize``.

    The socket is the transport's own, non-blocking, watched with
    ``add_reader``: one readiness callback drains every datagram the
    kernel holds (up to a fixed bound) and ``sendto`` goes straight to
    the kernel.  A send the kernel cannot take yet (``EAGAIN``) waits in
    a bounded backlog and is retried, in order, when the socket turns
    writable.
    """

    def __init__(self, node_id: NodeId) -> None:
        self.node_id = node_id
        self.stats = TransportStats()
        self.on_frame: FrameHandler | None = None
        self._peers: dict[NodeId, tuple[str, int]] = {}
        self._pending: dict[NodeId, list[bytes]] = {}
        self._pending_size: dict[NodeId, int] = {}
        #: datagrams the kernel had no room for: (peer, payload, frames)
        self._backlog: deque[tuple[NodeId, bytes, int]] = deque()
        self._sock: socket.socket | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._address: tuple[str, int] | None = None
        self._closed = False

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        loop = asyncio.get_running_loop()
        family, _type, _proto, _name, bind_to = (
            await loop.getaddrinfo(host, port, type=socket.SOCK_DGRAM)
        )[0]
        sock = socket.socket(family, socket.SOCK_DGRAM)
        try:
            sock.setblocking(False)
            sock.bind(bind_to)
        except OSError:
            sock.close()
            raise
        self._sock = sock
        self._loop = loop
        loop.add_reader(sock, self._on_readable)
        sockname = sock.getsockname()
        self._address = (str(sockname[0]), int(sockname[1]))
        return self._address

    @property
    def address(self) -> tuple[str, int]:
        if self._address is None:
            raise RuntimeError("transport not started")
        return self._address

    def set_peer(self, peer: NodeId, host: str, port: int) -> None:
        self._peers[peer] = (host, port)

    def send(self, peer: NodeId, frame: bytes) -> None:
        if self._closed or self._loop is None:
            return
        if peer not in self._peers:
            self.stats.dropped_unroutable += 1
            return
        if len(frame) > UDP_MAX_FRAME:
            # Too big to coalesce: flush whatever is already pending for
            # this peer first (preserving send order), then ship the
            # frame standalone in its own datagram.
            if peer in self._pending:
                self._flush(peer)
            self.stats.oversize_frames += 1
            self._sendto(peer, frame, 1)
            return
        pending = self._pending.get(peer)
        if pending is not None and self._pending_size[peer] + len(frame) > UDP_MAX_FRAME:
            self._flush(peer)  # keep the datagram under the size bound
            pending = None
        if pending is None:
            self._pending[peer] = [frame]
            self._pending_size[peer] = len(frame)
            self._loop.call_soon(self._flush, peer)
        else:
            pending.append(frame)
            self._pending_size[peer] += len(frame)

    def _flush(self, peer: NodeId) -> None:
        """Send the pending frames for ``peer`` as one packed datagram."""
        frames = self._pending.pop(peer, None)
        self._pending_size.pop(peer, None)
        if not frames or self._closed:
            return
        if peer not in self._peers:
            self.stats.dropped_unroutable += len(frames)
            return
        payload = frames[0] if len(frames) == 1 else b"".join(frames)
        self._sendto(peer, payload, len(frames))

    def _sendto(self, peer: NodeId, payload: bytes, frames: int) -> None:
        """One datagram to the kernel — or, when the kernel has no room
        or earlier datagrams still wait for it, to the bounded backlog."""
        sock, loop, backlog = self._sock, self._loop, self._backlog
        if sock is None or loop is None:
            return
        if not backlog:
            if self._try_send(sock, peer, payload, frames):
                return
            loop.add_writer(sock, self._on_writable)
        elif len(backlog) >= _UDP_BACKLOG_LIMIT:
            dropped_peer, _payload, dropped = backlog.popleft()
            for _ in range(dropped):
                self.stats.note_oldest_drop(dropped_peer)
        backlog.append((peer, payload, frames))

    def _try_send(
        self, sock: socket.socket, peer: NodeId, payload: bytes, frames: int
    ) -> bool:
        """``sendto``, counted once the kernel took the datagram; False
        when it has no room right now (the caller keeps the datagram)."""
        try:
            sock.sendto(payload, self._peers[peer])
        except (BlockingIOError, InterruptedError):
            return False
        except OSError as exc:
            # refused for good: an oversize frame is counted, anything
            # else is loss on the wire like any other datagram's
            if exc.errno == errno.EMSGSIZE:
                self.stats.dropped_oversize += 1
            return True
        self.stats.writes += 1
        self.stats.frames_sent += frames
        self.stats.bytes_sent += len(payload)
        return True

    def _on_writable(self) -> None:
        """The socket has room again: retry the backlog in order."""
        sock, loop, backlog = self._sock, self._loop, self._backlog
        if sock is None or loop is None:
            return
        while backlog:
            if not self._try_send(sock, *backlog[0]):
                return
            backlog.popleft()
        loop.remove_writer(sock)

    def _on_readable(self) -> None:
        """Drain the datagrams the kernel holds (asyncio's own datagram
        transport reads one per loop turn)."""
        sock = self._sock
        if sock is None:
            return
        for _ in range(_UDP_READS_PER_TURN):
            try:
                data = sock.recv(_READ_SIZE)
            except (BlockingIOError, InterruptedError):
                return
            self._on_datagram(data)

    def _on_datagram(self, data: bytes) -> None:
        if self._closed:
            return
        self.stats.bytes_received += len(data)
        buffer = bytearray(data)
        try:
            frames = split_frames(buffer)
        except CodecError:
            frames = []
        if buffer or not frames:
            # unframeable datagram: hand it up whole, the decoder
            # rejects it and the runtime counts the rejection
            self.stats.frames_received += 1
            if self.on_frame is not None:
                self.on_frame(data)
            return
        for frame in frames:
            self.stats.frames_received += 1
            if self.on_frame is not None:
                self.on_frame(frame)

    def stats_snapshot(self) -> dict[str, object]:
        """Global counters plus per-peer pending state (``--stats-json``)."""
        peers: dict[str, object] = {}
        for peer in sorted(self._peers, key=str):
            peers[str(peer)] = {
                "pending_frames": len(self._pending.get(peer, ())),
                "pending_bytes": self._pending_size.get(peer, 0),
            }
        return {
            "transport": "udp",
            "node": str(self.node_id),
            "stats": self.stats.as_dict(),
            "peers": peers,
        }

    async def close(self) -> None:
        for peer in list(self._pending):
            self._flush(peer)  # don't strand frames queued this turn
        self._closed = True
        sock, self._sock = self._sock, None
        if sock is not None and self._loop is not None:
            self._loop.remove_reader(sock)
            self._loop.remove_writer(sock)
            sock.close()
        await asyncio.sleep(0)


register_transport("tcp", TcpMeshTransport)
register_transport("udp", UdpLoopbackTransport)


__all__ = [
    "UDP_MAX_FRAME",
    "FrameHandler",
    "MeshTransport",
    "TcpMeshTransport",
    "TransportFactory",
    "TransportStats",
    "UdpLoopbackTransport",
    "available_transports",
    "create_transport",
    "register_transport",
]
