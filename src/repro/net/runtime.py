"""The runtime adapter: unchanged protocol code over real sockets.

Two pieces make the simulator's process model run live:

* :class:`LiveNetwork` subclasses :class:`repro.sim.network.Network`.
  Locally attached nodes (normally just the one this network belongs to)
  are delivered through the parent's scheduling path; every other
  receiver is wrapped in a :class:`~repro.net.codec.WireEnvelope`,
  encoded, and handed to a :class:`~repro.net.transport.MeshTransport`.
  Inbound frames are decoded and re-enter through the parent's
  ``_deliver`` — so daemons, servers and clients run byte-for-byte the
  same code as in simulation, including ``send``/``multicast``/
  ``set_timer`` semantics and all accounting.
* :class:`LiveRuntime` paces a real :class:`~repro.sim.engine.Simulator`
  against the asyncio wall clock: a *tick* — a plain loop callback, no
  task — runs ``run_until(elapsed)``, which executes every due timer
  and delivery, and arms one loop timer for the next protocol deadline;
  an inbound frame schedules a tick for the next loop turn.  Simulation
  time therefore *is* wall time, one second per second — protocol
  timeouts mean what they say, while every handler still executes
  inside the deterministic event loop with a consistent ``sim.now``.

Adversity on the live wire comes from :mod:`repro.net.faults`: wrapping
the transport in a :class:`~repro.net.faults.FaultyTransport` lets the
chaos engine partition, delay, duplicate and reorder real socket
traffic, as the link model the simulator reads too says (DESIGN.md §13
and §15 — this retired the old §11 caveat that loopback could not
partition).

Ingress is two-phase for replayability: the socket callback only
*schedules* the frame (capturing its ``(time, seq)`` heap coordinates,
optionally into an :class:`~repro.net.replay.IngressLog`) and all
decoding happens inside the event.  Since the arrival schedule is the
single wall-clock input to an otherwise deterministic event loop, a
recorded log replayed through ``Simulator.inject_at`` reproduces the
run bit-for-bit (see DESIGN.md §13).
"""

from __future__ import annotations

import asyncio
import ctypes
import os
import struct
from typing import Any, Callable

from repro.net.codec import (
    CodecError,
    WireEnvelope,
    decode_frame,
    encode_envelope_frame,
    encode_payload,
)
from repro.net.transport import MeshTransport
from repro.sim.engine import Simulator
from repro.sim.latency import FixedLatency
from repro.sim.network import Message, Network
from repro.sim.topology import NodeId, Topology
from repro.sim.trace import TraceLog

#: Callback invoked for every ingress frame with its scheduled heap
#: coordinates: ``(node, event_time, event_seq, raw_frame)``.  The live
#: chaos runner installs :meth:`repro.net.replay.IngressLog.record` here.
IngressRecorder = Callable[[NodeId, float, int, bytes], None]

#: What the selector rounds a ``call_at`` timeout up to, and therefore the
#: spacing the pacer keeps between timer-driven ticks (DESIGN.md §12).
_QUANTUM = 0.001

_CLOCK_MONOTONIC = 1  # what ``loop.time()`` reads
_TFD_TIMER_ABSTIME = 1
#: ``struct itimerspec``: interval then value, each a ``timespec`` of two
#: longs.  A zero interval makes a one-shot, a zero value disarms.
_ITIMERSPEC = struct.Struct("llll")


def _timerfd_libc() -> ctypes.CDLL | None:
    """libc with ``timerfd_create``/``timerfd_settime`` declared, or
    ``None`` where it has neither (anything but Linux).  ``os.timerfd_*``
    replaces this shim once the oldest supported Python is 3.13."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        create, settime = libc.timerfd_create, libc.timerfd_settime
    except (OSError, AttributeError):
        return None
    create.argtypes = (ctypes.c_int, ctypes.c_int)
    create.restype = ctypes.c_int
    settime.argtypes = (ctypes.c_int, ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p)
    settime.restype = ctypes.c_int
    return libc


class _TimerFd:
    """One kernel timer on the loop's clock, readable once it expired."""

    def __init__(self, libc: ctypes.CDLL) -> None:
        self._settime = libc.timerfd_settime
        self._spec = ctypes.create_string_buffer(_ITIMERSPEC.size)
        #: the instant last armed, expired or not; 0.0 when disarmed
        self.when = 0.0
        self.fd: int = libc.timerfd_create(_CLOCK_MONOTONIC, os.O_CLOEXEC)
        if self.fd < 0:
            errno = ctypes.get_errno()
            raise OSError(errno, f"timerfd_create: {os.strerror(errno)}")

    def arm(self, when: float) -> None:
        """Expire at ``loop.time() == when`` (at once if that is past); 0.0
        disarms.  Either way an expiry not yet read is forgotten, so the
        reader never has to ``read()`` one off."""
        seconds = int(when)
        _ITIMERSPEC.pack_into(
            self._spec, 0, 0, 0, seconds, int((when - seconds) * 1e9)
        )
        if self._settime(self.fd, _TFD_TIMER_ABSTIME, self._spec, None) < 0:
            errno = ctypes.get_errno()
            raise OSError(errno, f"timerfd_settime: {os.strerror(errno)}")
        self.when = when

    def close(self) -> None:
        os.close(self.fd)


class LiveNetwork(Network):
    """A per-node :class:`Network` whose remote links are real sockets.

    Every node of a live deployment owns one ``LiveNetwork`` (all of them
    may share one :class:`Simulator` when colocated in a process): sends
    to locally attached nodes use the inherited simulated path with zero
    latency, sends to anyone else cross the transport as encoded frames.
    """

    def __init__(
        self,
        sim: Simulator,
        transport: MeshTransport,
        trace: TraceLog | None = None,
        wake: Callable[[], None] | None = None,
        node_id: NodeId = "?",
        recorder: "IngressRecorder | None" = None,
    ) -> None:
        super().__init__(
            sim, Topology(), FixedLatency(0.0), trace=trace
        )
        self.transport = transport
        transport.on_frame = self._ingress
        self._wake = wake if wake is not None else lambda: None
        self.node_id = node_id
        self.recorder = recorder
        self.frames_rejected = 0
        #: actual encoded bytes per message kind, both directions (the
        #: liveness/data traffic split of ``--stats-json``)
        self.actual_bytes_sent: dict[str, int] = {}
        self.actual_bytes_received: dict[str, int] = {}
        # identity-keyed cache of recent payload encodings: a broadcast
        # constructs ONE message object and sends it to every peer, so the
        # payload is encoded once and only the envelope shell differs per
        # receiver.  Safe because wire messages are frozen and never
        # mutated after sending (the protocol convention the codec's
        # round-trip contract already relies on).
        self._encode_cache: list[tuple[Any, bytes]] = []
        self.encode_cache_hits = 0

    def set_wake(self, wake: Callable[[], None]) -> None:
        """Install the pacer's wake callback (set once the runtime exists)."""
        self._wake = wake

    # ------------------------------------------------------------------
    # outbound
    # ------------------------------------------------------------------
    def send(
        self,
        sender: NodeId,
        receiver: NodeId,
        payload: Any,
        kind: str = "msg",
        size: int = 1,
    ) -> Message:
        if receiver in self._handlers:
            return super().send(sender, receiver, payload, kind=kind, size=size)
        message = Message(
            sender=sender,
            receiver=receiver,
            payload=payload,
            kind=kind,
            size=size,
            send_time=self.sim.now,
            msg_id=next(self._msg_ids),
        )
        self._account_send((sender, receiver), kind, size, message.send_time)
        frame = encode_envelope_frame(
            sender, receiver, kind, size, self._payload_bytes(payload)
        )
        self.actual_bytes_sent[kind] = self.actual_bytes_sent.get(kind, 0) + len(frame)
        self.transport.send(receiver, frame)
        return message

    def _payload_bytes(self, payload: Any) -> bytes:
        """Encode ``payload`` once per object: rebroadcasts hit the cache."""
        for cached, raw in self._encode_cache:
            if cached is payload:
                self.encode_cache_hits += 1
                return raw
        raw = encode_payload(payload)
        self._encode_cache.append((payload, raw))
        if len(self._encode_cache) > 8:
            self._encode_cache.pop(0)
        return raw

    # ------------------------------------------------------------------
    # inbound
    # ------------------------------------------------------------------
    def _ingress(self, data: bytes) -> None:
        """One raw frame off the socket: schedule it, wake the pacer.

        This callback is the only place wall-clock timing enters the
        event loop, so it does the *minimum*: capture the frame's heap
        coordinates (recording them when a recorder is installed) and
        defer everything else — decoding, accounting, delivery — into
        the scheduled event, where replay can reproduce it exactly.
        """
        event = self.sim.schedule(
            0.0, lambda: self._ingest(data), label="live:frame"
        )
        if self.recorder is not None:
            self.recorder(self.node_id, event.time, event.seq, data)
        self._wake()

    def _ingest(self, data: bytes) -> None:
        """Decode and deliver one raw frame (runs inside the event loop,
        so handlers always see a consistent ``sim.now``; the unknown
        remote sender is "connected" by the topology's default-component
        rule)."""
        try:
            envelope = decode_frame(data)
        except CodecError:
            self.frames_rejected += 1
            self.trace.record(self.sim.now, "net", "live.frame_rejected", bytes=len(data))
            return
        if not isinstance(envelope, WireEnvelope):
            self.frames_rejected += 1
            self.trace.record(
                self.sim.now,
                "net",
                "live.frame_rejected",
                type=type(envelope).__name__,
            )
            return
        kind = envelope.kind
        self.actual_bytes_received[kind] = self.actual_bytes_received.get(
            kind, 0
        ) + len(data)
        message = Message(
            sender=envelope.sender,
            receiver=envelope.receiver,
            payload=envelope.payload,
            kind=kind,
            size=envelope.size,
            send_time=self.sim.now,
            msg_id=next(self._msg_ids),
        )
        self._deliver(message)


class LiveRuntime:
    """Paces one :class:`Simulator` against the asyncio wall clock.

    The pacer is a pair of wake-ups, not a task: :meth:`wake` is an
    idempotent ``call_soon`` of :meth:`_tick`, and every tick arms the
    next protocol deadline on one kernel timer — a ``timerfd`` under
    ``add_reader``, open for the length of :meth:`run` — because the
    selector rounds a ``call_at`` up to a whole millisecond, which was a
    third of a request's latency (DESIGN.md §12).  The timer is armed by
    leading edge + spacing: a deadline fires at its instant when the
    previous timer-driven tick was at least that millisecond ago,
    otherwise one millisecond after that tick — never later than
    ``call_at`` would have run it, and never more than 1000 timer-driven
    ticks a second, so dense timers coalesce as before.  Where libc has
    no ``timerfd`` the deadline goes to ``call_at``.  :meth:`run` only
    awaits the future the last tick resolves.

    ``io_slice`` bounds how much sim time one tick may replay before
    yielding to the event loop.  Without the bound, a stall (GC pause,
    scheduler hiccup) is replayed in one blocking call:
    failure-detector timers inside the stalled window fire while the
    peers' heartbeats from that same window still sit unread in kernel
    socket buffers — every node suspects every peer at once and the
    cluster fragments into singleton views for no reason.  Slicing the
    catch-up lets inbound frames land between slices, so liveness
    evidence is ingested before the suspicion deadlines it refutes.
    """

    def __init__(
        self, sim: Simulator, max_tick: float = 0.05, io_slice: float = 0.01
    ) -> None:
        self.sim = sim
        self.max_tick = max_tick
        self.io_slice = io_slice
        self._stopped = False
        # the run() window: loop, wall/sim origins, sim end, completion
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = 0.0
        self._origin = 0.0
        self._end = 0.0
        self._done: asyncio.Future[None] | None = None
        self._soon: asyncio.Handle | None = None
        # the armed deadline (0.0: none): on ``_timer`` when that is set,
        # else on ``_timerfd``, spaced after ``_last_expiry``
        self._armed = 0.0
        self._timer: asyncio.TimerHandle | None = None
        self._timerfd: _TimerFd | None = None
        self._last_expiry = 0.0

    def wake(self) -> None:
        """Run a tick on the next loop turn (an inbound frame was
        scheduled).  Any number of calls within one turn cause one tick;
        outside a :meth:`run` window there is nothing to wake."""
        if self._soon is None and self._loop is not None:
            self._soon = self._loop.call_soon(self._tick)

    def stop(self) -> None:
        """End :meth:`run` — at the current tick when called from inside
        a simulator event, on the next loop turn otherwise."""
        self._stopped = True
        self.wake()

    async def run(self, duration: float) -> None:
        """Advance the simulator in lock-step with the wall clock for
        ``duration`` seconds (of both).  An exception raised by a handler
        ends the run and is re-raised here."""
        if self._stopped:
            return
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._started = loop.time()
        self._origin = self.sim.now
        self._end = self._origin + duration
        self._done = loop.create_future()
        libc = _timerfd_libc()
        try:
            if libc is not None:
                self._timerfd = _TimerFd(libc)
                loop.add_reader(self._timerfd.fd, self._on_expiry)
            self._tick()
            await self._done
        finally:
            self._loop = self._done = None
            self._disarm(loop)

    def _disarm(self, loop: asyncio.AbstractEventLoop) -> None:
        if self._soon is not None:
            self._soon.cancel()
            self._soon = None
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._armed = 0.0
        timerfd, self._timerfd = self._timerfd, None
        if timerfd is not None:
            loop.remove_reader(timerfd.fd)
            timerfd.close()

    def _arm(self, loop: asyncio.AbstractEventLoop, when: float, late: bool) -> None:
        """Have a tick run at loop time ``when``: on the kernel timer, or
        — when there is none, or the tick is ``late`` and must queue
        behind this turn's socket reads — on a ``call_at``."""
        if when == self._armed:
            return  # woken by a frame: the armed deadline still stands
        self._armed = when
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        timerfd = self._timerfd
        if timerfd is None or late:
            self._timer = loop.call_at(when, self._on_timer)
            if timerfd is not None and timerfd.when:
                timerfd.arm(0.0)
        else:
            when = max(when, self._last_expiry + _QUANTUM)
            if when != timerfd.when:  # else spacing had put the old one there too
                timerfd.arm(when)

    def _on_timer(self) -> None:
        self._timer = None
        self._armed = 0.0
        self._tick()

    def _on_expiry(self) -> None:
        """The kernel timer expired.  Its readiness is an I/O event, which
        the loop may hand over *before* the socket reads of the same turn:
        after a stall that would run suspicion deadlines ahead of the
        heartbeats that refute them, so an expiry that arrives an
        ``io_slice`` late ticks from a due ``call_at`` like a catch-up
        slice does."""
        loop, timerfd = self._loop, self._timerfd
        if loop is None or timerfd is None:
            return
        expired = timerfd.when
        now = loop.time()
        if not 0.0 < expired <= now:
            return  # stale: a frame-driven tick of this turn re-armed it
        self._armed = 0.0
        if now - expired >= self.io_slice:
            self._arm(loop, now, late=True)
            return
        self._last_expiry = now
        self._tick()
        if timerfd.when == expired:
            timerfd.arm(0.0)  # the run is over: nothing re-armed it

    def _tick(self) -> None:
        """One pacer step: run at most ``io_slice`` of due events, then
        finish the run or arm the next deadline."""
        loop, done = self._loop, self._done
        if loop is None or done is None or done.done():
            return
        if self._soon is not None:
            self._soon.cancel()  # this tick serves that wake-up too
            self._soon = None
        sim = self.sim
        target = min(self._origin + (loop.time() - self._started), self._end)
        if not self._stopped:
            try:
                sim.run_until(min(sim.now + self.io_slice, target))
            except Exception as exc:
                done.set_exception(exc)
                return
        if self._stopped or sim.now >= self._end:
            done.set_result(None)
            return
        # catching up a long gap (``late``): a due *timer* runs after the
        # loop has polled the sockets, so frames that queued up in the
        # kernel are ingested between slices and heartbeats refute
        # suspicions in time order
        late = sim.now < target
        due = target
        if not late:
            due = min(target + self.max_tick, self._end)
            upcoming = sim.next_event_time()
            if upcoming is not None and upcoming < due:
                due = upcoming
        self._arm(loop, self._started + (due - self._origin), late)


__all__ = ["IngressRecorder", "LiveNetwork", "LiveRuntime"]
