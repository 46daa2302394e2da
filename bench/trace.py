"""Spans at the stack's public seams, recorded from outside ``src/``.

A traced run builds the same cluster from recording subclasses / wrappers:

===================  =====================================================
seam                 what it records
===================  =====================================================
``ServiceClient``    ``send_update`` (span, keyed ``(session, counter)``),
                     ``on_ptp`` (first response reflecting each counter)
``LiveNetwork``      ``send`` (span per frame; first ``ClientMcast`` time)
``MeshTransport``    ``send`` (span, frame corpus, send instant per frame),
                     ``on_frame`` (wire time, FIFO-matched by frame bytes;
                     raw frames into ``c0`` for the offline ``ClientAck`` scan)
``Simulator``        ``run_until`` (busy time and wake-ups of the pacer)
application          ``apply_update`` / ``respond_to_update`` /
                     ``next_responses`` (time per call)
``FrameworkServer``  ``on_group_message`` (span; delivery instant of every
                     ``ContextUpdate``), ``on_config_view``, ``on_group_view``
===================  =====================================================

Spans nest (``sim.run_until`` > ``server.deliver`` > ``app.*`` /
``net.send`` > ``transport.send``); a span's *self* time is its duration
minus the part its children cover.  Everything stays in memory and is
written to ``bench/out/`` when the run ends.  End-to-end numbers never come
from a traced run; the difference between the two is ``trace.overhead_share``.
"""

from __future__ import annotations

import time
from array import array
from collections import deque
from typing import Any

from repro.core.server import FrameworkServer
from repro.core.wire import ContextUpdate, ResponseMsg
from repro.gcs.messages import ClientMcast
from repro.net.runtime import LiveNetwork
from repro.net.transport import MeshTransport
from repro.sim.engine import Simulator

from bench.live import CLIENT_ID, ObservedClient, Seams

_now = time.monotonic
#: frames kept for the codec replay (reservoir: the first ``CORPUS_CAP``)
CORPUS_CAP = 30_000
PROBE_PERIOD = 0.005


class Tracer:
    """The in-memory record of one traced run."""

    def __init__(self) -> None:
        #: span name -> [count, total seconds, self seconds]
        self.spans: dict[str, list[float]] = {}
        self._stack: list[float] = []
        # keyed request instants (wall clock)
        self.sent: dict[tuple[str, int], float] = {}
        self.delivered: dict[tuple[str, int], tuple[float, str]] = {}
        self.responded: dict[tuple[str, int], float] = {}
        self._answered_up_to: dict[str, int] = {}
        self.mcast_at: dict[Any, float] = {}
        # transport
        self.corpus: list[bytes] = []
        self._inflight: dict[bytes, deque[float]] = {}
        self.wire = array("d")
        self.client_inbound: list[tuple[float, bytes]] = []
        # runtime
        self.pacer_lag = array("d")
        # membership
        self.config_views: list[tuple[float, str, frozenset[str]]] = []
        self.enabled = False

    # ------------------------------------------------------------------
    # span core
    # ------------------------------------------------------------------
    def enter(self) -> float:
        self._stack.append(0.0)
        return _now()

    def exit(self, name: str, started: float) -> None:
        elapsed = _now() - started
        children = self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed
        if not self.enabled:
            return
        entry = self.spans.get(name)
        if entry is None:
            entry = self.spans[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - children

    def count(self, name: str) -> int:
        return int(self.spans.get(name, (0, 0.0, 0.0))[0])

    def total(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def reset(self) -> None:
        """Forget what set-up recorded; measure from here."""
        self.spans.clear()
        self.wire = array("d")
        self.pacer_lag = array("d")
        self.corpus.clear()
        self.client_inbound.clear()
        self.enabled = True

    # ------------------------------------------------------------------
    # the recording cluster
    # ------------------------------------------------------------------
    def seams(self) -> Seams:
        tracer = self
        return Seams(
            simulator=lambda: TracedSimulator(tracer),
            network=lambda *a, **k: TracedNetwork(tracer, *a, **k),
            server=lambda **k: TracedServer(tracer, **k),
            client=lambda *a, **k: TracedClient(tracer, *a, **k),
            transport=lambda node, inner: TracedTransport(tracer, node, inner),
            application=lambda app: TracedApplication(tracer, app),
        )

    def arm_pacer_probe(self, harness: Any, until: float) -> None:
        """Schedule 5 ms probe events that record wall clock minus cluster
        time (how far the pacer runs behind) up to cluster time ``until``."""
        sim = harness.sim

        def probe() -> None:
            if self.enabled:
                self.pacer_lag.append(_now() - harness.wall_of(sim.now))
            if sim.now + PROBE_PERIOD < until:
                sim.schedule(PROBE_PERIOD, probe, label="bench:pacer-probe")

        sim.schedule(PROBE_PERIOD, probe, label="bench:pacer-probe")


class TracedSimulator(Simulator):
    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def run_until(self, time: float, max_events: int | None = None) -> None:
        started = self.tracer.enter()
        try:
            super().run_until(time, max_events)
        finally:
            self.tracer.exit("sim.run_until", started)


class TracedNetwork(LiveNetwork):
    def __init__(self, tracer: Tracer, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.tracer = tracer

    def send(self, sender: Any, receiver: Any, payload: Any, kind: str = "msg",
             size: int = 1) -> Any:
        tracer = self.tracer
        if type(payload) is ClientMcast and payload.request_id not in tracer.mcast_at:
            tracer.mcast_at[payload.request_id] = _now()
        started = tracer.enter()
        try:
            return super().send(sender, receiver, payload, kind=kind, size=size)
        finally:
            tracer.exit("net.send", started)


class TracedTransport:
    """Pass-through :class:`MeshTransport` wrapper (the ``FaultyTransport``
    pattern): ``stats`` is the inner object, ``on_frame`` is intercepted."""

    def __init__(self, tracer: Tracer, node: str, inner: MeshTransport) -> None:
        self.tracer = tracer
        self.node = node
        self.inner = inner
        self.stats = inner.stats
        self._handler: Any = None
        inner.on_frame = self._received

    @property
    def on_frame(self) -> Any:
        return self._handler

    @on_frame.setter
    def on_frame(self, handler: Any) -> None:
        self._handler = handler

    @property
    def address(self) -> tuple[str, int]:
        return self.inner.address

    def set_peer(self, peer: Any, host: str, port: int) -> None:
        self.inner.set_peer(peer, host, port)

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        return await self.inner.start(host, port)

    async def close(self) -> None:
        await self.inner.close()

    def stats_snapshot(self) -> dict[str, object]:
        return self.inner.stats_snapshot()

    def send(self, peer: Any, frame: bytes) -> None:
        tracer = self.tracer
        started = tracer.enter()
        try:
            self.inner.send(peer, frame)
        finally:
            tracer.exit("transport.send", started)
        if tracer.enabled:
            if len(tracer.corpus) < CORPUS_CAP:
                tracer.corpus.append(frame)
            queue = tracer._inflight.get(frame)
            if queue is None:
                tracer._inflight[frame] = deque((_now(),))
            else:
                queue.append(_now())

    def _received(self, frame: bytes) -> None:
        tracer = self.tracer
        arrived = _now()
        queue = tracer._inflight.get(frame)
        if queue:
            tracer.wire.append(arrived - queue.popleft())
            if not queue:
                del tracer._inflight[frame]
        if self.node == CLIENT_ID and tracer.enabled:
            tracer.client_inbound.append((arrived, frame))
        if self._handler is not None:
            started = tracer.enter()
            try:
                self._handler(frame)
            finally:
                tracer.exit("transport.on_frame", started)


class TracedApplication:
    """Times every call into the wrapped ``ServiceApplication``; everything
    else is delegated untouched."""

    def __init__(self, tracer: Tracer, inner: Any) -> None:
        self.tracer = tracer
        self.inner = inner

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    def apply_update(self, state: Any, update: Any) -> Any:
        started = self.tracer.enter()
        try:
            return self.inner.apply_update(state, update)
        finally:
            self.tracer.exit("app.apply_update", started)

    def respond_to_update(self, state: Any, update: Any) -> Any:
        started = self.tracer.enter()
        try:
            return self.inner.respond_to_update(state, update)
        finally:
            self.tracer.exit("app.respond_to_update", started)

    def next_responses(self, state: Any) -> Any:
        started = self.tracer.enter()
        try:
            return self.inner.next_responses(state)
        finally:
            self.tracer.exit("app.next_responses", started)


class TracedServer(FrameworkServer):
    def __init__(self, tracer: Tracer, **kwargs: Any) -> None:
        self.tracer = tracer
        super().__init__(**kwargs)

    def on_group_message(self, group: str, origin: Any, payload: object, seq: int) -> None:
        tracer = self.tracer
        if type(payload) is ContextUpdate and payload.session_id in self.primaries:
            key = (payload.session_id, payload.counter)
            if key not in tracer.delivered:
                tracer.delivered[key] = (_now(), self.server_id)
        started = tracer.enter()
        try:
            super().on_group_message(group, origin, payload, seq)
        finally:
            tracer.exit("server.deliver", started)

    def on_config_view(self, config: Any) -> None:
        self.tracer.config_views.append(
            (_now(), self.server_id, frozenset(str(m) for m in config.members))
        )
        super().on_config_view(config)

    def on_group_view(self, view: Any) -> None:
        started = self.tracer.enter()
        try:
            super().on_group_view(view)
        finally:
            self.tracer.exit("server.group_view", started)


class TracedClient(ObservedClient):
    def __init__(self, tracer: Tracer, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.tracer = tracer

    def send_update(self, handle: Any, update: Any) -> int:
        tracer = self.tracer
        started = tracer.enter()
        try:
            counter = super().send_update(handle, update)
        finally:
            tracer.exit("client.send_update", started)
        if tracer.enabled:
            tracer.sent[(handle.session_id, counter)] = started
        return counter

    def on_ptp(self, sender: Any, payload: Any) -> None:
        if isinstance(payload, ResponseMsg):
            tracer = self.tracer
            now = _now()
            session_id = payload.session_id
            done = tracer._answered_up_to.get(session_id, 0)
            if payload.based_on_update > done:
                for counter in range(done + 1, payload.based_on_update + 1):
                    tracer.responded[(session_id, counter)] = now
                tracer._answered_up_to[session_id] = payload.based_on_update
        started = self.tracer.enter()
        try:
            super().on_ptp(sender, payload)
        finally:
            self.tracer.exit("client.on_ptp", started)
