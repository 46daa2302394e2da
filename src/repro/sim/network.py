"""Simulated message-passing network.

Semantics, chosen to match what the paper's GCS assumes of its transport:

* **FIFO per ordered pair** — delivery time is forced to be monotone per
  ``(sender, receiver)`` even when the latency model draws out of order.
* **Reliable while connected** — a message is delivered iff the topology
  permits ``sender -> receiver`` *both* when it is sent and when it would
  arrive, and the receiving process is up on arrival.  Messages in flight
  across a partition onset are therefore lost, exactly the window in which
  the GCS's view-change flush has to reconcile state.
* **No duplication, no corruption** — losses only, per the above.

The chaos engine (:mod:`repro.chaos`) can deliberately weaken the last two
guarantees and inflate individual links through the link model
(:class:`~repro.sim.topology.Topology`: duplication, reordering, per-link
delay spikes) — the gray-failure vocabulary Section 4's risk analysis
worries about.  The model holds that state; this network draws the
decisions, all from a dedicated seeded ``chaos_rng`` stream, so a chaotic
run stays bit-reproducible.

The network also keeps per-node send/receive accounting by message *kind*,
which experiment E2 (server load vs. configuration parameters) reads, and
per-*reason* drop counters (``random-loss``, ``disconnected-in-flight``,
``receiver-down``, ...) so chaos runs and tests can assert why messages
died rather than only how many.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

if TYPE_CHECKING:
    import numpy as np

from repro.sim.engine import Simulator
from repro.sim.latency import FixedLatency, LatencyModel
from repro.sim.topology import Link, NodeId, Topology
from repro.sim.trace import TraceLog


class Message(NamedTuple):
    """One network message.

    ``kind`` is a short string used for accounting and tracing (for example
    ``"heartbeat"``, ``"sequenced"``, ``"response"``); ``size`` is an
    abstract byte count used by the load metrics.  A named tuple: the
    network allocates one of these per send, making it one of the hottest
    allocation sites in the simulator.  :meth:`Network.send` builds it with
    ``tuple.__new__`` over the seven fields in order, which skips the
    generated Python ``__new__`` (≈ 0.15 µs against ≈ 0.7 µs); anything
    else may use the constructor.
    """

    sender: NodeId
    receiver: NodeId
    payload: Any
    kind: str
    size: int
    send_time: float
    msg_id: int


#: ``Message`` from a tuple of its fields, without the named tuple's
#: Python-level ``__new__``
_new_message = tuple.__new__


@dataclass(slots=True)
class LinkStats:
    sent: int = 0
    received: int = 0
    dropped: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    dropped_by_reason: dict[str, int] = field(default_factory=dict)

    def record_drop(self, reason: str) -> None:
        self.dropped += 1
        self.dropped_by_reason[reason] = self.dropped_by_reason.get(reason, 0) + 1

    def zero(self) -> None:
        self.sent = self.received = self.dropped = 0
        self.bytes_sent = self.bytes_received = 0
        self.dropped_by_reason.clear()


class _Route:
    """What every message of one ``(sender, receiver, kind)`` resolves to,
    found with one lookup per send instead of one per field: the ordered
    pair, the topology's :class:`~repro.sim.topology.Link` record, the
    receiver's :class:`LinkStats` for the kind and the shared
    ``net.deliver`` detail.  A delivery carries its route, so arriving
    costs no lookup either.

    Nothing here goes stale.  The topology refreshes its link records in
    place and replaces one only in ``remove_node``, which
    :meth:`Network.detach` calls after retiring the node's routes (so
    detach a node; do not remove it from the topology under a network);
    :meth:`Network.reset_stats` zeroes the receivers' records in place.
    The sender's side is not here: :meth:`Network._account_send` counts it,
    the one send-accounting seam both runtimes share.
    """

    __slots__ = ("key", "link", "received", "detail")

    def __init__(
        self,
        key: tuple[NodeId, NodeId],
        link: Link,
        received: LinkStats,
        detail: dict[str, Any],
    ) -> None:
        self.key = key
        self.link = link
        self.received = received
        self.detail = detail


#: the link of a retired route: a message in flight on it when its node
#: was detached takes the disconnected branch of the delivery, which
#: re-resolves it the way a fresh one would be
_RETIRED = Link(False)


class Network:
    """Connects :class:`~repro.sim.process.Process` instances through the
    simulator.

    Processes register themselves via :meth:`attach`; a message's delivery
    is a simulator call entry (:meth:`~repro.sim.engine.Simulator.call_at`)
    at a latency drawn from ``latency_model``.
    """

    __slots__ = (
        "sim",
        "topology",
        "latency_model",
        "trace",
        "loss_probability",
        "_loss_rng",
        "_chaos_rng",
        "total_duplicated",
        "total_reordered",
        "_handlers",
        "_is_up",
        "_msg_ids",
        "_last_delivery",
        "_last_send",
        "_routes",
        "_deliver_details",
        "_stats_sent",
        "_stats_received",
        "total_sent",
        "total_delivered",
        "total_dropped",
        "dropped_by_reason",
    )

    def __init__(
        self,
        sim: Simulator,
        topology: Topology | None = None,
        latency_model: LatencyModel | None = None,
        trace: TraceLog | None = None,
        loss_probability: float = 0.0,
        loss_rng: np.random.Generator | None = None,
        chaos_rng: np.random.Generator | None = None,
    ) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")
        if loss_probability > 0.0 and loss_rng is None:
            raise ValueError("a seeded loss_rng is required when losses are on")
        self.sim = sim
        self.topology = topology if topology is not None else Topology()
        self.latency_model = latency_model or FixedLatency(0.001)
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        self.loss_probability = loss_probability
        self._loss_rng = loss_rng
        # chaos adversity is drawn here, set in the topology (see repro.chaos)
        self._chaos_rng = chaos_rng
        if chaos_rng is None:
            self.topology.refuse_adversity(
                "a seeded chaos_rng is required for duplication/reordering"
            )
        self.total_duplicated = 0
        self.total_reordered = 0
        self._handlers: dict[NodeId, Callable[[Message], None]] = {}
        self._is_up: dict[NodeId, Callable[[], bool]] = {}
        self._msg_ids = itertools.count()
        self._last_delivery: dict[tuple[NodeId, NodeId], float] = {}
        self._last_send: dict[tuple[NodeId, NodeId], float] = {}
        self._routes: dict[tuple[NodeId, NodeId, str], _Route] = {}
        # the ``net.deliver`` trace detail, one shared read-only dict per
        # (sender, kind): a delivery records no object of its own
        self._deliver_details: dict[tuple[NodeId, str], dict[str, Any]] = {}
        self._stats_sent: dict[NodeId, dict[str, LinkStats]] = defaultdict(
            lambda: defaultdict(LinkStats)
        )
        self._stats_received: dict[NodeId, dict[str, LinkStats]] = defaultdict(
            lambda: defaultdict(LinkStats)
        )
        self.total_sent = 0
        self.total_delivered = 0
        self.total_dropped = 0
        self.dropped_by_reason: dict[str, int] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def attach(
        self,
        node: NodeId,
        handler: Callable[[Message], None],
        is_up: Callable[[], bool],
    ) -> None:
        """Register a node's delivery handler and liveness predicate."""
        self._handlers[node] = handler
        self._is_up[node] = is_up
        self.topology.add_node(node)

    def detach(self, node: NodeId) -> None:
        self._handlers.pop(node, None)
        self._is_up.pop(node, None)
        for key, route in list(self._routes.items()):
            if node in route.key:
                route.link = _RETIRED
                del self._routes[key]
        self.topology.remove_node(node)

    @property
    def nodes(self) -> frozenset[NodeId]:
        return frozenset(self._handlers)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(
        self,
        sender: NodeId,
        receiver: NodeId,
        payload: Any,
        kind: str = "msg",
        size: int = 1,
    ) -> Message:
        """Send one message; returns the :class:`Message` envelope.

        Drops (with accounting) if the topology forbids the send right now.
        Delivery is still conditional on connectivity and receiver liveness
        at arrival time.
        """
        now = self.sim.now
        message = _new_message(
            Message,
            (sender, receiver, payload, kind, size, now, next(self._msg_ids)),
        )
        route = self._routes.get((sender, receiver, kind))
        if route is None:
            route = self._route(sender, receiver, kind)
        key = route.key
        self._account_send(key, kind, size, now)
        link = route.link
        if not link.connected:
            self._drop(message, reason="disconnected-at-send")
            return message
        if (
            self.loss_probability > 0.0
            and sender != receiver
            and self._loss_rng.random() < self.loss_probability
        ):
            self._drop(message, reason="random-loss")
            return message

        latency = self.latency_model.sample(sender, receiver) + link.extra_delay
        arrival = now + latency
        topology = self.topology
        reordered = (
            topology.reorder_probability > 0.0
            and sender != receiver
            and self._chaos_rng.random() < topology.reorder_probability
        )
        if reordered:
            # FIFO-exempt: an extra bounded delay without advancing the
            # pair's monotone clamp, so later sends can overtake this one.
            arrival += float(self._chaos_rng.uniform(0.0, topology.reorder_window))
            self.total_reordered += 1
        else:
            # Enforce FIFO per ordered pair.
            previous = self._last_delivery.get(key, -1.0)
            if arrival <= previous:
                arrival = previous + 1e-9
            self._last_delivery[key] = arrival
        call_at = self.sim.call_at
        call_at(arrival, self._deliver_on, route, message)
        if (
            topology.duplicate_probability > 0.0
            and sender != receiver
            and self._chaos_rng.random() < topology.duplicate_probability
        ):
            # the duplicate trails the original and skips the FIFO clamp
            echo = arrival + float(self._chaos_rng.uniform(0.0, 0.002))
            self.total_duplicated += 1
            call_at(echo, self._deliver_on, route, message)
        return message

    def _route(self, sender: NodeId, receiver: NodeId, kind: str) -> _Route:
        """Resolve and keep the route of ``(sender, receiver, kind)``."""
        key = (sender, receiver)
        detail = self._deliver_details.get((sender, kind))
        if detail is None:
            detail = self._deliver_details[(sender, kind)] = {
                "sender": sender,
                "kind": kind,
            }
        route = self._routes[(sender, receiver, kind)] = _Route(
            key,
            self.topology.link(sender, receiver),
            self._stats_received[receiver][kind],
            detail,
        )
        return route

    def _account_send(
        self, key: tuple[NodeId, NodeId], kind: str, size: int, now: float
    ) -> None:
        """Sender-side bookkeeping of one send on link ``key`` — shared
        with :class:`~repro.net.runtime.LiveNetwork`, whose remote sends
        bypass :meth:`send`, so higher layers (heartbeat piggybacking, E2
        load metrics) see one coherent view on both runtimes."""
        self.total_sent += 1
        self._last_send[key] = now
        sent_stats = self._stats_sent[key[0]][kind]
        sent_stats.sent += 1
        sent_stats.bytes_sent += size

    def multicast(
        self,
        sender: NodeId,
        receivers: list[NodeId],
        payload: Any,
        kind: str = "msg",
        size: int = 1,
        include_self: bool = True,
    ) -> None:
        """Send ``payload`` point-to-point to each receiver (no IP multicast
        is assumed; the GCS builds its guarantees above this)."""
        for receiver in receivers:
            if receiver == sender and not include_self:
                continue
            self.send(sender, receiver, payload, kind=kind, size=size)

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def _deliver(self, message: Message) -> None:
        """Deliver ``message`` now, resolving its route (a frame off the
        wire, or a message whose route was retired in flight)."""
        sender, receiver, kind = message.sender, message.receiver, message.kind
        route = self._routes.get((sender, receiver, kind))
        if route is None:
            route = self._route(sender, receiver, kind)
        self._deliver_on(route, message)

    def _deliver_on(self, route: _Route, message: Message) -> None:
        if not route.link.connected:
            if route.link is _RETIRED:
                self._deliver(message)
            else:
                self._drop(message, reason="disconnected-in-flight")
            return
        # the receiver's liveness is read here, once: its handler trusts it
        receiver = message.receiver
        handler = self._handlers.get(receiver)
        if handler is None or not self._is_up[receiver]():
            self._drop(message, reason="receiver-down")
            return
        self.total_delivered += 1
        stats = route.received
        stats.received += 1
        stats.bytes_received += message.size
        self.trace.record_detail(self.sim.now, receiver, "net.deliver", route.detail)
        handler(message)

    def _drop(self, message: Message, reason: str) -> None:
        self.total_dropped += 1
        self.dropped_by_reason[reason] = self.dropped_by_reason.get(reason, 0) + 1
        self._stats_sent[message.sender][message.kind].record_drop(reason)
        self.trace.record_detail(
            self.sim.now,
            message.sender,
            "net.drop",
            {"receiver": message.receiver, "kind": message.kind, "reason": reason},
        )

    # ------------------------------------------------------------------
    # accounting (read by experiment E2)
    # ------------------------------------------------------------------
    def dropped_count(
        self, reason: str | None = None, node: NodeId | None = None
    ) -> int:
        """Messages dropped, optionally filtered by drop reason and/or by
        the sending node (chaos oracles assert *why* messages died)."""
        if node is None:
            if reason is None:
                return self.total_dropped
            return self.dropped_by_reason.get(reason, 0)
        stats = self._stats_sent.get(node, {})
        if reason is None:
            return sum(s.dropped for s in stats.values())
        return sum(s.dropped_by_reason.get(reason, 0) for s in stats.values())

    def drop_reasons(self) -> dict[str, int]:
        """All drop reasons seen so far with their counts."""
        return dict(self.dropped_by_reason)

    def sent_count(self, node: NodeId, kind: str | None = None) -> int:
        stats = self._stats_sent.get(node, {})
        if kind is not None:
            return stats[kind].sent if kind in stats else 0
        return sum(s.sent for s in stats.values())

    def received_count(self, node: NodeId, kind: str | None = None) -> int:
        stats = self._stats_received.get(node, {})
        if kind is not None:
            return stats[kind].received if kind in stats else 0
        return sum(s.received for s in stats.values())

    def sent_kind_stats(self, node: NodeId) -> dict[str, tuple[int, int]]:
        """Per-kind ``(frames, abstract_bytes)`` sent by ``node`` — the
        source for the liveness-vs-data traffic split in stats reports
        and the membership bench."""
        return {
            kind: (stats.sent, stats.bytes_sent)
            for kind, stats in self._stats_sent.get(node, {}).items()
        }

    def received_bytes(self, node: NodeId, kind: str | None = None) -> int:
        stats = self._stats_received.get(node, {})
        if kind is not None:
            return stats[kind].bytes_received if kind in stats else 0
        return sum(s.bytes_received for s in stats.values())

    def last_sent_at(self, sender: NodeId, receiver: NodeId) -> float:
        """Simulation time of ``sender``'s most recent send to ``receiver``
        (``-inf`` if it never sent one).  This is transport-level metadata:
        the GCS heartbeat layer uses it to suppress an explicit heartbeat
        to a peer that recent protocol traffic already covers."""
        return self._last_send.get((sender, receiver), -math.inf)

    def kinds_received(self, node: NodeId) -> dict[str, int]:
        """Per-kind received message counts for ``node``."""
        return {
            kind: stats.received
            for kind, stats in self._stats_received.get(node, {}).items()
            if stats.received
        }

    def reset_stats(self) -> None:
        """Zero the accounting (used to exclude warm-up from measurements).

        A route holds its receiver's record, so those are zeroed in place
        — a message in flight across the cut counts its delivery after it
        — and :meth:`kinds_received` skips a record nothing reached since."""
        self._stats_sent.clear()
        for per_kind in self._stats_received.values():
            for stats in per_kind.values():
                stats.zero()
        self.total_sent = 0
        self.total_delivered = 0
        self.total_dropped = 0
        self.dropped_by_reason.clear()
        self.total_duplicated = 0
        self.total_reordered = 0


__all__ = ["LinkStats", "Message", "Network"]
