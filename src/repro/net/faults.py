"""Fault injection for live transports.

:class:`FaultyTransport` wraps any :class:`~repro.net.transport.MeshTransport`
and perturbs its *outbound* traffic as the link model says.  The model is
:class:`~repro.sim.topology.Topology`, the same class the simulator reads:
partitions, directed link cuts, per-link delay spikes, duplication and
reordering are held there once, and a wrapper reads the model's record
of its link (``model.link(self.node_id, peer)``) at send and again when a
held frame fires.  What stays per wrapper is what is particular to the live
wire: the per-link base delay and jitter of a WAN matrix
(:data:`WAN_PROFILES`), and the draws.

Determinism contract: every injection decision on a directed link is
drawn from ``numpy.random.default_rng([seed, h(src), h(dst)])`` where
``h`` is a stable digest of the node id — so two runs with the same
seed, the same node names, and the same per-link frame sequence make
identical duplicate/hold/jitter decisions.  (Wall-clock delivery of a
*delayed* frame still lands wherever the event loop puts it; the
bit-reproducible replay story lives one layer up, in the ingress frame
log — see :mod:`repro.net.replay`.)

:class:`FaultPlane` is the model, the wrappers that read it, the WAN
install and the control-channel parser: :meth:`FaultPlane.apply` takes
the chaos schedule's own vocabulary (``partition``, ``heal``,
``cut_link``, ``delay_link``, ``duplicate``, ``reorder``, … plus
``clear_all``), validated by :meth:`repro.faults.schedule.FaultEvent.from_json`
and applied by :func:`repro.faults.injector.apply_link`, exactly as a
schedule is.  :class:`FaultControlServer` exposes the plane over a
JSON-lines TCP socket so an external process can drive faults against a
running ``repro serve`` node.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from repro.faults.injector import apply_link
from repro.faults.schedule import FaultEvent
from repro.net.transport import (
    FrameHandler,
    MeshTransport,
    TcpMeshTransport,
    TransportStats,
    UdpLoopbackTransport,
    register_transport,
)
from repro.sim.topology import NodeId, Topology


def _stable_hash(node: NodeId) -> int:
    """A platform-stable 31-bit integer for seeding per-link RNG streams
    (``hash()`` is salted per process, which would break determinism)."""
    digest = hashlib.sha256(str(node).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


@dataclass(slots=True)
class FaultStats:
    """Counters for injected faults (separate from transport traffic
    stats, so oracles can distinguish injected loss from real loss)."""

    severed_drops: int = 0
    in_flight_killed: int = 0
    duplicated: int = 0
    reordered: int = 0
    delayed: int = 0

    def as_dict(self) -> dict[str, object]:
        return dict(asdict(self))


class _LinkState:
    """What a wrapper keeps per directed link (this node → peer): the WAN
    matrix's base delay and jitter, and the link's decision stream."""

    __slots__ = ("base_delay", "jitter", "rng")

    def __init__(self, rng: np.random.Generator) -> None:
        self.base_delay = 0.0
        self.jitter = 0.0
        self.rng = rng


class FaultyTransport:
    """A :class:`MeshTransport` wrapper that injects link faults.

    Wraps transparently: ``stats`` is the inner transport's stats object
    and ``on_frame`` forwards to the inner transport, so the runtime
    cannot tell it is talking to a wrapped transport.  ``model`` is the
    link model it obeys — its own, fault-free one until a
    :class:`FaultPlane` adopts it — so with no faults injected (the
    ``faulty-tcp`` / ``faulty-udp`` registry entries) every frame passes
    straight through with zero added latency.
    """

    def __init__(self, inner: MeshTransport, seed: int = 0) -> None:
        self.inner = inner
        self.seed = seed
        self.node_id: NodeId = getattr(inner, "node_id", "?")
        self.stats: TransportStats = inner.stats
        self.faults = FaultStats()
        self.model = Topology()
        self._links: dict[NodeId, _LinkState] = {}
        self._timers: set[asyncio.TimerHandle] = set()
        self._closed = False

    # ------------------------------------------------------------------
    # MeshTransport surface (delegation)
    # ------------------------------------------------------------------
    @property
    def on_frame(self) -> FrameHandler | None:
        return self.inner.on_frame

    @on_frame.setter
    def on_frame(self, handler: FrameHandler | None) -> None:
        self.inner.on_frame = handler

    @property
    def address(self) -> tuple[str, int]:
        return self.inner.address

    def set_peer(self, peer: NodeId, host: str, port: int) -> None:
        self.inner.set_peer(peer, host, port)

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        return await self.inner.start(host, port)

    async def close(self) -> None:
        self._closed = True
        for handle in list(self._timers):
            handle.cancel()
        self._timers.clear()
        await self.inner.close()

    def stats_snapshot(self) -> dict[str, object]:
        snapshot = self.inner.stats_snapshot()
        snapshot["faults"] = self.faults.as_dict()
        snapshot["severed_links"] = sorted(
            str(peer)
            for peer in self._links
            if not self.model.connected(self.node_id, peer)
        )
        return snapshot

    def _link(self, peer: NodeId) -> _LinkState:
        link = self._links.get(peer)
        if link is None:
            rng = np.random.default_rng(
                [self.seed, _stable_hash(self.node_id), _stable_hash(peer)]
            )
            link = _LinkState(rng)
            self._links[peer] = link
        return link

    def set_base_delay(self, peer: NodeId, base: float, jitter: float = 0.0) -> None:
        """The WAN matrix's one-way delay to ``peer`` (topology rather
        than fault: :meth:`Topology.clear_all` leaves it)."""
        link = self._link(peer)
        link.base_delay = base
        link.jitter = jitter

    # ------------------------------------------------------------------
    # sending (the injection point)
    # ------------------------------------------------------------------
    def send(self, peer: NodeId, frame: bytes) -> None:
        if self._closed:
            return
        model = self.model
        fault = model.link(self.node_id, peer)  # the model's record of it
        if not fault.connected:
            self.faults.severed_drops += 1
            return
        link = self._link(peer)
        # Always burn four draws per frame so the decision stream stays
        # aligned with the frame index no matter which faults are active
        # — that is what makes same-seed runs take identical decisions.
        # The layout is fixed (draw 0 is spare; duplicate, hold, jitter).
        draws = link.rng.random(4)
        duplicate = (
            model.duplicate_probability > 0.0
            and draws[1] < model.duplicate_probability
        )
        delay = link.base_delay + fault.extra_delay
        if link.jitter > 0.0:
            delay += float(draws[3]) * link.jitter
        if model.reorder_probability > 0.0 and draws[2] < model.reorder_probability:
            # Holding one frame back while its successors go out on time
            # is exactly a bounded FIFO violation.
            delay += model.reorder_window
            self.faults.reordered += 1
        if duplicate:
            self.faults.duplicated += 1
        if delay <= 0.0:
            self.inner.send(peer, frame)
            if duplicate:
                self.inner.send(peer, frame)
            return
        self.faults.delayed += 1
        copies = 2 if duplicate else 1
        loop = asyncio.get_running_loop()
        handle: asyncio.TimerHandle | None = None

        def fire() -> None:
            if handle is not None:
                self._timers.discard(handle)
            if self._closed:
                return
            if not self.model.link(self.node_id, peer).connected:
                # the link was cut while the frame was in flight
                self.faults.in_flight_killed += 1
                return
            for _ in range(copies):
                self.inner.send(peer, frame)

        handle = loop.call_later(delay, fire)
        self._timers.add(handle)


# ---------------------------------------------------------------------------
# cluster-wide coordination
# ---------------------------------------------------------------------------
class FaultPlane:
    """One link model and the :class:`FaultyTransport` wrappers that obey
    it — a whole in-process cluster's, or the one wrapper of a
    ``repro serve`` node, which then obeys a partition that names nodes
    in other processes exactly as a simulated network would.  The model
    is what a live cluster's ``faults`` is: schedules drive it through
    :func:`repro.faults.injector.apply`, the control channel through
    :meth:`apply`."""

    def __init__(self) -> None:
        self.model = Topology()
        self._transports: dict[NodeId, FaultyTransport] = {}

    def adopt(self, node: NodeId, transport: FaultyTransport) -> None:
        self._transports[node] = transport
        transport.model = self.model
        self.model.add_node(node)

    def nodes(self) -> tuple[NodeId, ...]:
        return tuple(sorted(self._transports, key=str))

    def apply(self, command: dict[str, object]) -> None:
        """Apply one JSON control command: ``{"op": <kind>, **args}`` with
        a link-side schedule kind, or ``{"op": "clear_all"}``.

        Raises ``ValueError`` for an unknown or malformed command, before
        anything changes; the control server turns it into an error reply.
        A server-side kind is checked like a schedule entry (its
        ``target`` too) and then refused: the plane has no servers.
        """
        if command.get("op") == "clear_all":
            self.model.clear_all()
            return
        args = {key: value for key, value in command.items() if key != "op"}
        event = FaultEvent.from_json(
            {"time": 0.0, "kind": command.get("op"), "target": args.get("target"), "args": args}
        )
        apply_link(self.model, event)


class FaultControlServer:
    """JSON-lines TCP control channel for a :class:`FaultPlane`.

    One command object per line; each gets a one-line JSON reply:
    ``{"ok": true}`` on success, ``{"ok": false, "error": "..."}``
    otherwise.  Meant for loopback/lab use — there is no auth.
    """

    def __init__(self, plane: FaultPlane) -> None:
        self.plane = plane
        self._server: asyncio.Server | None = None
        self.address: tuple[str, int] | None = None

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        self._server = await asyncio.start_server(self._serve, host, port)
        sockname = self._server.sockets[0].getsockname()
        self.address = (str(sockname[0]), int(sockname[1]))
        return self.address

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    command = json.loads(line)
                    if not isinstance(command, dict):
                        raise ValueError("command must be a JSON object")
                    self.plane.apply(command)
                    reply: dict[str, object] = {"ok": True}
                except ValueError as exc:
                    reply = {"ok": False, "error": str(exc)}
                writer.write(json.dumps(reply).encode("utf-8") + b"\n")
                await writer.drain()
        except (OSError, ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()


# ---------------------------------------------------------------------------
# WAN latency profiles
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WanProfile:
    """A latency matrix shaped like a real multi-region deployment.

    Nodes are assigned to ``regions`` round-robin in sorted-name order
    (deterministic, no configuration needed).  ``intra`` is the
    ``(base, jitter)`` one-way delay within a region; ``inter`` maps a
    sorted ``"regionA-regionB"`` pair to its ``(base, jitter)``.
    ``settings_factor`` is how much the GCS timing constants must be
    scaled for the protocol to stay plausible at these latencies (a
    45 ms link cannot run an 8 ms heartbeat / 30 ms suspect timeout).
    """

    name: str
    regions: tuple[str, ...]
    intra: tuple[float, float]
    inter: dict[str, tuple[float, float]]
    settings_factor: float = 1.0

    def assign_regions(self, nodes: list[NodeId]) -> dict[NodeId, str]:
        ordered = sorted(nodes, key=str)
        return {
            node: self.regions[i % len(self.regions)]
            for i, node in enumerate(ordered)
        }

    def link_delay(self, region_a: str, region_b: str) -> tuple[float, float]:
        if region_a == region_b:
            return self.intra
        key = "-".join(sorted((region_a, region_b)))
        pair = self.inter.get(key)
        if pair is None:
            raise ValueError(f"profile {self.name!r} has no latency for {key!r}")
        return pair

    def install(self, plane: FaultPlane) -> dict[NodeId, str]:
        """Set every adopted transport's per-link base delay and jitter
        from this matrix; returns the node → region assignment."""
        assignment = self.assign_regions(list(plane.nodes()))
        for src in plane.nodes():
            transport = plane._transports[src]
            for dst in plane.nodes():
                if dst == src:
                    continue
                base, jitter = self.link_delay(assignment[src], assignment[dst])
                transport.set_base_delay(dst, base, jitter)
        return assignment


WAN_PROFILES: dict[str, WanProfile] = {
    # Two-region transatlantic: the paper's motivating WAN scenario.
    "us-eu": WanProfile(
        name="us-eu",
        regions=("us", "eu"),
        intra=(0.002, 0.0005),
        inter={"eu-us": (0.045, 0.004)},
        settings_factor=8.0,
    ),
    # Three regions, asymmetric distances — exercises non-uniform
    # suspicion timing (ap sees everyone late, us/eu see each other
    # sooner than either sees ap).
    "global": WanProfile(
        name="global",
        regions=("us", "eu", "ap"),
        intra=(0.002, 0.0005),
        inter={
            "eu-us": (0.045, 0.004),
            "ap-us": (0.075, 0.008),
            "ap-eu": (0.110, 0.010),
        },
        settings_factor=16.0,
    ),
}


def wan_profile(name: str) -> WanProfile:
    profile = WAN_PROFILES.get(name)
    if profile is None:
        raise ValueError(
            f"unknown WAN profile {name!r} (available: {', '.join(sorted(WAN_PROFILES))})"
        )
    return profile


# Pass-through registrations: a FaultyTransport with no faults configured
# behaves identically to its inner transport, so these are safe drop-in
# choices that make every link controllable at runtime (repro serve
# --control wires the control channel to them).
register_transport("faulty-tcp", lambda node_id: FaultyTransport(TcpMeshTransport(node_id)))
register_transport("faulty-udp", lambda node_id: FaultyTransport(UdpLoopbackTransport(node_id)))


__all__ = [
    "WAN_PROFILES",
    "FaultControlServer",
    "FaultPlane",
    "FaultStats",
    "FaultyTransport",
    "WanProfile",
    "wan_profile",
]
