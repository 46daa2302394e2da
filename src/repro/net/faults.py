"""Fault injection for live transports.

:class:`FaultyTransport` wraps any :class:`~repro.net.transport.MeshTransport`
and perturbs its *outbound* traffic: links can be severed (symmetric,
asymmetric, or non-transitive — each wrapper only controls its own
outbound direction, so cutting a→b while leaving b→a intact is just a
matter of which wrapper you tell), delayed with per-link base latency
plus jitter (WAN-shaped profiles in :data:`WAN_PROFILES`), and frames
can be dropped, duplicated, or held back (reordered) under a seeded
chaos RNG.

Determinism contract: every injection decision on a directed link is
drawn from ``numpy.random.default_rng([seed, h(src), h(dst)])`` where
``h`` is a stable digest of the node id — so two runs with the same
seed, the same node names, and the same per-link frame sequence make
identical drop/duplicate/hold/jitter decisions.  (Wall-clock delivery
of a *delayed* frame still lands wherever the event loop puts it; the
bit-reproducible replay story lives one layer up, in the ingress frame
log — see :mod:`repro.net.replay`.)

:class:`FaultPlane` coordinates the wrappers of a whole cluster and
speaks the chaos engine's fault vocabulary (``partition`` / ``heal`` /
``cut_link`` / ``delay_link`` / ``duplicate`` / ``reorder`` …), with
the same semantics as the simulator's topology: partition components
are maintained separately from individual link cuts, ``heal_partition``
does not restore cut links, and nodes unmentioned by a partition form
one implicit extra component.  :class:`FaultControlServer` exposes the
plane over a JSON-lines TCP socket so an external process (or
``repro chaos --live`` in another orchestration mode) can drive faults
against a running ``repro serve`` node.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from collections.abc import Iterable
from dataclasses import asdict, dataclass

import numpy as np

from repro.net.transport import (
    FrameHandler,
    MeshTransport,
    TcpMeshTransport,
    TransportStats,
    UdpLoopbackTransport,
    register_transport,
)
from repro.sim.topology import NodeId


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
    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    delayed: int = 0

    def as_dict(self) -> dict[str, object]:
        return dict(asdict(self))


class _LinkState:
    """Outbound fault state for one directed link (this node → peer)."""

    __slots__ = (
        "severed_by",
        "base_delay",
        "jitter",
        "extra_delay",
        "drop_p",
        "rng",
    )

    def __init__(self, rng: np.random.Generator) -> None:
        # Tags mirror the simulator topology's two independent layers:
        # "partition" entries come and go with partition/heal_partition,
        # "cut" entries only with cut_link/restore_link.
        self.severed_by: set[str] = set()
        self.base_delay = 0.0
        self.jitter = 0.0
        self.extra_delay = 0.0
        self.drop_p = 0.0
        self.rng = rng

    @property
    def severed(self) -> bool:
        return bool(self.severed_by)


class FaultyTransport:
    """A :class:`MeshTransport` wrapper that injects link faults.

    Wraps transparently: ``stats`` is the inner transport's stats object
    and ``on_frame`` forwards to the inner transport, so the runtime
    cannot tell it is talking to a wrapped transport.  With no faults
    configured (the ``faulty-tcp`` / ``faulty-udp`` registry entries),
    every frame passes straight through with zero added latency.
    """

    def __init__(self, inner: MeshTransport, seed: int = 0) -> None:
        self.inner = inner
        self.seed = seed
        self.node_id: NodeId = getattr(inner, "node_id", "?")
        self.stats: TransportStats = inner.stats
        self.faults = FaultStats()
        self.dup_p = 0.0
        self.reorder_p = 0.0
        self.reorder_window = 0.05
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
            str(peer) for peer, link in self._links.items() if link.severed
        )
        return snapshot

    # ------------------------------------------------------------------
    # fault configuration (the FaultPlane calls these)
    # ------------------------------------------------------------------
    def _link(self, peer: NodeId) -> _LinkState:
        link = self._links.get(peer)
        if link is None:
            rng = np.random.default_rng(
                [self.seed, _stable_hash(self.node_id), _stable_hash(peer)]
            )
            link = _LinkState(rng)
            self._links[peer] = link
        return link

    def sever(self, peer: NodeId, tag: str = "cut") -> None:
        """Cut this node's outbound link to ``peer`` (inbound unaffected —
        sever both wrappers for a symmetric cut)."""
        self._link(peer).severed_by.add(tag)

    def restore(self, peer: NodeId, tag: str = "cut") -> None:
        self._link(peer).severed_by.discard(tag)

    def clear_tag(self, tag: str) -> None:
        """Remove ``tag`` from every link (e.g. heal all partitions)."""
        for link in self._links.values():
            link.severed_by.discard(tag)

    def set_base_delay(self, peer: NodeId, base: float, jitter: float = 0.0) -> None:
        link = self._link(peer)
        link.base_delay = base
        link.jitter = jitter

    def set_extra_delay(self, peer: NodeId, extra: float) -> None:
        self._link(peer).extra_delay = extra

    def clear_extra_delay(self, peer: NodeId) -> None:
        self._link(peer).extra_delay = 0.0

    def set_drop(self, peer: NodeId, probability: float) -> None:
        self._link(peer).drop_p = probability

    def set_duplication(self, probability: float) -> None:
        self.dup_p = probability

    def set_reordering(self, probability: float, window: float = 0.05) -> None:
        self.reorder_p = probability
        self.reorder_window = window

    def clear_faults(self) -> None:
        """Lift every injected fault: heal every link, zero every knob a
        schedule or the control channel can turn.  ``base_delay`` and
        ``jitter`` stay — they are the deployment's latency matrix (a
        :class:`WanProfile`), topology rather than fault."""
        self.dup_p = 0.0
        self.reorder_p = 0.0
        for link in self._links.values():
            link.severed_by.clear()
            link.extra_delay = 0.0
            link.drop_p = 0.0

    # ------------------------------------------------------------------
    # sending (the injection point)
    # ------------------------------------------------------------------
    def send(self, peer: NodeId, frame: bytes) -> None:
        if self._closed:
            return
        link = self._links.get(peer)
        if link is None:
            self.inner.send(peer, frame)
            return
        if link.severed:
            self.faults.severed_drops += 1
            return
        # Always burn four draws per frame so the decision stream stays
        # aligned with the frame index no matter which faults are active
        # — that is what makes same-seed runs take identical decisions.
        draws = link.rng.random(4)
        if link.drop_p > 0.0 and draws[0] < link.drop_p:
            self.faults.dropped += 1
            return
        duplicate = self.dup_p > 0.0 and draws[1] < self.dup_p
        delay = link.base_delay + link.extra_delay
        if link.jitter > 0.0:
            delay += float(draws[3]) * link.jitter
        if self.reorder_p > 0.0 and draws[2] < self.reorder_p:
            # Holding one frame back while its successors go out on time
            # is exactly a bounded FIFO violation.
            delay += self.reorder_window
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
            current = self._links.get(peer)
            if current is not None and current.severed:
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
    """Drives the :class:`FaultyTransport` wrappers of a whole cluster.

    Mirrors the simulator topology's semantics so chaos schedules mean
    the same thing live as they do simulated: partitions and individual
    link cuts are independent layers (healing one leaves the other),
    and nodes unmentioned by :meth:`partition` form one implicit extra
    component.
    """

    def __init__(self) -> None:
        self._transports: dict[NodeId, FaultyTransport] = {}

    def adopt(self, node: NodeId, transport: FaultyTransport) -> None:
        self._transports[node] = transport

    def nodes(self) -> tuple[NodeId, ...]:
        return tuple(sorted(self._transports, key=str))

    # -- partition layer ------------------------------------------------
    def partition(self, *components: Iterable[NodeId]) -> None:
        component_of: dict[NodeId, int] = {}
        for index, component in enumerate(components):
            for node in component:
                component_of[node] = index
        for src, transport in self._transports.items():
            src_comp = component_of.get(src, -1)
            for dst in self._transports:
                if dst == src:
                    continue
                if component_of.get(dst, -1) == src_comp:
                    transport.restore(dst, tag="partition")
                else:
                    transport.sever(dst, tag="partition")

    def heal_partition(self) -> None:
        for transport in self._transports.values():
            transport.clear_tag("partition")

    # -- link-cut layer -------------------------------------------------
    def cut_link(self, a: NodeId, b: NodeId, symmetric: bool = True) -> None:
        if a in self._transports:
            self._transports[a].sever(b, tag="cut")
        if symmetric and b in self._transports:
            self._transports[b].sever(a, tag="cut")

    def restore_link(self, a: NodeId, b: NodeId, symmetric: bool = True) -> None:
        if a in self._transports:
            self._transports[a].restore(b, tag="cut")
        if symmetric and b in self._transports:
            self._transports[b].restore(a, tag="cut")

    # -- latency layer --------------------------------------------------
    def set_link_delay(
        self, a: NodeId, b: NodeId, extra: float, symmetric: bool = True
    ) -> None:
        if a in self._transports:
            self._transports[a].set_extra_delay(b, extra)
        if symmetric and b in self._transports:
            self._transports[b].set_extra_delay(a, extra)

    def clear_link_delay(self, a: NodeId, b: NodeId, symmetric: bool = True) -> None:
        if a in self._transports:
            self._transports[a].clear_extra_delay(b)
        if symmetric and b in self._transports:
            self._transports[b].clear_extra_delay(a)

    # -- message adversity ---------------------------------------------
    def set_duplication(self, probability: float) -> None:
        for transport in self._transports.values():
            transport.set_duplication(probability)

    def set_reordering(self, probability: float, window: float = 0.05) -> None:
        for transport in self._transports.values():
            transport.set_reordering(probability, window)

    def set_loss(self, a: NodeId, b: NodeId, probability: float) -> None:
        if a in self._transports:
            self._transports[a].set_drop(b, probability)

    def clear_all(self) -> None:
        for transport in self._transports.values():
            transport.clear_faults()

    # -- control-channel surface ---------------------------------------
    def apply(self, command: dict[str, object]) -> None:
        """Apply one JSON command (the control-channel wire surface).

        Raises ``ValueError`` for unknown or malformed commands; the
        control server turns that into an error reply.
        """
        op = command.get("op")
        if op == "partition":
            raw = command.get("components")
            if not isinstance(raw, list):
                raise ValueError("partition needs components: list of node lists")
            self.partition(*[list(c) for c in raw])
        elif op == "heal_partition":
            self.heal_partition()
        elif op in ("cut_link", "restore_link", "set_link_delay", "clear_link_delay"):
            a, b = command.get("src"), command.get("dst")
            if not isinstance(a, str) or not isinstance(b, str):
                raise ValueError(f"{op} needs string src and dst")
            symmetric = bool(command.get("symmetric", True))
            if op == "cut_link":
                self.cut_link(a, b, symmetric=symmetric)
            elif op == "restore_link":
                self.restore_link(a, b, symmetric=symmetric)
            elif op == "set_link_delay":
                self.set_link_delay(
                    a, b, float(_number(command, "extra")), symmetric=symmetric
                )
            else:
                self.clear_link_delay(a, b, symmetric=symmetric)
        elif op == "set_loss":
            a, b = command.get("src"), command.get("dst")
            if not isinstance(a, str) or not isinstance(b, str):
                raise ValueError("set_loss needs string src and dst")
            self.set_loss(a, b, float(_number(command, "probability")))
        elif op == "set_duplication":
            self.set_duplication(float(_number(command, "probability")))
        elif op == "set_reordering":
            self.set_reordering(
                float(_number(command, "probability")),
                window=float(_number(command, "window", 0.05)),
            )
        elif op == "clear_all":
            self.clear_all()
        else:
            raise ValueError(f"unknown fault op {op!r}")


def _number(command: dict[str, object], key: str, default: float | None = None) -> float:
    value = command.get(key, default)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{key} must be a number")
    return float(value)


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
                except (ValueError, TypeError) as exc:
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
