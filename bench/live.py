"""The in-process live cluster every live workload runs on.

Load model: one OS process, one thread (the asyncio loop), three servers and
one client node ``c0`` that multiplexes every session, each node on its own
real loopback socket.  No delay is injected between nodes — latency here is
processor time plus loopback.  The cluster is assembled from the stack's
public constructors only; a traced run swaps in recording subclasses through
:class:`Seams` and nothing else changes.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.application import ServiceApplication
from repro.core.client import ServiceClient, SessionHandle
from repro.core.config import AvailabilityPolicy
from repro.core.server import FrameworkServer
from repro.core.wire import ResponseMsg, content_group
from repro.net.cluster import resolve_profile
from repro.net.runtime import LiveNetwork, LiveRuntime
from repro.net.transport import MeshTransport, create_transport
from repro.sim.engine import Simulator
from repro.sim.trace import TraceLog

from bench.refload import RefLoad, normalise
from bench.stats import slice_bounds

CLIENT_ID = "c0"
N_SERVERS = 3
#: set-ups per run; ``stats.calm_level`` of them is reported, the last
#: cluster is measured on
SETUP_REPEATS = 8
#: the only trace categories the correctness checks read (role intervals);
#: everything else is filtered out so the trace log costs nothing at rate
ROLE_CATEGORIES = ("fw.promote", "fw.demote", "process.crash", "process.recover")
_PROBE_PERIOD = 0.002
#: seconds per slice of a measuring window on the steady workloads: long
#: enough to hold every periodic duty of the stack (propagation runs every
#: 0.5 s), short against the host's slow bursts (1-3 s)
SLICE = 0.5


class ObservedClient(ServiceClient):
    """A :class:`ServiceClient` that shows every response to the load
    generator the moment it arrives (the wall-clock measurement point)."""

    observer: Callable[[Any, ResponseMsg], None] | None = None

    def on_ptp(self, sender: Any, payload: Any) -> None:
        if self.observer is not None and isinstance(payload, ResponseMsg):
            self.observer(sender, payload)
        super().on_ptp(sender, payload)


def _same(value: Any) -> Any:
    return value


def _same_transport(node: str, transport: MeshTransport) -> MeshTransport:
    return transport


@dataclass(frozen=True)
class Seams:
    """The constructors a cluster is built from.  The defaults are the
    stack's own classes; ``bench.trace`` substitutes recording ones."""

    simulator: Callable[[], Simulator] = Simulator
    network: Callable[..., LiveNetwork] = LiveNetwork
    server: Callable[..., FrameworkServer] = FrameworkServer
    client: Callable[..., ObservedClient] = ObservedClient
    transport: Callable[[str, MeshTransport], MeshTransport] = _same_transport
    application: Callable[[ServiceApplication], ServiceApplication] = _same


@dataclass(frozen=True)
class LiveSpec:
    """Shape of one live cluster."""

    transport: str
    profile: str
    unit: str
    application: ServiceApplication
    policy: AvailabilityPolicy
    #: multiplies every timeout of the profile (``GcsSettings.scaled``)
    timing_factor: float = 1.0


class LiveHarness:
    """A built cluster plus the pacing helpers the workloads need.

    Exposes the query surface of ``repro.core.service.ServiceCluster``
    (``servers``, ``sim``, ``trace_log()``, ``primaries_of()``) so the
    ``repro.metrics.session_audit`` functions run on it unchanged.
    """

    def __init__(
        self,
        spec: LiveSpec,
        sim: Simulator,
        trace: TraceLog,
        transports: dict[str, MeshTransport],
        networks: dict[str, LiveNetwork],
        servers: dict[str, FrameworkServer],
        client: ObservedClient,
    ) -> None:
        self.spec = spec
        self.sim = sim
        self.trace = trace
        self.transports = transports
        self.networks = networks
        self.servers = servers
        self.client = client
        self.handles: list[SessionHandle] = []
        self.sim0 = 0.0
        self.wall0 = 0.0
        self._window: LiveRuntime | None = None
        #: :func:`closing_pass` of the last :meth:`run_for` window
        self.gc_burden: dict[str, float] = {}

    # ------------------------------------------------------------------
    @classmethod
    async def build(cls, spec: LiveSpec, seams: Seams = Seams()) -> "LiveHarness":
        sim = seams.simulator()
        trace = TraceLog(enabled=True, categories=ROLE_CATEGORIES)
        server_ids = [f"s{i}" for i in range(N_SERVERS)]
        transports: dict[str, MeshTransport] = {}
        networks: dict[str, LiveNetwork] = {}
        for node in [*server_ids, CLIENT_ID]:
            transport = seams.transport(node, create_transport(spec.transport, node))
            await transport.start("127.0.0.1", 0)
            transports[node] = transport
            networks[node] = seams.network(sim, transport, trace=trace, node_id=node)
        for node, transport in transports.items():
            for peer, other in transports.items():
                if peer != node:
                    transport.set_peer(peer, *other.address)
        settings = resolve_profile(spec.profile)
        if spec.timing_factor != 1.0:
            settings = settings.scaled(spec.timing_factor)
        application = seams.application(spec.application)
        servers = {
            server_id: seams.server(
                server_id=server_id,
                network=networks[server_id],
                world=server_ids,
                hosted_units=[spec.unit],
                applications={spec.unit: application},
                catalog={spec.unit: content_group(spec.unit)},
                policy=spec.policy,
                settings=settings,
                monitor=None,
            )
            for server_id in server_ids
        }
        client = seams.client(
            CLIENT_ID, networks[CLIENT_ID], contact_servers=server_ids,
            settings=settings,
        )
        for server in servers.values():
            server.start()
        client.start()
        return cls(spec, sim, trace, transports, networks, servers, client)

    async def close(self) -> None:
        for transport in self.transports.values():
            await transport.close()
        gc.unfreeze()

    # ------------------------------------------------------------------
    # cluster query surface (what repro.metrics.session_audit expects)
    # ------------------------------------------------------------------
    def trace_log(self) -> TraceLog:
        return self.trace

    def primaries_of(self, session_id: str) -> list[str]:
        return [
            server_id
            for server_id, server in self.servers.items()
            if server.is_up() and session_id in server.primary_sessions()
        ]

    def agreed_view(self) -> bool:
        """Every live server has installed the same configuration, it holds
        exactly the live servers, and the content group spans all of them."""
        live = {sid for sid, server in self.servers.items() if server.is_up()}
        group = content_group(self.spec.unit)
        views = set()
        for server_id in live:
            daemon = self.servers[server_id].daemon
            if set(daemon.config.members) != live:
                return False
            if set(daemon.members_of(group)) != live:
                return False
            views.add(daemon.config.view_id)
        return len(views) == 1

    def one_primary_each(self) -> bool:
        return all(len(self.primaries_of(h.session_id)) == 1 for h in self.handles)

    # ------------------------------------------------------------------
    # pacing
    # ------------------------------------------------------------------
    def _runtime(self) -> LiveRuntime:
        runtime = LiveRuntime(self.sim, max_tick=0.05)
        for network in self.networks.values():
            network.set_wake(runtime.wake)
        return runtime

    async def run_until(self, predicate: Callable[[], bool], timeout: float) -> bool:
        """Pace the cluster until ``predicate()`` holds (polled every 2 ms of
        cluster time) or ``timeout`` seconds pass; returns whether it held."""
        runtime = self._runtime()
        held = False
        pending = None

        def probe() -> None:
            nonlocal held, pending
            if predicate():
                held = True
                pending = None
                runtime.stop()
            else:
                pending = self.sim.schedule(_PROBE_PERIOD, probe, label="bench:probe")

        pending = self.sim.schedule(0.0, probe, label="bench:probe")
        await runtime.run(timeout)
        if pending is not None:
            pending.cancel()
        return held

    async def run_for(self, duration: float) -> None:
        """Pace the cluster for ``duration`` seconds; anchors
        :meth:`wall_of` at the start of the window.  No probe events run
        inside the window, so nothing but the workload wakes the pacer."""
        # The cyclic collector is off inside the window and what it would
        # have had to do is measured at the window's end instead (README,
        # "Harness policy"): its full passes are 20-100 ms stalls a few times
        # per run, so a tail measured with it on is a coin flip on collector
        # timing, and at the stack's defaults one such stall overflowed the
        # client's UDP receive buffer and lost frames.  Everything that
        # exists now (the set-up, the harness's pre-scheduled arrivals) is
        # frozen out, so the closing pass walks only what the window itself
        # allocated and kept.
        gc.collect()
        gc.freeze()
        gc.disable()
        self._window = self._runtime()
        self.sim0 = self.sim.now
        self.wall0 = time.monotonic()
        try:
            await self._window.run(duration)
        finally:
            self._window = None
            self.gc_burden = closing_pass()
            gc.enable()

    def put_gc_burden(self, out: Any) -> None:
        """Report :func:`closing_pass` of the measuring window on ``out``."""
        out.put("gc_full_pass_ms", self.gc_burden["gc_full_pass_ms"], "ms")
        for name in ("gc_tracked_objects", "gc_unreachable_objects"):
            out.put(name, self.gc_burden[name], "count")

    def end_window(self) -> None:
        """Stop the :meth:`run_for` window early (from a cluster event)."""
        if self._window is not None:
            self._window.stop()

    def wall_of(self, sim_time: float) -> float:
        """The wall-clock instant at which cluster time ``sim_time`` was due
        (cluster time runs one second per second from the window start)."""
        return self.wall0 + (sim_time - self.sim0)

    # ------------------------------------------------------------------
    # set-up: one agreed view, every session started
    # ------------------------------------------------------------------
    async def establish(self, start_offsets: list[float], timeout: float = 20.0) -> bool:
        """Wait for the first agreed view, then start one session per entry
        of ``start_offsets`` (seconds after the view) and wait until every
        one is confirmed."""
        if not await self.run_until(self.agreed_view, timeout):
            return False
        base = self.sim.now

        def start() -> None:
            self.handles.append(self.client.start_session(self.spec.unit))

        for offset in start_offsets:
            self.sim.schedule_at(base + offset, start, label="bench:start-session")
        wanted = len(start_offsets)
        return await self.run_until(
            lambda: len(self.handles) == wanted and all(h.started for h in self.handles),
            timeout,
        )


async def repeated_setup(
    spec: LiveSpec, seams: Seams, start_offsets: list[float], quick: bool
) -> tuple[LiveHarness, list[float]]:
    """Cold start until one agreed view and every session started,
    ``SETUP_REPEATS`` times over (once when ``quick``); returns the last
    harness, ready to measure on, and every duration."""
    durations: list[float] = []
    harness = None
    for _ in range(1 if quick else SETUP_REPEATS):
        if harness is not None:
            await harness.close()
        started = time.monotonic()
        harness = await LiveHarness.build(spec, seams)
        if not await harness.establish(start_offsets):
            await harness.close()
            raise RuntimeError("set-up never reached an agreed view with every session started")
        durations.append(time.monotonic() - started)
    assert harness is not None
    return harness, durations


def closing_pass() -> dict[str, float]:
    """One full collection over what the measuring window allocated and
    kept: how many objects the collector has to walk, how long one pass over
    them takes (the stall every full collection would have been with the
    collector on), and how much cyclic garbage had piled up unfreed."""
    tracked = len(gc.get_objects())
    started = time.perf_counter()
    unreachable = gc.collect()
    return {
        "gc_full_pass_ms": (time.perf_counter() - started) * 1e3,
        "gc_tracked_objects": float(tracked),
        "gc_unreachable_objects": float(unreachable),
    }


class CpuSlices:
    """Process CPU per operation, slice by slice of cluster time, each slice
    normalised by what the yardstick (``bench.refload``) cost at its edges.

    CPU divided by operations over the whole window reads every burst and
    every minute in which other tenants slowed the host down; the median of
    the normalised slices does not.  One yardstick chunk (under 2 ms) runs at
    every slice boundary and is left out of the accounts."""

    def __init__(
        self, harness: LiveHarness, start: float, end: float, step: float,
        operations: Callable[[], int], tracer: Any = None,
    ) -> None:
        #: per boundary: CPU clock before and after the yardstick, operations
        self._marks: list[tuple[float, float, int]] = []
        reference = RefLoad()

        def mark() -> None:
            span = tracer.enter() if tracer is not None else 0.0
            before = time.process_time()
            self._marks.append((before, before + reference.cost(), operations()))
            if tracer is not None:
                tracer.exit("harness.yardstick", span)

        for when in slice_bounds(start, end, step):
            harness.sim.schedule_at(when, mark, label="bench:cpu-mark")

    def seconds(self) -> float:
        """CPU the workload consumed over the whole window."""
        edges = zip(self._marks, self._marks[1:])
        return sum(before1 - after0 for (_b0, after0, _o0), (before1, _a1, _o1) in edges)

    def _slices(self) -> list[tuple[float, float]]:
        """``(CPU seconds per operation, yardstick cost)`` of every slice
        that had operations."""
        return [
            ((before1 - after0) / (ops1 - ops0),
             ((after0 - before0) + (after1 - before1)) / 2)
            for (before0, after0, ops0), (before1, after1, ops1)
            in zip(self._marks, self._marks[1:])
            if ops1 > ops0
        ]

    def per_operation(self) -> list[float]:
        """CPU seconds per operation of every slice, as measured."""
        return [cost for cost, _reference in self._slices()]

    def normalised(self) -> list[float]:
        """CPU seconds per operation of every slice, as seconds of the
        sizing box at its own speed (``refload.normalise``)."""
        return [normalise(cost, reference) for cost, reference in self._slices()]
