"""Cluster builder: wires the simulator, network, servers, placement and
clients into a runnable service deployment — the one cluster class of
both runtimes (:func:`repro.net.cluster.assemble` builds the live one).

This is the entry point examples, tests and experiments use::

    cluster = ServiceCluster.build(
        n_servers=4,
        units={"movie-1": vod_app},
        replication=3,
        policy=AvailabilityPolicy(num_backups=1, propagation_period=0.5),
        seed=7,
    )
    client = cluster.add_client("c0")
    cluster.run(1.0)
    handle = client.start_session("movie-1")
    cluster.run(60.0)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.core.application import ServiceApplication
from repro.core.client import ServiceClient
from repro.core.config import AvailabilityPolicy
from repro.core.server import FrameworkServer
from repro.core.wire import content_group
from repro.gcs.settings import GcsSettings
from repro.gcs.spec import SpecMonitor
from repro.sim.engine import Simulator
from repro.sim.latency import FixedLatency, lan_latency, wan_latency
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.topology import Topology
from repro.sim.trace import TraceLog

if TYPE_CHECKING:
    from repro.net.runtime import LiveRuntime
    from repro.net.transport import MeshTransport


def place_units(
    unit_ids: list[str], server_ids: list[str], replication: int
) -> dict[str, list[str]]:
    """Round-robin partial replication: unit *i* lives on ``replication``
    consecutive servers starting at ``i`` (mod cluster size).  Partial, not
    total, replication — as the paper requires."""
    replication = min(replication, len(server_ids))
    placement: dict[str, list[str]] = {}
    for index, unit in enumerate(sorted(unit_ids)):
        placement[unit] = [
            server_ids[(index + k) % len(server_ids)] for k in range(replication)
        ]
    return placement


class ServiceCluster:
    """A complete deployment of the framework, simulated or live.

    Both runtimes construct their servers and clients here, through
    :meth:`add_server` and :meth:`add_client`.  The one difference is
    where a node's network comes from (``network_for``): on the simulator
    every node shares the one :class:`Network` (:meth:`build`); on a live
    cluster (:func:`repro.net.cluster.assemble`) each node gets its own
    :class:`~repro.net.runtime.LiveNetwork` over its own transport.

    Runtime-specific state is plain fields, left empty where it does not
    apply: ``network`` and ``rngs`` (the simulator's shared network and
    seeded streams), ``runtime`` (the live pacer, ``None`` in a replay)
    and ``transports``.  ``faults`` is the link model
    ``repro.faults.injector.apply`` drives: the simulated network's
    topology, a live :class:`~repro.net.faults.FaultPlane`'s model, or
    ``None`` when no transport is fault-wrapped (in a replay the wire
    faults are already baked into the recorded frame log).
    """

    def __init__(
        self,
        sim: Simulator,
        network_for: Callable[[str], Network],
        applications: Mapping[str, ServiceApplication],
        policy: AvailabilityPolicy,
        settings: GcsSettings,
        trace: TraceLog,
        monitor: SpecMonitor | None,
        faults: Topology | None,
        placement: dict[str, list[str]] | None = None,
        network: Network | None = None,
        rngs: RngRegistry | None = None,
        runtime: LiveRuntime | None = None,
        transports: Mapping[str, MeshTransport] | None = None,
    ) -> None:
        self.sim = sim
        self._network_for = network_for
        self.applications = applications
        self.catalog = {unit: content_group(unit) for unit in applications}
        self.policy = policy
        self.settings = settings
        self.trace = trace
        self.monitor = monitor
        self.faults = faults
        self.placement: dict[str, list[str]] = placement if placement is not None else {}
        self.network = network
        self.rngs = rngs
        self.runtime = runtime
        self.transports: Mapping[str, MeshTransport] = transports or {}
        #: every node's network, in the order the nodes were added
        self.networks: dict[str, Network] = {}
        self.servers: dict[str, FrameworkServer] = {}
        self.clients: dict[str, ServiceClient] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    def build(
        n_servers: int,
        units: dict[str, ServiceApplication],
        replication: int = 2,
        policy: AvailabilityPolicy | None = None,
        settings: GcsSettings | None = None,
        seed: int = 0,
        latency: str = "lan",
        trace: bool = True,
        loss_probability: float = 0.0,
    ) -> "ServiceCluster":
        """Build a simulated cluster of ``n_servers`` hosting ``units``,
        placed by :func:`place_units`.

        ``latency`` is ``"lan"``, ``"wan"`` or ``"zero"``; GCS timeouts are
        left at their LAN defaults unless explicit ``settings`` are given.
        ``loss_probability`` drops that fraction of network messages
        uniformly (the GCS recovers ordered traffic via NACKs; raw
        point-to-point responses are simply lost, as on a real UDP path).
        """
        rngs = RngRegistry(seed)
        sim = Simulator()
        trace_log = TraceLog(enabled=trace)
        if latency == "lan":
            model = lan_latency(rngs.stream("latency"))
        elif latency == "wan":
            model = wan_latency(rngs.stream("latency"))
        else:
            model = FixedLatency(0.0005)
        network = Network(
            sim,
            Topology(),
            model,
            trace=trace_log,
            loss_probability=loss_probability,
            loss_rng=rngs.stream("loss") if loss_probability > 0 else None,
            # dedicated stream so chaos adversity (duplication/reordering)
            # never perturbs the latency/loss draws of existing experiments
            chaos_rng=rngs.stream("chaos-net"),
        )
        server_ids = [f"s{i}" for i in range(n_servers)]
        placement = place_units(list(units), server_ids, replication)
        cluster = ServiceCluster(
            sim,
            lambda _node: network,
            units,
            policy or AvailabilityPolicy(),
            settings or GcsSettings(),
            trace_log,
            SpecMonitor(),
            faults=network.topology,
            placement=placement,
            network=network,
            rngs=rngs,
        )
        for server_id in server_ids:
            hosted = [u for u, hosts in placement.items() if server_id in hosts]
            cluster.add_server(server_id, server_ids, hosted)
        for server in cluster.servers.values():
            server.start()
        return cluster

    def add_server(
        self, server_id: str, world: list[str], hosted_units: list[str] | None = None
    ) -> FrameworkServer:
        """Construct (not start) server ``server_id`` hosting
        ``hosted_units`` (default: every unit of the service) and record
        it in the placement; ``world`` names every server it heartbeats."""
        if server_id in self.servers:
            raise ValueError(f"server id {server_id!r} already exists")
        if hosted_units is None:
            hosted_units = sorted(self.applications)
        self.networks[server_id] = network = self._network_for(server_id)
        server = FrameworkServer(
            server_id=server_id,
            network=network,
            world=world,
            hosted_units=hosted_units,
            applications={unit: self.applications[unit] for unit in hosted_units},
            catalog=self.catalog,
            policy=self.policy,
            settings=self.settings,
            monitor=self.monitor,
        )
        self.servers[server_id] = server
        for unit in hosted_units:
            hosts = self.placement.setdefault(unit, [])
            if server_id not in hosts:
                hosts.append(server_id)
        return server

    def spawn_server(
        self, server_id: str, hosted_units: list[str] | None = None
    ) -> FrameworkServer:
        """Bring a brand-new server into the running service.

        This is the mechanism behind the paper's availability-management
        future work ([Mishra & Pang 1999]): when the manager decides more
        capacity or replication is needed, a fresh server joins the
        world, starts heartbeating, and the join-type view change absorbs
        it (state exchange + rebalance) with no client involvement.

        ``hosted_units`` defaults to every unit in the service (full
        replication on the newcomer).
        """
        server = self.add_server(server_id, sorted(self.servers) + [server_id], hosted_units)
        # existing daemons must learn to heartbeat the newcomer
        for existing in self.servers.values():
            if server_id not in existing.daemon.world:
                existing.daemon.world.append(server_id)
        server.start()
        return server

    def add_client(self, client_id: str) -> ServiceClient:
        """Construct and start client ``client_id``; its contacts are the
        servers in sorted order."""
        self.networks[client_id] = network = self._network_for(client_id)
        client = ServiceClient(
            client_id, network, contact_servers=sorted(self.servers), settings=self.settings
        )
        client.start()
        self.clients[client_id] = client
        return client

    # ------------------------------------------------------------------
    # running and fault control
    # ------------------------------------------------------------------
    def run(self, duration: float, max_events: int | None = 20_000_000) -> None:
        self.sim.run_until(self.sim.now + duration, max_events=max_events)

    def settle(self) -> None:
        """Let membership and allocations converge after startup/faults."""
        self.run(3.0)

    def crash_server(self, server_id: str) -> None:
        self.servers[server_id].crash()

    def recover_server(self, server_id: str) -> None:
        self.servers[server_id].recover()

    def partition(self, *components: Iterable[str]) -> None:
        self.faults.partition(*components)

    def heal(self) -> None:
        self.faults.heal_partition()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def live_servers(self) -> list[str]:
        return [sid for sid, server in self.servers.items() if server.is_up()]

    def hosts_of(self, unit_id: str) -> list[str]:
        return list(self.placement[unit_id])

    def primaries_of(self, session_id: str) -> list[str]:
        """All live servers currently claiming the primary role for the
        session (the unique-primary design goal says this should be one)."""
        return [
            server_id
            for server_id, server in self.servers.items()
            if server.is_up() and session_id in server.primary_sessions()
        ]

    def trace_log(self) -> TraceLog:
        return self.trace

    async def close(self) -> None:
        """Close every transport (a simulated cluster has none)."""
        for transport in self.transports.values():
            await transport.close()


__all__ = ["ServiceCluster", "place_units"]
