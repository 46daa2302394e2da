"""Cluster builder: wires the simulator, network, servers, placement and
clients into a runnable service deployment.

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

from typing import TYPE_CHECKING, Iterable, Mapping

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
    from repro.faults.injector import LinkFaults


def primaries_of(servers: Mapping[str, FrameworkServer], session_id: str) -> list[str]:
    """All live servers currently claiming the primary role for the
    session (the unique-primary design goal says this should be one)."""
    return [
        server_id
        for server_id, server in servers.items()
        if server.is_up() and session_id in server.primary_sessions()
    ]


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
    """A complete simulated deployment of the framework."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        servers: dict[str, FrameworkServer],
        placement: dict[str, list[str]],
        policy: AvailabilityPolicy,
        settings: GcsSettings,
        rngs: RngRegistry,
        monitor: SpecMonitor,
    ) -> None:
        self.sim = sim
        self.network = network
        #: the link-fault surface ``repro.faults.injector.apply`` drives
        self.faults: LinkFaults = network
        self.servers = servers
        self.placement = placement
        self.policy = policy
        self.settings = settings
        self.rngs = rngs
        self.monitor = monitor
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
        placement: dict[str, list[str]] | None = None,
        loss_probability: float = 0.0,
    ) -> "ServiceCluster":
        """Build a cluster of ``n_servers`` hosting ``units``.

        ``latency`` is ``"lan"``, ``"wan"`` or ``"zero"``; GCS timeouts are
        left at their LAN defaults unless explicit ``settings`` are given.
        ``loss_probability`` drops that fraction of network messages
        uniformly (the GCS recovers ordered traffic via NACKs; raw
        point-to-point responses are simply lost, as on a real UDP path).
        """
        policy = policy or AvailabilityPolicy()
        settings = settings or GcsSettings()
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
        monitor = SpecMonitor()

        server_ids = [f"s{i}" for i in range(n_servers)]
        if placement is None:
            placement = place_units(list(units), server_ids, replication)
        catalog = {unit: content_group(unit) for unit in units}

        servers: dict[str, FrameworkServer] = {}
        for server_id in server_ids:
            hosted = [u for u, hosts in placement.items() if server_id in hosts]
            servers[server_id] = FrameworkServer(
                server_id=server_id,
                network=network,
                world=server_ids,
                hosted_units=hosted,
                applications={u: units[u] for u in hosted},
                catalog=catalog,
                policy=policy,
                settings=settings,
                monitor=monitor,
            )
        cluster = ServiceCluster(
            sim=sim,
            network=network,
            servers=servers,
            placement=placement,
            policy=policy,
            settings=settings,
            rngs=rngs,
            monitor=monitor,
        )
        for server in servers.values():
            server.start()
        return cluster

    def spawn_server(
        self,
        server_id: str,
        hosted_units: list[str] | None = None,
        applications: dict[str, ServiceApplication] | None = None,
    ) -> FrameworkServer:
        """Bring a brand-new server into the running service.

        This is the mechanism behind the paper's availability-management
        future work ([Mishra & Pang 1999]): when the manager decides more
        capacity or replication is needed, a fresh server joins the
        world, starts heartbeating, and the join-type view change absorbs
        it (state exchange + rebalance) with no client involvement.

        ``hosted_units`` defaults to every unit in the service (full
        replication on the newcomer); ``applications`` defaults to reusing
        the existing servers' application instances.
        """
        if server_id in self.servers:
            raise ValueError(f"server id {server_id!r} already exists")
        if hosted_units is None:
            hosted_units = sorted(self.placement)
        if applications is None:
            applications = {}
            for unit in hosted_units:
                host = self.placement[unit][0]
                applications[unit] = self.servers[host].applications[unit]
        catalog = {unit: content_group(unit) for unit in self.placement}
        world = sorted(self.servers) + [server_id]
        server = FrameworkServer(
            server_id=server_id,
            network=self.network,
            world=world,
            hosted_units=hosted_units,
            applications=applications,
            catalog=catalog,
            policy=self.policy,
            settings=self.settings,
            monitor=self.monitor,
        )
        # existing daemons must learn to heartbeat the newcomer
        for existing in self.servers.values():
            if server_id not in existing.daemon.world:
                existing.daemon.world.append(server_id)
        self.servers[server_id] = server
        for unit in hosted_units:
            self.placement.setdefault(unit, [])
            if server_id not in self.placement[unit]:
                self.placement[unit].append(server_id)
        server.start()
        return server

    def add_client(self, client_id: str) -> ServiceClient:
        client = ServiceClient(
            client_id,
            self.network,
            contact_servers=sorted(self.servers),
            settings=self.settings,
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
        self.network.topology.partition(*components)

    def heal(self) -> None:
        self.network.topology.heal_partition()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def live_servers(self) -> list[str]:
        return [sid for sid, server in self.servers.items() if server.is_up()]

    def hosts_of(self, unit_id: str) -> list[str]:
        return list(self.placement[unit_id])

    def primaries_of(self, session_id: str) -> list[str]:
        return primaries_of(self.servers, session_id)

    def trace_log(self) -> TraceLog:
        return self.network.trace


__all__ = ["ServiceCluster", "place_units", "primaries_of"]
