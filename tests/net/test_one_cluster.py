"""One cluster class for both runtimes: ``ServiceCluster.build`` (the
simulator) and ``net.cluster.assemble`` (sockets) construct servers and
clients the same way.  No socket is opened here: the live side runs over
null or unstarted transports."""

from repro.core import AvailabilityPolicy, ServiceCluster
from repro.gcs.settings import GcsSettings
from repro.gcs.spec import SpecMonitor
from repro.net.cluster import assemble
from repro.net.faults import FaultPlane, FaultyTransport
from repro.net.replay import ReplayTransport
from repro.services import VodApplication, build_movie
from repro.sim.engine import Simulator
from repro.sim.trace import TraceLog

SERVERS = ["s0", "s1", "s2"]


def _units():
    movies = {u: build_movie(u, duration_seconds=10.0, frame_rate=10.0) for u in ("m0", "m1")}
    app = VodApplication(movies)
    return {unit: app for unit in movies}


def _assemble(transports, faults=None):
    return assemble(
        Simulator(),
        transports,
        SERVERS,
        ["c0"],
        _units(),
        AvailabilityPolicy(),
        GcsSettings(),
        TraceLog(),
        SpecMonitor(),
        faults=faults,
    )


def test_both_runtimes_construct_the_same_servers_and_client():
    simulated = ServiceCluster.build(n_servers=3, units=_units(), replication=3)
    simulated.add_client("c0")
    live = _assemble({node: ReplayTransport(node) for node in [*SERVERS, "c0"]})

    assert type(live) is ServiceCluster
    assert sorted(live.servers) == sorted(simulated.servers) == SERVERS
    for server_id in SERVERS:
        ours, theirs = live.servers[server_id], simulated.servers[server_id]
        assert ours.hosted_units == theirs.hosted_units == ["m0", "m1"]
        assert ours.catalog == theirs.catalog
        assert ours.daemon.world == theirs.daemon.world == SERVERS
    # full replication on both; build's round-robin only rotates host order
    assert {u: sorted(h) for u, h in simulated.placement.items()} == live.placement
    assert live.clients["c0"].gcs.contacts == simulated.clients["c0"].gcs.contacts == SERVERS
    # each live node has its own network; every simulated node shares one
    assert len({id(network) for network in live.networks.values()}) == 4
    assert {id(network) for network in simulated.networks.values()} == {id(simulated.network)}


def test_partition_and_heal_drive_a_live_fault_plane():
    transports = {node: FaultyTransport(ReplayTransport(node)) for node in [*SERVERS, "c0"]}
    plane = FaultPlane()
    for node, transport in transports.items():
        plane.adopt(node, transport)
    cluster = _assemble(transports, faults=plane.model)

    def severed(src, dst):
        before = transports[src].faults.severed_drops
        transports[src].send(dst, b"probe")
        return transports[src].faults.severed_drops > before

    cluster.partition(["s0"], ["s1", "s2", "c0"])
    assert severed("s0", "s1") and severed("s2", "s0")
    assert not severed("s1", "s2")
    cluster.heal()
    assert not severed("s0", "s1") and not severed("s2", "s0")
