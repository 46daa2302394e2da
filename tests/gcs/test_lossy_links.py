"""GCS behaviour over lossy links: NACK-based retransmission keeps the
total order reliable even when the wire drops messages."""

import numpy as np
import pytest

from repro.gcs.client_api import GcsClient
from repro.gcs.daemon import GcsDaemon
from repro.gcs.settings import GcsSettings
from repro.gcs.spec import SpecMonitor
from repro.sim.engine import Simulator
from repro.sim.latency import FixedLatency
from repro.sim.network import Network
from repro.sim.topology import Topology
from tests.gcs.conftest import ClientApp, RecordingApp


def lossy_world(n_daemons: int, loss: float, seed: int = 5):
    sim = Simulator()
    network = Network(
        sim,
        Topology(),
        FixedLatency(0.002),
        loss_probability=loss,
        loss_rng=np.random.default_rng(seed),
    )
    monitor = SpecMonitor()
    names = [f"s{i}" for i in range(n_daemons)]
    apps, daemons = {}, {}
    for name in names:
        app = RecordingApp()
        daemon = GcsDaemon(
            name, network, world=names, app=app,
            settings=GcsSettings(), monitor=monitor,
        )
        daemon.start()
        apps[name] = app
        daemons[name] = daemon
    sim.run_until(4.0)
    return sim, network, daemons, apps, monitor


def test_network_rejects_bad_loss_config():
    sim = Simulator()
    with pytest.raises(ValueError):
        Network(sim, loss_probability=1.5, loss_rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        Network(sim, loss_probability=0.1)  # no rng


def test_network_drops_fraction_of_messages():
    sim = Simulator()
    network = Network(
        sim, Topology(), FixedLatency(0.001),
        loss_probability=0.3, loss_rng=np.random.default_rng(1),
    )
    received = []
    network.attach("a", received.append, lambda: True)
    network.attach("b", received.append, lambda: True)
    for _ in range(500):
        network.send("a", "b", "x")
    sim.run()
    assert 280 <= len(received) <= 420  # ~70% of 500


def test_self_messages_never_lost():
    sim = Simulator()
    network = Network(
        sim, Topology(), FixedLatency(0.001),
        loss_probability=0.5, loss_rng=np.random.default_rng(1),
    )
    received = []
    network.attach("a", received.append, lambda: True)
    for _ in range(50):
        network.send("a", "a", "x")
    sim.run()
    assert len(received) == 50


def assert_cohabitants_agree(monitor):
    """Two daemons that installed a view and left it for the same successor
    — or are both still in it, the run being quiet — delivered the same
    requests in it.  This is virtual synchrony (``check_all`` covers the
    transitions) extended to the final view, and it is where a broken NACK
    repair would show: a daemon stalled on a holdback gap sits in the same
    final view as the daemons that delivered past it."""
    views = {
        node: [config.view_id for config in history.configs]
        for node, history in monitor.history.items()
    }

    def delivered(node, view_id):
        return {
            request.request_id._key()
            for request in monitor.history[node].requests.get(view_id, [])
        }

    for a in views:
        for b in views:
            if not a < b:
                continue
            for view_id in set(views[a]) & set(views[b]):
                successors = [
                    (ids + [None])[ids.index(view_id) + 1]
                    for ids in (views[a], views[b])
                ]
                if successors[0] == successors[1]:
                    assert delivered(a, view_id) == delivered(b, view_id), (
                        a, b, str(view_id),
                    )


@pytest.mark.parametrize("loss", [0.05, 0.15])
def test_total_order_complete_despite_loss(loss):
    """What the GCS owes forty multicasts over lossy links — no more.

    At 15 % loss three heartbeats in a row go missing every few seconds,
    so a healthy daemon is now and then dropped from the view and merged
    back.  A request it submitted meanwhile may be sequenced and delivered
    by the others in a view it was not in (open groups: the sender need
    not be a member); the merge then tells it "already delivered" and it
    rightly never sees the message — a partitionable GCS promises a
    message to the members of the view that delivers it, not to whoever
    joins later (DESIGN.md §6, "What a merged daemon is owed").  The old
    form of this test asked every daemon for all forty and passed on the
    luck of its seed.  Asserted instead: nothing is lost or delivered
    twice, daemons that shared a view to its end agree on it, nothing
    stays pending, and once the links are clean and one view holds
    everybody, everything sent arrives everywhere in one order."""
    sim, network, daemons, apps, monitor = lossy_world(3, loss)
    for daemon in daemons.values():
        daemon.join("g")
    sim.run_until(sim.now + 2.0)
    for index in range(40):
        daemons[f"s{index % 3}"].mcast("g", index)
    sim.run_until(sim.now + 12.0)
    monitor.check_all()  # includes at-most-once per daemon
    assert_cohabitants_agree(monitor)
    somewhere = set().union(*(app.payloads("g") for app in apps.values()))
    assert somewhere == set(range(40))
    for name, daemon in daemons.items():
        assert len(daemon.pending) == 0, name

    network.loss_probability = 0.0
    deadline = sim.now + 10.0
    while sim.now < deadline:
        sim.run_until(sim.now + 0.25)
        if (
            len({d.config.view_id for d in daemons.values()}) == 1
            and set(daemons["s0"].config.members) == set(daemons)
            and not any(d.membership.forming for d in daemons.values())
        ):
            break
    else:
        pytest.fail("no agreed view of all three within 10 s of clean links")
    for index in range(40, 80):
        daemons[f"s{index % 3}"].mcast("g", index)
    sim.run_until(sim.now + 2.0)
    fresh = [[p for p in app.payloads("g") if p >= 40] for app in apps.values()]
    assert sorted(fresh[0]) == list(range(40, 80))
    assert fresh[0] == fresh[1] == fresh[2]
    monitor.check_all()
    assert_cohabitants_agree(monitor)


def test_client_injection_survives_loss():
    sim, network, daemons, apps, monitor = lossy_world(3, 0.15)
    for daemon in daemons.values():
        daemon.join("g")
    sim.run_until(sim.now + 2.0)
    client_app = ClientApp()
    client = GcsClient(
        "c0", network, contacts=list(daemons), app=client_app,
        settings=GcsSettings(),
    )
    client.start()
    for index in range(20):
        client.mcast("g", index)
    sim.run_until(sim.now + 15.0)
    assert sorted(apps["s0"].payloads("g")) == list(range(20))
    assert client.unacked_count == 0
    assert client_app.failed == []
    monitor.check_all()


def test_membership_converges_despite_loss():
    sim, network, daemons, apps, monitor = lossy_world(4, 0.1)
    sim.run_until(sim.now + 4.0)
    views = {d.config.view_id for d in daemons.values()}
    assert len(views) == 1
    assert set(next(iter(daemons.values())).config.members) == set(daemons)


# ---------------------------------------------------------------------------
# randomized safety under loss
# ---------------------------------------------------------------------------

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    loss=st.sampled_from([0.02, 0.08, 0.15]),
    crash_index=st.integers(min_value=0, max_value=2),
    n_messages=st.integers(min_value=5, max_value=25),
)
def test_safety_under_loss_and_crash(loss, crash_index, n_messages):
    """Randomized loss rates, crash positions and message counts.

    Note what is and is not guaranteed: survivors that raced the crash
    through *different* view paths (e.g. one detoured via a singleton
    view) may legally disagree about messages from the interim window —
    partitionable virtual synchrony constrains only members that move
    together, and reconciling divergent histories is the layer above's
    job (the framework's unit-database merge).  What must always hold:
    the spec safety properties, each origin's own messages delivered at
    least to itself, and full agreement for everything submitted after
    the survivors share a configuration again."""
    sim, network, daemons, apps, monitor = lossy_world(
        3, loss, seed=crash_index * 100 + n_messages
    )
    for daemon in daemons.values():
        daemon.join("g")
    sim.run_until(sim.now + 2.0)
    names = sorted(daemons)
    for index in range(n_messages):
        daemons[names[index % 3]].mcast("g", index)
    daemons[names[crash_index]].crash()
    sim.run_until(sim.now + 12.0)
    survivors = [n for n in names if daemons[n].is_up()]
    for name in survivors:
        # no survivor may be left with a stuck request: everything it
        # submitted was either delivered (possibly in a component it had
        # diverged from — the framework's unit-DB merge reconciles that
        # case) or is still being retransmitted (pending); after 12
        # quiet seconds, pending must have drained.
        assert len(daemons[name].pending) == 0, name
    # wait until the survivors actually share a configuration (heavy loss
    # can stretch reformation), then post-merge traffic must be totally
    # ordered and agreed
    deadline = sim.now + 30.0
    while sim.now < deadline:
        views = {daemons[n].config.view_id for n in survivors}
        forming = any(daemons[n].membership.forming for n in survivors)
        if len(views) == 1 and not forming:
            break
        sim.run_until(sim.now + 0.25)
    assert len({daemons[n].config.view_id for n in survivors}) == 1
    for offset, name in enumerate(survivors):
        daemons[name].mcast("g", ("fresh", offset))
    sim.run_until(sim.now + 8.0)
    fresh = [
        [p for p in apps[n].payloads("g") if isinstance(p, tuple)]
        for n in survivors
    ]
    assert fresh[0] == fresh[1]
    assert len(fresh[0]) == len(survivors)
    monitor.check_all()
