"""Shared fixtures and helpers for GCS tests."""

from __future__ import annotations

import pytest

from repro.gcs.daemon import GcsDaemon
from repro.gcs.client_api import GcsClient
from repro.gcs.settings import GcsSettings
from repro.gcs.spec import SpecMonitor
from repro.sim.engine import Simulator
from repro.sim.latency import FixedLatency
from repro.sim.network import Network
from repro.sim.topology import Topology
from repro.sim.trace import TraceLog


class RecordingApp:
    """A GcsApplication that records every callback."""

    def __init__(self) -> None:
        self.configs = []
        self.group_views = []
        self.messages = []  # (group, origin_request_id, payload, seq)
        self.ptp = []  # (sender, payload)

    def on_config_view(self, config):
        self.configs.append(config)

    def on_group_view(self, view):
        self.group_views.append(view)

    def on_group_message(self, group, origin, payload, seq):
        self.messages.append((group, origin, payload, seq))

    def on_ptp(self, sender, payload):
        self.ptp.append((sender, payload))

    def payloads(self, group=None):
        return [
            payload
            for g, _origin, payload, _seq in self.messages
            if group is None or g == group
        ]

    def last_view(self, group):
        views = [v for v in self.group_views if v.group == group]
        return views[-1] if views else None


class ClientApp:
    """A GcsClientApplication that records callbacks."""

    def __init__(self) -> None:
        self.ptp = []
        self.failed = []

    def on_ptp(self, sender, payload):
        self.ptp.append((sender, payload))

    def on_send_failed(self, group, payload):
        self.failed.append((group, payload))


class FakeHost:
    """A :class:`repro.gcs.detector.DetectorHost` made of fakes, for
    driving a detector without a daemon: manual clock, recorded sends and
    one-shot timers, fixed liveness header."""

    def __init__(self, node_id="me", world=(), settings=None):
        self.node_id = node_id
        self.world = list(world)
        self.settings = settings or GcsSettings()
        self.clock = 0.0
        self.incarnation = 0
        self.sent = []  # (dest, payload, kind)
        self.timers = []  # (fire_at, callback)
        self.periodic = []  # (period, callback, first_delay)
        self.changes = 0

    def now(self):
        return self.clock

    def liveness_header(self):
        return (self.incarnation, 0, None)

    def send_protocol(self, dest, payload, kind, size=1):
        self.sent.append((dest, payload, kind))

    def quiet_since(self, peer):
        return float("-inf")

    def set_timer(self, delay, callback, label=""):
        self.timers.append((self.clock + delay, callback))

    def set_periodic_timer(self, period, callback, label="", first_delay=None):
        self.periodic.append((period, callback, first_delay))

    def on_detector_change(self):
        self.changes += 1

    def advance(self, dt):
        """Move the clock and fire due one-shot timers in order."""
        self.clock += dt
        due = sorted(
            (t for t in self.timers if t[0] <= self.clock), key=lambda t: t[0]
        )
        self.timers = [t for t in self.timers if t[0] > self.clock]
        for _at, callback in due:
            callback()


class GcsWorld:
    """A small test cluster: simulator, network, N daemons with apps."""

    def __init__(self, n_daemons: int, settings: GcsSettings | None = None):
        self.sim = Simulator()
        self.trace = TraceLog()
        self.network = Network(
            self.sim, Topology(), FixedLatency(0.002), trace=self.trace
        )
        self.settings = settings or GcsSettings()
        self.monitor = SpecMonitor()
        self.daemon_ids = [f"s{i}" for i in range(n_daemons)]
        self.apps = {}
        self.daemons = {}
        for node_id in self.daemon_ids:
            app = RecordingApp()
            daemon = GcsDaemon(
                node_id,
                self.network,
                world=self.daemon_ids,
                app=app,
                settings=self.settings,
                monitor=self.monitor,
            )
            daemon.start()
            self.apps[node_id] = app
            self.daemons[node_id] = daemon

    def add_client(self, client_id: str, contacts=None, app=None):
        app = app or ClientApp()
        client = GcsClient(
            client_id,
            self.network,
            contacts=contacts or self.daemon_ids,
            app=app,
            settings=self.settings,
        )
        client.start()
        return client, app

    def run(self, duration: float) -> None:
        self.sim.run_until(self.sim.now + duration, max_events=2_000_000)

    def settle(self) -> None:
        """Run long enough for membership to converge after a change."""
        self.run(3.0)

    def configs(self):
        return {node: d.config for node, d in self.daemons.items()}

    def assert_single_view(self, expected_members=None):
        """All live daemons share one configuration with the given members."""
        live = [d for d in self.daemons.values() if d.is_up()]
        views = {d.config.view_id for d in live}
        assert len(views) == 1, f"multiple configs among live daemons: {views}"
        if expected_members is not None:
            assert set(live[0].config.members) == set(expected_members)

    def check_spec(self):
        self.monitor.check_all()


@pytest.fixture
def world3():
    world = GcsWorld(3)
    world.settle()
    return world


@pytest.fixture
def world5():
    world = GcsWorld(5)
    world.settle()
    return world
