"""Protocol waits end at their deadline, not at the next poll.

The daemon's periodic tick is a coarse wheel: a suspicion, sync, install
or proposal wait that runs out *between* two ticks is noticed by a
one-shot timer at that instant.  These tests pin both halves of the
contract — a timeout is the detection time (neither earlier nor a
heartbeat interval later), and while nothing is due nothing is armed.
"""

import math

import pytest

from repro.gcs.daemon import GcsDaemon
from repro.gcs.settings import GcsSettings
from repro.gcs.swim import SUSPICION_MULTIPLIER
from tests.gcs.conftest import GcsWorld

LATENCY = 0.002  # GcsWorld's fixed link latency
VICTIM = "s3"


def first(world, category, node=None, since=0.0):
    for event in world.trace.select(category=category, node=node, since=since):
        return event
    raise AssertionError(f"no {category} from {node} after {since}")


def run_events_until(world, time, after_each):
    """Like ``sim.run_until`` with a look at the world between events."""
    sim = world.sim
    while (upcoming := sim.next_event_time()) is not None and upcoming <= time:
        sim.step()
        after_each()


def crash_with_last_words(world, at):
    """Crash the victim at ``at``, its last act a message to every survivor
    (any protocol message is liveness evidence, so this — not the last
    tick-aligned heartbeat — is where each survivor's silence begins).
    Returns when each survivor last heard the victim."""
    victim = world.daemons[VICTIM]
    last_heard = {}
    for name, daemon in world.daemons.items():
        if name == VICTIM:
            continue

        def on_message(message, name=name, deliver=daemon.on_message):
            if message.sender == VICTIM:
                last_heard[name] = world.sim.now
            deliver(message)

        daemon.on_message = on_message
    world.sim.run_until(at)
    for name in world.daemons:
        if name != VICTIM:
            victim.send_ptp(name, "last words")
    victim.crash()
    return last_heard


def installs_without_victim(world, since):
    return {
        event.node: event.time
        for event in reversed(world.trace.select("gcs.view_installed", since=since))
        if VICTIM not in event.detail["members"]
    }


CRASH_INSTANTS = [5.0 + k * GcsSettings().heartbeat_interval / 8 for k in range(8)]


@pytest.mark.parametrize("crash_at", CRASH_INSTANTS)
def test_mesh_takeover_happens_at_the_suspect_timeout(crash_at):
    world = GcsWorld(4)
    last_heard = crash_with_last_words(world, crash_at)
    world.sim.run_until(crash_at + 2.0)
    installed = installs_without_victim(world, since=crash_at)
    assert set(installed) == {"s0", "s1", "s2"}
    timeout = world.settings.suspect_timeout
    for name, when in installed.items():
        silence = when - last_heard[name]
        # never before the timeout; after it only propose, sync and install
        # are left (three hops — the parent polled, and took up to a
        # heartbeat interval more)
        assert timeout <= silence <= timeout + 4 * LATENCY, (name, silence)


@pytest.mark.parametrize("crash_at", CRASH_INSTANTS)
def test_gossip_takeover_happens_at_the_suspicion_timeout(crash_at):
    # a probe round that is no multiple of the tick, so that suspicions do
    # not begin (and end) on the tick grid by construction
    settings = GcsSettings(
        membership_mode="gossip", probe_interval=0.07, probe_timeout=0.03
    )
    world = GcsWorld(4, settings)
    last_heard = crash_with_last_words(world, crash_at)
    suspicion_timeout = SUSPICION_MULTIPLIER * settings.probe_interval
    coordinator = world.daemons["s0"].fd
    suspected_at = []

    def watch():
        if not suspected_at and coordinator.suspicions_started:
            suspected_at.append(world.sim.now)

    run_events_until(world, crash_at + 3.0, watch)
    installed = installs_without_victim(world, since=crash_at)
    assert set(installed) == {"s0", "s1", "s2"}
    for name, when in installed.items():
        assert when >= last_heard[name] + suspicion_timeout, name
        # the coordinator evicts when its own suspicion runs out (sooner if
        # a peer's verdict reaches it first) and proposes in that event
        assert when <= suspected_at[0] + suspicion_timeout + 4 * LATENCY, name


# The sync and install waits are set shorter than the suspect timeout in the
# two tests below: at the defaults the failure detector expires a crashed
# daemon first and the restarted attempt never reaches either timeout.
FORMATION = GcsSettings(sync_timeout=0.15, install_timeout=0.25)


def test_crashed_coordinator_is_abandoned_at_the_install_timeout():
    world = GcsWorld(4, FORMATION)
    world.sim.run_until(5.03)
    world.daemons[VICTIM].crash()  # s0 will propose the view without it

    def crash_proposer():  # PROPOSE is on the wire, no SYNC has come back
        if world.trace.count("gcs.propose") > proposals:
            world.daemons["s0"].crash()

    proposals = world.trace.count("gcs.propose")
    run_events_until(world, 6.5, crash_proposer)
    proposed = first(world, "gcs.propose", node="s0", since=5.03).time
    accepted = proposed + LATENCY
    for name in ("s1", "s2"):
        gave_up = first(world, "gcs.install_timeout", node=name, since=proposed)
        assert gave_up.detail["coordinator"] == "s0"
        wait = gave_up.time - accepted
        assert FORMATION.install_timeout <= wait <= FORMATION.install_timeout + LATENCY
        installed = first(world, "gcs.view_installed", node=name, since=gave_up.time)
        assert installed.detail["members"] == ("s1", "s2")
        assert installed.time <= gave_up.time + 4 * LATENCY


def test_silent_member_is_dropped_at_the_sync_timeout():
    world = GcsWorld(4, FORMATION)
    world.sim.run_until(5.03)
    world.daemons[VICTIM].crash()  # s0 will propose the view without it...
    world.sim.run_until(5.25)
    world.daemons["s2"].crash()  # ...to s2 too, which is silent by then
    world.sim.run_until(6.5)
    proposed = first(world, "gcs.propose", node="s0", since=5.03)
    assert proposed.detail["members"] == ("s0", "s1", "s2")
    timed_out = first(world, "gcs.sync_timeout", node="s0", since=proposed.time)
    assert timed_out.detail["missing"] == ["s2"]
    wait = timed_out.time - proposed.time
    assert FORMATION.sync_timeout <= wait <= FORMATION.sync_timeout + LATENCY
    # (what follows the timeout is not pinned here: forgetting s2 re-enters
    # reconfigure() from inside the timeout handler, and the survivors reach
    # their common view by way of singleton views — see CHANGES.md, PR 15)
    assert {d.config.members for d in world.daemons.values() if d.is_up()} == {
        ("s0", "s1")
    }


@pytest.mark.parametrize(
    ("mode", "events"), [("heartbeat", 1830), ("gossip", 2651)]
)
def test_steady_state_arms_nothing_and_runs_the_parents_events(
    mode, events, monkeypatch
):
    """While every peer is heard each interval no deadline falls before the
    next tick: a fault-free run executes exactly the events it executed
    when every wait was polled (the counts are the parent commit's)."""
    armed = []
    set_timer_at = GcsDaemon.set_timer_at

    def counting(self, time, callback, label=""):
        armed.append((self.node_id, time))
        return set_timer_at(self, time, callback, label)

    monkeypatch.setattr(GcsDaemon, "set_timer_at", counting)
    world = GcsWorld(5, GcsSettings(membership_mode=mode))
    world.sim.run_until(10.0)
    assert len({d.config.view_id for d in world.daemons.values()}) == 1
    assert armed == []
    assert world.sim.executed_events == events
    assert all(math.isinf(d.membership.next_deadline()) for d in world.daemons.values())
