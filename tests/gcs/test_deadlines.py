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


def test_a_wait_begun_while_forming_ends_with_the_install():
    """A participant whose estimate changes between PROPOSE and INSTALL
    starts waiting for the coordinator's next proposal; the install that
    follows answers the wait, so nobody is declared silent afterwards (it
    was, ``install_timeout`` later, and the view split and re-merged)."""
    world = GcsWorld(4)
    world.sim.run_until(5.03)
    world.daemons[VICTIM].crash()  # s0 will propose the view without it
    participant = world.daemons["s1"]
    changed_at = []

    def change_while_forming():
        if not changed_at and participant.membership.forming:
            changed_at.append(world.sim.now)
            participant.on_detector_change()

    run_events_until(world, 6.0, change_while_forming)
    assert changed_at
    world.sim.run_until(changed_at[0] + 2 * world.settings.install_timeout)
    assert world.trace.count("gcs.coordinator_silent") == 0
    world.assert_single_view({"s0", "s1", "s2"})
    installed = world.trace.select("gcs.view_installed", since=5.03)
    assert sorted(event.node for event in installed) == ["s0", "s1", "s2"]


def test_a_renewed_wait_for_the_same_coordinator_still_times_out():
    """s1 stops hearing s2 and waits for s0 to propose the view without
    it; hearing s2 again ends that wait.  When s2 falls silent once more,
    the new wait for the same s0 has its own deadline (it had none, and a
    coordinator that never proposed was never abandoned)."""
    world = GcsWorld(3)
    settings = world.settings
    topology = world.network.topology
    world.sim.run_until(5.0)
    topology.cut_link("s2", "s1", symmetric=False)
    world.sim.run_until(5.5)  # s1 suspects s2: a wait for s0 begins
    topology.restore_link("s2", "s1", symmetric=False)
    # past the first wait's deadline: s2 was heard again, the wait ended
    world.sim.run_until(5.0 + settings.suspect_timeout + settings.install_timeout + 0.2)
    assert world.trace.count("gcs.coordinator_silent") == 0
    recut = world.sim.now
    topology.cut_link("s2", "s1", symmetric=False)
    world.sim.run_until(recut + settings.suspect_timeout + 2 * settings.install_timeout)
    silent = first(world, "gcs.coordinator_silent", node="s1", since=recut)
    assert silent.detail["coordinator"] == "s0"
    # the wait begins when s1 suspects s2 again, at most a suspect timeout in
    assert (
        recut + settings.install_timeout
        <= silent.time
        <= recut + settings.suspect_timeout + settings.install_timeout
    )


def test_steady_state_arms_nothing_and_runs_the_parents_events(monkeypatch):
    """While every peer is heard each interval no deadline falls before the
    next tick: a fault-free run executes exactly the events it executed
    when every wait was polled (the counts are the parent commit's)."""
    armed = []
    set_timer_at = GcsDaemon.set_timer_at

    def counting(self, time, callback, label=""):
        armed.append((self.node_id, time))
        return set_timer_at(self, time, callback, label)

    monkeypatch.setattr(GcsDaemon, "set_timer_at", counting)
    world = GcsWorld(5)
    world.sim.run_until(10.0)
    assert len({d.config.view_id for d in world.daemons.values()}) == 1
    assert armed == []
    assert world.sim.executed_events == 1830
    assert all(math.isinf(d.membership.next_deadline()) for d in world.daemons.values())
