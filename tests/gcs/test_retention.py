"""Holdback retention: a daemon keeps a sequenced message only while a
member of its configuration can still ask for it.

Every liveness message reports its sender's ``delivered_upto``; at each
tick a daemon prunes its holdback below the least report of the current
configuration (the stable point), never past its own delivery point or
its highest entry, and never keeping more than ``holdback_keep``
delivered messages.  These tests pin the bound in steady state (both
failure detectors), the sync reply it shrinks, the lagging member that
holds it, and the reports it must ignore.
"""

from __future__ import annotations

import pytest

from repro.gcs.failure_detector import HEARTBEAT_REFRESH_FACTOR
from repro.gcs.messages import (
    Heartbeat,
    NackSeqs,
    OrderRequest,
    RequestId,
    Sequenced,
    SequencedBatch,
)
from repro.gcs.settings import GcsSettings
from repro.gcs.view import ViewId
from repro.net.codec import encode_frame
from repro.net.transport import UDP_MAX_FRAME
from repro.sim.network import Message
from tests.gcs.conftest import GcsWorld, block_sequenced, unblock_sequenced

N_MCASTS = 2000
PER_STEP, STEP = 2, 0.01  # 200 multicasts/s, spread over the three daemons


def _joined_world(mode: str = "heartbeat") -> GcsWorld:
    world = GcsWorld(3, settings=GcsSettings(membership_mode=mode))
    world.settle()
    for node in world.daemon_ids:
        world.daemons[node].join("g")
    world.run(1.0)
    return world


def _load(world: GcsWorld, count: int = N_MCASTS) -> None:
    for i in range(count):
        world.daemons[world.daemon_ids[i % 3]].mcast("g", i)
        if i % PER_STEP == PER_STEP - 1:
            world.run(STEP)


def _bound(settings: GcsSettings) -> float:
    """Entries a tick may leave retained at 200 multicasts/s: a report is
    at most one heartbeat refresh old.  On a link busy with protocol
    traffic the refresh heartbeat goes out on the tick after the refresh
    period has passed (the tick clock accumulates float error, so the
    fourth tick falls a hair short of 0.4 s) — five intervals by default.
    SWIM probes every member within that."""
    interval = settings.heartbeat_interval
    refresh = (HEARTBEAT_REFRESH_FACTOR + 1) * interval
    return (PER_STEP / STEP) * refresh


@pytest.mark.parametrize("mode", ["heartbeat", "gossip"])
def test_steady_state_retention_is_what_the_reports_lag(mode):
    world = _joined_world(mode)
    for daemon in world.daemons.values():
        daemon.holdback_retained_max = 0
    _load(world)
    bound = _bound(world.settings)
    assert bound < world.settings.holdback_keep / 10
    between_ticks = (PER_STEP / STEP) * world.settings.heartbeat_interval
    for node, daemon in world.daemons.items():
        assert daemon.holdback.delivered_upto >= N_MCASTS, node
        stats = daemon.holdback_stats()
        assert 0 < stats["retained_max"] <= bound, node
        assert stats["retained"] == len(daemon.holdback) <= bound + between_ticks, node
        lag = daemon.holdback.delivered_upto - stats["stable_floor"]
        assert lag <= bound + between_ticks, node
    world.run(1.0)  # quiet: every report catches up; the highest entry stays
    for daemon in world.daemons.values():
        assert len(daemon.holdback) == 1
        assert daemon.holdback.get(daemon.holdback.delivered_upto - 1) is not None
    world.check_spec()


def test_next_sync_reply_fits_a_datagram():
    world = _joined_world()
    _load(world)
    replies = []
    for daemon in world.daemons.values():
        build = daemon.build_sync_reply

        def recording(attempt, view_counter, build=build):
            reply = build(attempt, view_counter)
            replies.append(reply)
            return reply

        daemon.build_sync_reply = recording
    world.daemons["s2"].crash()
    world.settle()
    world.assert_single_view(expected_members={"s0", "s1"})
    assert replies
    for reply in replies:
        assert len(encode_frame(reply)) < UDP_MAX_FRAME, len(reply.sequenced)
    world.check_spec()


def test_lagging_member_holds_the_floor_and_is_repaired_by_nack():
    world = _joined_world()
    lagger = world.daemons["s2"]
    floor = lagger.holdback.delivered_upto
    block_sequenced(lagger)
    for i in range(300):
        world.daemons["s1"].mcast("g", i)
        if i % 10 == 9:
            world.run(0.05)
    world.run(1.0)
    sequencer = world.daemons["s0"]
    for node in ("s0", "s1"):
        daemon = world.daemons[node]
        assert daemon.stable_floor == floor, node
        assert daemon.holdback.pruned_below <= floor, node
        assert len(daemon.holdback) >= 300, node
    # the stall ends; fresh traffic shows s2 its gap, its NACKs name seqs
    # from its own delivery point up, and every one is still held
    unblock_sequenced(lagger)
    world.daemons["s1"].mcast("g", "trigger")
    world.run(3.0)
    assert world.network.sent_count("s0", "gcs.resync") == 0
    assert world.network.sent_count("s2", "gcs.nack_seq") > 0
    assert world.apps["s2"].payloads("g") == list(range(300)) + ["trigger"]
    world.assert_single_view(expected_members=set(world.daemon_ids))
    assert sequencer.stable_floor > floor + 300
    world.check_spec()


def test_late_duplicate_nack_for_a_delivered_seq_is_not_a_resync():
    """A NACK duplicated or reordered on the wire can arrive after its
    sender reported delivering the seqs it names, and the sequencer may
    have pruned them on that report: nothing is missing, so no resync."""
    world = _joined_world()
    _load(world, 200)
    world.run(1.0)
    sequencer = world.daemons["s0"]
    late = sequencer.holdback.pruned_below - 1
    assert late >= 0 and sequencer.holdback.get(late) is None
    assert sequencer._reports["s2"][1] > late
    before = world.network.sent_count("s0", "gcs.sequenced_batch")
    sequencer._on_nack_seqs(NackSeqs(sequencer.config.view_id, (late,)), sender="s2")
    world.run(1.0)
    assert world.network.sent_count("s0", "gcs.resync") == 0
    assert world.network.sent_count("s0", "gcs.sequenced_batch") == before
    world.assert_single_view(expected_members=set(world.daemon_ids))


def _report(daemon, sender, view_id, delivered_upto):
    heartbeat = Heartbeat(sender, 0, 0, view_id, delivered_upto)
    daemon.on_message(
        Message(sender, daemon.node_id, heartbeat, "gcs.heartbeat", 1, daemon.sim.now, -1)
    )


def test_reports_from_elsewhere_change_nothing():
    world = GcsWorld(4)
    world.settle()
    for node in world.daemon_ids:
        world.daemons[node].join("g")
    world.run(1.0)
    world.daemons["s3"].crash()  # s3: in the world, not in the next view
    world.settle()
    world.assert_single_view(expected_members={"s0", "s1", "s2"})
    lagger = world.daemons["s2"]
    floor = lagger.holdback.delivered_upto
    block_sequenced(lagger)
    for i in range(50):
        world.daemons["s1"].mcast("g", i)
    world.run(1.0)
    sequencer = world.daemons["s0"]
    view_id = sequencer.config.view_id
    assert sequencer._stable_point() == floor
    reports = dict(sequencer._reports)
    huge = 10**6
    _report(sequencer, "s3", view_id, huge)  # a world daemon, not a member
    _report(sequencer, "x9", view_id, huge)  # nobody at all
    assert sequencer._reports == reports
    assert sequencer._stable_point() == floor
    # the lagger itself reporting from another configuration: the floor
    # falls back to the cap, it cannot rise past what is held
    _report(sequencer, "s2", ViewId(view_id.counter + 7, "s2"), huge)
    assert sequencer._stable_point() == 0
    sequencer._prune_holdback()
    assert sequencer.holdback.pruned_below <= floor
    assert all(sequencer.holdback.get(seq) for seq in range(floor, sequencer._next_seq))


def test_inflated_reports_cannot_prune_past_own_delivery():
    world = _joined_world()
    follower = world.daemons["s1"]
    view_id = follower.config.view_id
    held = follower.holdback.delivered_upto
    # a message beyond a gap: held back, undelivered
    request = OrderRequest(RequestId("s0", 0, 99), "g", "beyond-gap")
    follower._on_sequenced_batch(
        SequencedBatch(view_id, (Sequenced(view_id, held + 2, request),))
    )
    assert follower.holdback.delivered_upto == held
    for sender in ("s0", "s2"):
        _report(follower, sender, view_id, 10**6)
    assert follower._stable_point() == held
    follower._prune_holdback()
    assert follower.holdback.pruned_below <= held
    assert follower.holdback.get(held + 2) is not None
