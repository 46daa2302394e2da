"""Unit tests for NACK retransmission plumbing and orphan-at-new-view
delivery — the machinery added for lossy links (DESIGN.md §6)."""

import pytest

from repro.gcs.daemon import _TAIL_REPEATS
from repro.gcs.messages import NackSeqs, OrderRequest, RequestId, Sequenced
from repro.gcs.ordering import HoldbackBuffer
from repro.gcs.settings import GcsSettings
from repro.gcs.view import ViewId
from tests.gcs.conftest import GcsWorld, block_sequenced

VID = ViewId(3, "s0")


def req(counter, payload=None):
    return OrderRequest(
        request_id=RequestId("x", 0, counter), group="g",
        payload=payload if payload is not None else counter,
    )


def seqd(seq, counter):
    return Sequenced(config_view_id=VID, seq=seq, request=req(counter))


class TestMissingSeqs:
    def test_no_gap(self):
        buf = HoldbackBuffer()
        for seq in range(3):
            buf.insert(seqd(seq, seq))
        buf.take_ready()
        assert buf.missing_seqs() == []

    def test_single_gap(self):
        buf = HoldbackBuffer()
        buf.insert(seqd(0, 0))
        buf.insert(seqd(2, 2))
        buf.take_ready()
        assert buf.missing_seqs() == [1]

    def test_multiple_gaps_limited(self):
        buf = HoldbackBuffer()
        buf.insert(seqd(10, 10))
        assert buf.missing_seqs(limit=4) == [0, 1, 2, 3]

    def test_empty(self):
        assert HoldbackBuffer().missing_seqs() == []

    def test_get(self):
        buf = HoldbackBuffer()
        message = seqd(5, 5)
        buf.insert(message)
        assert buf.get(5) is message
        assert buf.get(4) is None


class TestNackHandling:
    @pytest.mark.parametrize("batching", [True, False])
    def test_sequencer_retransmits_on_nack(self, batching):
        settings = GcsSettings() if batching else GcsSettings(batch_window=0.0)
        world = GcsWorld(3, settings=settings)
        world.settle()
        for node in world.daemon_ids:
            world.daemons[node].join("g")
        world.run(1.0)
        lagger = world.daemons["s2"]
        stalled = block_sequenced(lagger)
        for payload in ("hello", "world"):
            world.daemons["s1"].mcast("g", payload)
        world.run(1.0)
        sequencer = world.daemons["s0"]
        assert sequencer.config.sequencer == "s0"
        # s2 lags by two messages and NACKs both: the sequencer resends
        # what it holds for those seqs, as one batch (whatever the
        # spacing: a NACK answer is not a dissemination)
        gap = (lagger.holdback.delivered_upto, lagger.holdback.delivered_upto + 1)
        assert sequencer._next_seq == gap[1] + 1
        kind = "gcs.sequenced_batch"
        before = world.network.sent_count("s0", kind)
        sequencer._on_nack_seqs(
            NackSeqs(config_view_id=sequencer.config.view_id, seqs=gap),
            sender="s2",
        )
        world.run(0.5)
        after = world.network.sent_count("s0", kind)
        assert after == before + 1
        assert [m.seq for m in stalled[-1].messages] == list(gap)

    @staticmethod
    def world_with_seq_0_ordered():
        """Both daemons hold seq 0, so a NACK for it *could* be answered
        (and the sequencer's tail repeats are over, so the counts rest)."""
        world = GcsWorld(2)
        world.settle()
        world.daemons["s0"].join("g")
        world.run(1.0)
        return world

    def test_non_sequencer_ignores_nack(self):
        world = self.world_with_seq_0_ordered()
        follower = world.daemons["s1"]
        assert follower.holdback.get(0) is not None
        before = world.network.sent_count("s1", "gcs.sequenced_batch")
        follower._on_nack_seqs(
            NackSeqs(config_view_id=follower.config.view_id, seqs=(0,)),
            sender="s0",
        )
        world.run(0.5)
        assert world.network.sent_count("s1", "gcs.sequenced_batch") == before

    def test_stale_view_nack_ignored(self):
        world = self.world_with_seq_0_ordered()
        sequencer = world.daemons["s0"]
        assert sequencer.holdback.get(0) is not None
        before = world.network.sent_count("s0", "gcs.sequenced_batch")
        sequencer._on_nack_seqs(
            NackSeqs(config_view_id=ViewId(999, "zz"), seqs=(0,)), sender="s1"
        )
        world.run(0.5)
        assert world.network.sent_count("s0", "gcs.sequenced_batch") == before


def drop_disseminations(world, to, sequencer="s0"):
    """Lose what the sequencer disseminates to ``to`` while the returned
    switch is on (heartbeats and NACK answers asked for later still pass
    once it is off)."""
    daemon = world.daemons[sequencer]
    switch = {"on": False}

    def send(receiver, payload, kind="msg", size=1, send=daemon.send):
        if switch["on"] and receiver == to and kind.startswith("gcs.sequenced"):
            return
        send(receiver, payload, kind=kind, size=size)

    daemon.send = send
    return switch


@pytest.mark.parametrize("batching", [True, False])
class TestTailLossRepair:
    """DESIGN.md §6 hazard 9: a receiver learns of a lost Sequenced only
    from a later one, so the last dissemination before a quiet period was
    never repaired — the sequencer now repeats its tail into the quiet."""

    def world(self, batching):
        settings = GcsSettings() if batching else GcsSettings(batch_window=0.0)
        world = GcsWorld(3, settings=settings)
        world.settle()
        for node in world.daemon_ids:
            world.daemons[node].join("g")
        world.run(1.0)
        return world

    def test_lost_last_dissemination_is_repaired_in_the_quiet(self, batching):
        world = self.world(batching)
        interval = world.settings.heartbeat_interval
        lossy = drop_disseminations(world, to="s2")
        lossy["on"] = True
        world.daemons["s1"].mcast("g", "last")
        world.run(0.01)
        lossy["on"] = False
        assert world.apps["s1"].payloads("g") == ["last"]
        assert world.apps["s2"].payloads("g") == []
        # no further multicast: the repeat on the second quiet tick is the
        # repair (the tail itself was what s2 missed)
        world.run(2 * interval)
        assert world.apps["s2"].payloads("g") == ["last"]
        assert world.network.sent_count("s2", "gcs.nack_seq") == 0
        world.check_spec()

    def test_repeated_tail_exposes_the_losses_below_it(self, batching):
        world = self.world(batching)
        interval = world.settings.heartbeat_interval
        lossy = drop_disseminations(world, to="s2")
        lossy["on"] = True
        for index in range(3):
            world.daemons["s1"].mcast("g", index)
            world.run(0.01)  # three disseminations, all lost to s2
        lossy["on"] = False
        # repeat (<= 2 ticks) -> s2 holds seq n, NACKs n-2, n-1 on its next
        # tick -> the sequencer's answer: within four intervals in all
        world.run(4 * interval)
        assert world.apps["s2"].payloads("g") == [0, 1, 2]
        assert world.network.sent_count("s2", "gcs.nack_seq") >= 1
        world.check_spec()

    def test_repeats_are_bounded_and_cost_nothing_under_traffic(self, batching):
        world = self.world(batching)
        kind = "gcs.sequenced_batch"
        world.network.reset_stats()
        for index in range(40):  # a dissemination in every tick interval
            world.daemons["s1"].mcast("g", index)
            world.run(0.05)
        assert world.network.sent_count("s0", kind) == 40 * 2
        world.run(5.0)
        assert world.network.sent_count("s0", kind) == (40 + _TAIL_REPEATS) * 2
        for node in world.daemon_ids:
            assert world.apps[node].payloads("g") == list(range(40))


class TestOrphanDeliveryAtNewView:
    def test_unsequenced_requests_survive_sequencer_crash(self):
        """Messages whose sequencing died with the sequencer are delivered
        at the head of the next configuration — with fresh sequence
        numbers, never reusing the old configuration's."""
        world = GcsWorld(3)
        world.settle()
        for node in world.daemon_ids:
            world.daemons[node].join("g")
        world.run(1.0)
        # cut the sequencer off right before it can sequence, so the
        # requests stay unsequenced at their origins
        world.network.topology.set_node_down("s0", True)
        world.daemons["s1"].mcast("g", "orphan-1")
        world.daemons["s2"].mcast("g", "orphan-2")
        world.run(0.1)
        world.daemons["s0"].crash()
        world.network.topology.set_node_down("s0", False)
        world.settle()
        for node in ("s1", "s2"):
            payloads = world.apps[node].payloads("g")
            assert "orphan-1" in payloads and "orphan-2" in payloads, node
        world.check_spec()


class TestUnfillableNackResync:
    def test_pruned_below_tracks_prune_floor(self):
        buf = HoldbackBuffer()
        for seq in range(40):
            buf.insert(seqd(seq, seq))
        buf.take_ready()
        assert buf.pruned_below == 0
        buf.prune(keep=10)
        assert buf.pruned_below == 30
        assert buf.get(29) is None
        assert buf.get(30) is not None
        # a smaller keep later never moves the floor backwards
        buf.prune(keep=100)
        assert buf.pruned_below == 30

    def test_peer_lagging_beyond_keep_reconverges(self):
        """Regression for the NACK-stall: a peer whose holdback gap was
        pruned from the sequencer's retransmission buffer used to stall
        forever (its NACKs silently ignored, heartbeats still flowing so
        no view change ever repaired it).  Now the sequencer answers the
        unfillable NACK with a resync: the peer falls back to a singleton
        view and re-merges, after which new messages reach it again."""
        settings = GcsSettings(holdback_keep=16)
        world = GcsWorld(3, settings=settings)
        world.settle()
        for node in world.daemon_ids:
            world.daemons[node].join("g")
        world.run(1.0)
        lagger = world.daemons["s2"]
        # Simulate a long unidirectional outage of the ordering stream
        # only: s2 drops every sequenced message at the handler while
        # heartbeats (and everything else) keep flowing.
        lagger._on_sequenced = lambda m: None
        lagger._on_sequenced_batch = lambda b: None
        for i in range(100):
            world.daemons["s0"].mcast("g", i)
            if i % 10 == 9:
                world.run(0.25)
        world.run(1.0)
        sequencer = world.daemons["s0"]
        assert sequencer.holdback.pruned_below > 0, "prune must have run"
        assert world.apps["s2"].payloads("g") == []
        # Outage ends.  s2 only notices its gap when fresh sequenced
        # traffic arrives, so send a trigger message; it lands in the
        # abandoned epoch (s2 resyncs past it), and the repair follows:
        # unfillable NACK -> ResyncRequired -> singleton -> re-merge.
        del lagger._on_sequenced
        del lagger._on_sequenced_batch
        world.daemons["s1"].mcast("g", "trigger")
        world.run(4.0)
        world.assert_single_view(expected_members=set(world.daemon_ids))
        # the repaired peer is live again in the total order
        world.daemons["s1"].mcast("g", "after-repair")
        world.run(2.0)
        assert "after-repair" in world.apps["s2"].payloads("g")
        # the gap messages are lost to s2 (it rejoined), but everyone who
        # moved through views *together* agrees — the spec must hold
        world.check_spec()
