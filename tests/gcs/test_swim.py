"""SWIM gossip membership (``membership_mode="gossip"``): formation,
crash detection, partition heal, the amnesia plant, and the detector's
dispatch/refutation machinery."""

import pytest

from tests.gcs.conftest import FakeHost, GcsWorld

from repro.chaos.config import AmnesiacDetector
from repro.gcs.messages import (
    Heartbeat,
    PtpData,
    SwimAck,
    SwimDigest,
    SwimPing,
    SwimUpdate,
)
from repro.gcs.settings import GcsSettings
from repro.gcs.swim import (
    SWIM_ALIVE,
    SWIM_DEAD,
    SWIM_FANOUT,
    SWIM_SUSPECT,
    SwimDetector,
)


def gossip_settings(**overrides) -> GcsSettings:
    return GcsSettings(membership_mode="gossip", **overrides)


# ---------------------------------------------------------------------------
# cluster-level behaviour (same scenarios the mesh suite pins)
# ---------------------------------------------------------------------------


def test_gossip_bootstrap_forms_single_view():
    world = GcsWorld(8, settings=gossip_settings())
    world.settle()
    world.assert_single_view(expected_members=world.daemon_ids)
    world.check_spec()


def test_gossip_detects_crash_and_evicts():
    world = GcsWorld(5, settings=gossip_settings())
    world.settle()
    world.daemons["s4"].crash()
    world.settle()
    world.assert_single_view(expected_members=["s0", "s1", "s2", "s3"])
    detector = world.daemons["s0"].fd
    assert detector.evictions >= 1
    world.check_spec()


def test_gossip_recovered_daemon_remerges():
    world = GcsWorld(5, settings=gossip_settings())
    world.settle()
    world.daemons["s2"].crash()
    world.settle()
    world.daemons["s2"].recover()
    world.settle()
    world.assert_single_view(expected_members=world.daemon_ids)
    world.check_spec()


def test_gossip_partition_forms_two_views_then_remerges():
    world = GcsWorld(5, settings=gossip_settings())
    world.settle()
    world.network.topology.partition({"s0", "s1"}, {"s2", "s3", "s4"})
    world.settle()
    assert set(world.daemons["s0"].config.members) == {"s0", "s1"}
    assert set(world.daemons["s2"].config.members) == {"s2", "s3", "s4"}
    world.network.topology.heal_partition()
    world.run(6.0)
    world.assert_single_view(expected_members=world.daemon_ids)
    world.check_spec()


def test_gossip_amnesia_plant_prevents_remerge():
    """Under the partition-amnesia chaos plant the healed components must
    keep distrusting each other in gossip mode exactly as in mesh mode —
    swim liveness evidence from evicted members is swallowed by the
    wrapper in front of each daemon's detector."""
    world = GcsWorld(5, settings=gossip_settings())
    for daemon in world.daemons.values():
        daemon.fd = AmnesiacDetector(daemon)
    world.settle()
    world.network.topology.partition({"s0", "s1"}, {"s2", "s3", "s4"})
    world.settle()
    world.network.topology.heal_partition()
    world.run(6.0)
    views = {d.config.view_id for d in world.daemons.values()}
    assert len(views) == 2, "amnesia plant should keep the components split"


def test_gossip_no_false_suspicions_on_clean_network():
    world = GcsWorld(8, settings=gossip_settings())
    world.settle()
    world.run(5.0)
    world.assert_single_view(expected_members=world.daemon_ids)
    for daemon in world.daemons.values():
        assert daemon.fd.evictions == 0
    world.check_spec()


def test_gossip_multicast_delivery_works():
    world = GcsWorld(4, settings=gossip_settings())
    world.settle()
    for node in world.daemon_ids:
        world.daemons[node].join("g")
    world.settle()
    world.daemons["s0"].mcast("g", "hello")
    world.run(1.0)
    for node in world.daemon_ids:
        assert "hello" in world.apps[node].payloads("g")
    world.check_spec()


def test_unknown_membership_mode_rejected():
    with pytest.raises(ValueError, match="membership_mode"):
        GcsWorld(3, settings=GcsSettings(membership_mode="carrier-pigeon"))


# ---------------------------------------------------------------------------
# detector unit level
# ---------------------------------------------------------------------------


class SwimHarness(FakeHost):
    """A SwimDetector on a :class:`FakeHost`."""

    def __init__(self, me="n0", world=("n0", "n1", "n2", "n3"), **overrides):
        super().__init__(
            me, world, GcsSettings(membership_mode="gossip", **overrides)
        )
        self.detector = SwimDetector(self)


def ping_from(sender, updates=(), incarnation=0, seq=0):
    return SwimPing(sender, incarnation, 0, None, seq, None, tuple(updates))


def test_direct_ping_is_acked():
    h = SwimHarness()
    assert h.detector.on_message(ping_from("n1", seq=7), "n1")
    dest, payload, kind = h.sent[-1]
    assert dest == "n1" and kind == "swim.ack"
    assert isinstance(payload, SwimAck) and payload.probe_seq == 7


def test_only_liveness_payloads_are_consumed():
    h = SwimHarness()
    assert not h.detector.on_message(PtpData("hello"), "n1")
    assert h.detector.alive_peers() == frozenset()
    # a mesh heartbeat is direct evidence (mixed-mode clusters degrade
    # gracefully), and the swim vocabulary is the detector's own
    assert h.detector.on_message(Heartbeat("n1", 3, 0), "n1")
    assert h.detector.alive_peers() == {"n1"}
    assert h.detector.incarnation_of("n1") == 3
    assert h.detector.on_message(ping_from("n2"), "n2")


def test_unacked_probe_escalates_to_indirect_then_suspicion():
    h = SwimHarness()
    # introduce three peers so there are helpers to fan out to
    for peer in ("n1", "n2", "n3"):
        h.detector.on_message(ping_from(peer), peer)
    h.sent.clear()
    h.detector.on_probe_tick()
    assert [kind for _d, _p, kind in h.sent] == ["swim.ping"]
    target = h.sent[0][0]
    h.sent.clear()
    # no ack before the probe timeout -> ping-req fan-out to helpers
    h.advance(h.detector.settings.probe_timeout + 0.001)
    req_kinds = [kind for _d, _p, kind in h.sent]
    assert req_kinds.count("swim.ping_req") == min(SWIM_FANOUT, 2)
    assert all(p.target == target for _d, p, k in h.sent if k == "swim.ping_req")
    # still no ack by round end -> the target becomes suspected, not dead
    h.advance(h.detector.settings.probe_interval)
    assert h.detector.suspicions_started == 1
    assert target in h.detector.alive_peers()  # suspicion is not eviction
    # unrefuted suspicion expires into eviction
    h.clock += 10.0
    h.detector.check()
    assert target not in h.detector.alive_peers()
    assert h.detector.evictions == 1


def test_ack_in_time_prevents_suspicion():
    h = SwimHarness()
    for peer in ("n1", "n2", "n3"):
        h.detector.on_message(ping_from(peer), peer)
    h.sent.clear()
    h.detector.on_probe_tick()
    target, ping, _ = h.sent[0]
    h.detector.on_message(
        SwimAck(target, 0, 0, None, ping.probe_seq, None, ()), target
    )
    h.advance(1.0)
    h.clock += 10.0
    h.detector.check()
    assert h.detector.suspicions_started == 0
    assert target in h.detector.alive_peers()


def test_indirect_ack_relayed_through_helper():
    """Helper receives a ping-req, pings the target with origin set; the
    target acks the helper; the helper relays the ack to the prober."""
    h = SwimHarness(me="n1")  # n1 is the helper
    from repro.gcs.messages import SwimPingReq

    h.detector.on_message(SwimPingReq("n0", 0, 0, None, "n2", 42, ()), "n0")
    relayed_pings = [p for _d, p, k in h.sent if k == "swim.ping"]
    assert relayed_pings and relayed_pings[-1].origin == "n0"
    h.sent.clear()
    # target's ack (origin echoed) arrives at the helper -> forwarded
    ack = SwimAck("n2", 0, 0, None, 42, "n0", ())
    h.detector.on_message(ack, "n2")
    assert ("n0", ack, "swim.ack") in h.sent


def test_gossiped_suspicion_about_self_is_refuted_once():
    h = SwimHarness()
    suspicion = SwimUpdate("n0", SWIM_SUSPECT, 0, 0)
    h.detector.on_message(ping_from("n1", updates=[suspicion]), "n1")
    assert h.detector.refutations_sent == 1
    # the refutation rides the next outgoing message as alive(epoch=1)
    h.sent.clear()
    h.detector.on_message(ping_from("n1", seq=1), "n1")
    ack = h.sent[-1][1]
    mine = [u for u in ack.updates if u.subject == "n0"]
    assert mine == [SwimUpdate("n0", SWIM_ALIVE, 0, 1)]
    # the SAME superseded suspicion again must not bump the epoch twice
    h.detector.on_message(ping_from("n1", updates=[suspicion], seq=2), "n1")
    assert h.detector.refutations_sent == 1


def test_gossiped_death_of_self_is_refuted():
    h = SwimHarness()
    death = SwimUpdate("n0", SWIM_DEAD, 0, 0)
    h.detector.on_message(ping_from("n1", updates=[death]), "n1")
    assert h.detector.refutations_sent == 1


def test_stale_lower_incarnation_does_not_resurrect():
    """A dead verdict at incarnation 2 must survive gossip and direct
    evidence from incarnation 1 (stale pre-restart traffic)."""
    h = SwimHarness()
    h.detector.on_message(ping_from("n1", incarnation=2), "n1")
    h.detector.on_message(
        ping_from("n2", updates=[SwimUpdate("n1", SWIM_DEAD, 2, 0)]), "n2"
    )
    assert "n1" not in h.detector.alive_peers()
    h.detector.on_message(
        ping_from("n2", updates=[SwimUpdate("n1", SWIM_ALIVE, 1, 9)]), "n2"
    )
    assert "n1" not in h.detector.alive_peers()
    assert h.detector.incarnation_of("n1") == 2
    # ...but the peer speaking for itself at incarnation 2 revives it
    h.detector.on_message(ping_from("n1", incarnation=2, seq=5), "n1")
    assert "n1" in h.detector.alive_peers()


def test_restart_bumps_incarnation_and_fires_change():
    h = SwimHarness()
    h.detector.on_message(ping_from("n1", incarnation=0), "n1")
    before = h.changes
    h.detector.on_message(ping_from("n1", incarnation=1), "n1")
    assert h.detector.incarnation_of("n1") == 1
    assert h.changes == before + 1


def test_digest_merges_and_replies_when_requested():
    h = SwimHarness()
    digest = SwimDigest(
        "n1",
        0,
        0,
        None,
        (SwimUpdate("n2", SWIM_ALIVE, 0, 0),),
        reply_requested=True,
    )
    h.detector.on_message(digest, "n1")
    assert {"n1", "n2"} <= set(h.detector.alive_peers())
    replies = [p for d, p, k in h.sent if k == "swim.digest" and d == "n1"]
    assert len(replies) == 1 and not replies[0].reply_requested


def test_updates_outside_world_ignored():
    h = SwimHarness()
    h.detector.on_message(
        ping_from("n1", updates=[SwimUpdate("intruder", SWIM_ALIVE, 0, 0)]),
        "n1",
    )
    assert "intruder" not in h.detector.alive_peers()


def test_forget_is_local_only_and_revivable():
    """forget() (a protocol-reply timeout hint) must not be exported in
    digests as a dead verdict — that would let one slow sync reply
    propagate a bogus eviction cluster-wide — and alive gossip at the
    peer's current point must revive it."""
    h = SwimHarness()
    h.detector.on_message(ping_from("n1"), "n1")
    h.detector.forget("n1")
    assert "n1" not in h.detector.alive_peers()
    assert h.detector.evictions == 0
    # the forgotten peer never appears in our digest
    h.sent.clear()
    h.detector.on_message(
        SwimDigest("n2", 0, 0, None, (), reply_requested=True), "n2"
    )
    reply = [p for _d, p, k in h.sent if k == "swim.digest"][-1]
    assert all(u.subject != "n1" for u in reply.entries)
    # third-party alive gossip at the SAME point revives the hint (a real
    # dead verdict would need strictly newer evidence)
    h.detector.on_message(
        ping_from("n2", updates=[SwimUpdate("n1", SWIM_ALIVE, 0, 0)], seq=3),
        "n2",
    )
    assert "n1" in h.detector.alive_peers()


def test_gossip_budget_retires_updates():
    h = SwimHarness()
    h.detector.on_message(
        ping_from("n1", updates=[SwimUpdate("n2", SWIM_SUSPECT, 0, 0)]), "n1"
    )
    carried = 0
    for seq in range(2, 40):
        h.sent.clear()
        h.detector.on_message(ping_from("n1", seq=seq), "n1")
        ack = h.sent[-1][1]
        if any(u.subject == "n2" for u in ack.updates):
            carried += 1
    budget = h.detector._gossip_budget()
    assert 0 < carried <= budget
