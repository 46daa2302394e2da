"""Unit tests for GCS building blocks: views, ordering, groups, FD, clocks."""

import dataclasses

import pytest

from repro.gcs.causal import VectorClock
from repro.gcs.failure_detector import FailureDetector
from repro.gcs.groups import GroupMap
from repro.gcs.messages import Heartbeat, OrderRequest, RequestId, Sequenced
from repro.gcs.ordering import (
    DuplicateFilter,
    HoldbackBuffer,
    PendingRequests,
    flush_union,
)
from repro.gcs.settings import DURATION_FIELDS, GcsSettings
from repro.gcs.view import Configuration, GroupView, ViewId
from tests.gcs.conftest import FakeHost


def req(origin, counter, group="g", payload=None, incarnation=0):
    return OrderRequest(
        request_id=RequestId(origin, incarnation, counter),
        group=group,
        payload=payload if payload is not None else counter,
    )


def seqd(view_id, seq, request):
    return Sequenced(config_view_id=view_id, seq=seq, request=request)


VID = ViewId(3, "s0")


class TestViewId:
    def test_ordering_by_counter_then_coordinator(self):
        assert ViewId(1, "b") < ViewId(2, "a")
        assert ViewId(2, "a") < ViewId(2, "b")
        assert not ViewId(2, "b") < ViewId(2, "b")

    def test_equality_and_hash(self):
        assert ViewId(1, "a") == ViewId(1, "a")
        assert hash(ViewId(1, "a")) == hash(ViewId(1, "a"))


class TestConfiguration:
    def test_members_sorted(self):
        config = Configuration.make(VID, ["s2", "s0", "s1"])
        assert config.members == ("s0", "s1", "s2")

    def test_sequencer_is_min_member(self):
        config = Configuration.make(VID, ["s2", "s1"])
        assert config.sequencer == "s1"

    def test_contains_and_len(self):
        config = Configuration.make(VID, ["s0", "s1"])
        assert "s0" in config and "s9" not in config
        assert len(config) == 2


class TestGroupView:
    def test_view_key_orders_by_config_then_change(self):
        v1 = GroupView.make("g", ViewId(1, "a"), 5, ["s0"])
        v2 = GroupView.make("g", ViewId(2, "a"), 0, ["s0"])
        assert v1.view_key < v2.view_key


class TestHoldbackBuffer:
    def test_in_order_delivery(self):
        buf = HoldbackBuffer()
        buf.insert(seqd(VID, 0, req("a", 0)))
        buf.insert(seqd(VID, 1, req("a", 1)))
        ready = buf.take_ready()
        assert [m.seq for m in ready] == [0, 1]
        assert buf.delivered_count() == 2

    def test_gap_blocks_delivery(self):
        buf = HoldbackBuffer()
        buf.insert(seqd(VID, 1, req("a", 1)))
        assert buf.take_ready() == []
        buf.insert(seqd(VID, 0, req("a", 0)))
        assert [m.seq for m in buf.take_ready()] == [0, 1]

    def test_duplicates_ignored(self):
        buf = HoldbackBuffer()
        m = seqd(VID, 0, req("a", 0))
        buf.insert(m)
        buf.insert(m)
        assert len(buf.take_ready()) == 1

    def test_all_received_includes_held_back(self):
        buf = HoldbackBuffer()
        buf.insert(seqd(VID, 0, req("a", 0)))
        buf.insert(seqd(VID, 5, req("a", 5)))
        buf.take_ready()
        assert set(buf.all_received()) == {0, 5}

    def test_prune_keeps_recent(self):
        buf = HoldbackBuffer()
        for i in range(100):
            buf.insert(seqd(VID, i, req("a", i)))
        buf.take_ready()
        buf.prune(keep=10)
        assert set(buf.all_received()) == set(range(90, 100))

    def test_prune_never_drops_undelivered(self):
        buf = HoldbackBuffer()
        buf.insert(seqd(VID, 1, req("a", 1)))  # held back (gap at 0)
        buf.prune(keep=0)
        assert 1 in buf.all_received()

    @pytest.mark.parametrize("keep", [16, 4096])
    def test_upkeep_touches_only_what_moved(self, keep):
        """The daemon calls prune and missing_seqs on every tick: their cost
        is the progress since the last call, whatever is retained."""

        class CountingDict(dict):
            scans = lookups = removals = 0

            def __iter__(self):
                CountingDict.scans += 1
                return super().__iter__()

            def __contains__(self, key):
                CountingDict.lookups += 1
                return super().__contains__(key)

            def pop(self, *args):
                CountingDict.removals += 1
                return super().pop(*args)

            def __delitem__(self, key):
                CountingDict.removals += 1
                super().__delitem__(key)

        buf = HoldbackBuffer()
        for i in range(keep + 100):
            buf.insert(seqd(VID, i, req("a", i)))
        buf.take_ready()
        buf.prune(keep=keep)
        assert len(buf.all_received()) == keep
        buf._all = CountingDict(buf._all)
        # an idle tick: nothing new, no gap
        buf.prune(keep=keep)
        assert buf.missing_seqs() == []
        assert (CountingDict.scans, CountingDict.lookups, CountingDict.removals) == (
            0, 0, 0,
        )
        # five more delivered, then a gap of two below a held-back message
        top = keep + 100
        for i in range(top, top + 5):
            buf.insert(seqd(VID, i, req("a", i)))
        buf.take_ready()
        buf.insert(seqd(VID, top + 7, req("a", top + 7)))
        CountingDict.lookups = 0  # (insert and take_ready look up, rightly)
        buf.prune(keep=keep)
        assert buf.missing_seqs() == [top + 5, top + 6]
        assert CountingDict.scans == 0
        assert CountingDict.removals == 5  # the floor moved by five
        assert CountingDict.lookups == 2  # the two seqs below the highest
        assert set(buf.all_received()) == set(range(top + 5 - keep, top + 5)) | {
            top + 7
        }

    def test_late_duplicate_below_the_prune_floor_is_not_retained(self):
        buf = HoldbackBuffer()
        for i in range(50):
            buf.insert(seqd(VID, i, req("a", i)))
        buf.take_ready()
        buf.prune(keep=10)
        buf.insert(seqd(VID, 3, req("a", 3)))  # e.g. a reordered retransmission
        assert buf.get(3) is None
        assert set(buf.all_received()) == set(range(40, 50))


class TestSettingsScaling:
    def test_every_float_setting_is_a_duration_or_declared_not_one(self):
        """scaled() multiplies DURATION_FIELDS; a new timeout that is not
        listed there would silently keep its LAN value in every WAN
        experiment."""
        not_durations: set[str] = set()
        floats = {
            f.name for f in dataclasses.fields(GcsSettings) if f.type == "float"
        }
        assert floats == set(DURATION_FIELDS) | not_durations
        assert not set(DURATION_FIELDS) & not_durations

    def test_scaled_multiplies_durations_and_keeps_the_rest(self):
        base = dataclasses.replace(
            GcsSettings.live_lan(), membership_mode="gossip", holdback_keep=7
        )
        scaled = base.scaled(2.5)
        for f in dataclasses.fields(GcsSettings):
            value = getattr(base, f.name)
            expected = value * 2.5 if f.name in DURATION_FIELDS else value
            assert getattr(scaled, f.name) == expected, f.name


class TestDuplicateFilter:
    def test_basic_dedup(self):
        f = DuplicateFilter()
        rid = RequestId("a", 0, 3)
        assert not f.is_duplicate(rid)
        f.mark_delivered(rid)
        assert f.is_duplicate(rid)
        assert not f.is_duplicate(RequestId("a", 0, 4))

    def test_gap_fill_not_a_duplicate(self):
        """A late retransmission (out-of-order delivery) must be accepted:
        marking 3 does NOT brand the undelivered 2 a duplicate."""
        f = DuplicateFilter()
        f.mark_delivered(RequestId("a", 0, 3))
        assert not f.is_duplicate(RequestId("a", 0, 2))
        f.mark_delivered(RequestId("a", 0, 2))
        assert f.is_duplicate(RequestId("a", 0, 2))

    def test_contiguous_floor_collapses(self):
        f = DuplicateFilter()
        for counter in (0, 2, 1):
            f.mark_delivered(RequestId("a", 0, counter))
        assert f._floor[("a", 0)] == 2
        assert ("a", 0) not in f._above

    def test_incarnations_are_independent(self):
        f = DuplicateFilter()
        f.mark_delivered(RequestId("a", 0, 9))
        assert not f.is_duplicate(RequestId("a", 1, 0))

    def test_merge_unions_knowledge(self):
        f = DuplicateFilter()
        f.mark_delivered(RequestId("a", 0, 0))
        f.merge({("a", 0): (1, (3,)), ("b", 0): (0, ())})
        assert f.is_duplicate(RequestId("a", 0, 1))
        assert f.is_duplicate(RequestId("a", 0, 3))
        assert not f.is_duplicate(RequestId("a", 0, 2))  # the gap stays open
        assert f.is_duplicate(RequestId("b", 0, 0))
        assert not f.is_duplicate(RequestId("b", 0, 1))

    def test_merge_snapshots(self):
        merged = DuplicateFilter.merge_snapshots(
            [{("a", 0): (0, (2,))}, {("a", 0): (1, ()), ("b", 0): (0, ())}]
        )
        assert merged == {("a", 0): (2, ()), ("b", 0): (0, ())}

    def test_sparse_cap_abandons_oldest_gap(self):
        f = DuplicateFilter()
        for counter in range(1, DuplicateFilter.MAX_SPARSE + 3):
            f.mark_delivered(RequestId("a", 0, counter))  # 0 never arrives
        # the permanent gap at 0 was eventually abandoned
        assert f._floor[("a", 0)] > 0


class TestPendingRequests:
    def test_outstanding_in_counter_order(self):
        p = PendingRequests()
        p.add(req("a", 2))
        p.add(req("a", 0))
        p.add(req("a", 1))
        assert [r.request_id.counter for r in p.outstanding()] == [0, 1, 2]

    def test_resolve_removes(self):
        p = PendingRequests()
        r = req("a", 0)
        p.add(r)
        p.resolve(r.request_id)
        assert len(p) == 0
        p.resolve(r.request_id)  # idempotent


class TestFlushUnion:
    def test_union_of_partial_views(self):
        m0, m1, m2 = (seqd(VID, i, req("a", i)) for i in range(3))
        tail = flush_union([{0: m0, 1: m1}, {1: m1, 2: m2}])
        assert [m.seq for m in tail] == [0, 1, 2]

    def test_union_never_invents_sequence_numbers(self):
        """Orphans must not be given old-configuration seqs (the dead
        sequencer may have bound those numbers to other requests)."""
        m0 = seqd(VID, 0, req("a", 0))
        tail = flush_union([{0: m0}])
        assert [m.seq for m in tail] == [0]

    def test_empty(self):
        assert flush_union([{}]) == []


class TestCollectOrphans:
    def setup_method(self):
        from repro.gcs.ordering import collect_orphans

        self.collect = collect_orphans

    def test_orphans_exclude_sequenced(self):
        r = req("a", 0)
        tail = [seqd(VID, 0, r)]
        orphans = self.collect([tail], [(r, req("b", 7))])
        assert [o.request_id.counter for o in orphans] == [7]

    def test_orphans_deterministic_order(self):
        ra, rb = req("b", 1), req("a", 5)
        one = self.collect([], [(ra, rb)])
        two = self.collect([], [(rb,), (ra,)])
        assert [o.request_id for o in one] == [o.request_id for o in two]

    def test_orphans_deduplicated(self):
        r = req("a", 3)
        orphans = self.collect([], [(r,), (r,)])
        assert len(orphans) == 1

    def test_empty(self):
        assert self.collect([], [()]) == []


class TestGroupMap:
    def test_join_leave_idempotent(self):
        gm = GroupMap()
        assert gm.join("g", "s0")
        assert not gm.join("g", "s0")
        assert gm.leave("g", "s0")
        assert not gm.leave("g", "s0")

    def test_groups_of(self):
        gm = GroupMap()
        gm.join("g1", "s0")
        gm.join("g2", "s0")
        gm.join("g2", "s1")
        assert gm.groups_of("s0") == ("g1", "g2")
        assert gm.groups_of("s1") == ("g2",)

    def test_drop_node(self):
        gm = GroupMap()
        gm.join("g1", "s0")
        gm.join("g2", "s0")
        affected = gm.drop_node("s0")
        assert sorted(affected) == ["g1", "g2"]
        assert gm.members("g1") == frozenset()

    def test_view_filters_to_configuration(self):
        gm = GroupMap()
        gm.join("g", "s0")
        gm.join("g", "s9")  # not in config
        config = Configuration.make(VID, ["s0", "s1"])
        view = gm.view("g", config, 4)
        assert view.members == ("s0",)
        assert view.change_seq == 4

    def test_from_reports_each_node_authoritative(self):
        gm = GroupMap.from_reports({"s0": ("g1", "g2"), "s1": ("g1",)})
        assert gm.members("g1") == {"s0", "s1"}
        assert gm.members("g2") == {"s0"}

    def test_snapshot_roundtrip(self):
        gm = GroupMap()
        gm.join("g", "s1")
        gm.join("g", "s0")
        restored = GroupMap.from_snapshot(gm.snapshot())
        assert restored.members("g") == {"s0", "s1"}


class TestFailureDetector:
    def make_fd(self):
        self.host = FakeHost(settings=GcsSettings(suspect_timeout=1.0))
        return FailureDetector(self.host)

    def test_alive_after_heartbeat(self):
        fd = self.make_fd()
        fd.on_heartbeat(Heartbeat("p1", 0, 0))
        assert fd.alive_peers() == {"p1"}
        assert fd.alive_set() == {"me", "p1"}
        assert self.host.changes == 1

    def test_own_heartbeat_ignored(self):
        fd = self.make_fd()
        fd.on_heartbeat(Heartbeat("me", 0, 0))
        assert fd.alive_peers() == frozenset()

    def test_expiry_after_timeout(self):
        fd = self.make_fd()
        fd.on_heartbeat(Heartbeat("p1", 0, 0))
        self.host.clock = 0.9
        fd.check()
        assert fd.alive_peers() == {"p1"}
        self.host.clock = 1.1
        fd.check()
        assert fd.alive_peers() == frozenset()
        assert self.host.changes == 2

    def test_incarnation_change_fires_change(self):
        fd = self.make_fd()
        fd.on_heartbeat(Heartbeat("p1", 0, 0))
        fd.on_heartbeat(Heartbeat("p1", 1, 0))
        assert self.host.changes == 2
        assert fd.incarnation_of("p1") == 1

    def test_steady_heartbeats_do_not_fire_changes(self):
        fd = self.make_fd()
        fd.on_heartbeat(Heartbeat("p1", 0, 0))
        for _ in range(5):
            fd.on_heartbeat(Heartbeat("p1", 0, 0))
        assert self.host.changes == 1

    def test_forget(self):
        fd = self.make_fd()
        fd.on_heartbeat(Heartbeat("p1", 0, 0))
        fd.forget("p1")
        assert fd.alive_peers() == frozenset()
        assert self.host.changes == 2

    def test_tracks_max_view_counter(self):
        fd = self.make_fd()
        fd.on_heartbeat(Heartbeat("p1", 0, 17))
        assert fd.max_view_counter_seen == 17


class TestVectorClock:
    def test_increment_and_get(self):
        vc = VectorClock().increment("a").increment("a").increment("b")
        assert vc.get("a") == 2 and vc.get("b") == 1 and vc.get("c") == 0

    def test_merge_is_componentwise_max(self):
        a = VectorClock({"a": 2, "b": 0})
        b = VectorClock({"a": 1, "b": 3})
        merged = a.merge(b)
        assert merged.get("a") == 2 and merged.get("b") == 3

    def test_partial_order(self):
        a = VectorClock({"a": 1})
        b = VectorClock({"a": 2, "b": 1})
        assert a < b
        assert not b <= a

    def test_concurrency(self):
        a = VectorClock({"a": 1})
        b = VectorClock({"b": 1})
        assert a.concurrent_with(b)
        assert not a.concurrent_with(a)

    def test_equality_ignores_zero_entries(self):
        assert VectorClock({"a": 0}) == VectorClock()
