"""Unit tests for fault schedules, generators, and the injector."""

import asyncio

import numpy as np
import pytest

from repro.faults.generators import (
    crash_burst_schedule,
    flapping_partition_schedule,
    poisson_crash_schedule,
)
from repro.faults.injector import apply, inject
from repro.faults.schedule import KINDS, FaultEvent, FaultSchedule
from repro.net.faults import FaultPlane, FaultyTransport
from repro.net.replay import ReplayTransport
from repro.sim.engine import Simulator
from repro.sim.latency import FixedLatency
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog
from tests.core.conftest import make_vod_cluster


class TestSchedule:
    def test_builder_methods(self):
        schedule = (
            FaultSchedule()
            .crash(1.0, "s0")
            .recover(2.0, "s0")
            .partition(3.0, {"s0"}, {"s1"})
            .heal(4.0)
            .cut_link(5.0, "a", "b")
            .restore_link(6.0, "a", "b")
        )
        assert len(schedule) == 6
        kinds = [e.kind for e in schedule.sorted_events()]
        assert kinds == [
            "crash", "recover", "partition", "heal", "cut_link", "restore_link",
        ]

    def test_sorted_events(self):
        schedule = FaultSchedule().crash(5.0, "b").crash(1.0, "a")
        assert [e.time for e in schedule.sorted_events()] == [1.0, 5.0]

    def test_crashes_filter(self):
        schedule = FaultSchedule().crash(1.0, "a").recover(2.0, "a")
        assert len(schedule.crashes()) == 1

    def test_shifted(self):
        schedule = FaultSchedule().crash(1.0, "a").shifted(10.0)
        assert schedule.sorted_events()[0].time == 11.0

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(time=0.0, kind="meteor")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(time=-1.0, kind="crash")


class TestGenerators:
    def test_poisson_schedule_alternates_and_respects_spare(self):
        rng = np.random.default_rng(1)
        schedule = poisson_crash_schedule(
            rng, ["s0", "s1", "s2"], duration=100.0,
            failure_rate=0.1, mean_downtime=2.0, spare="s2",
        )
        per_server: dict[str, list[str]] = {}
        for event in schedule.sorted_events():
            per_server.setdefault(event.target, []).append(event.kind)
        assert "s2" not in per_server
        for kinds in per_server.values():
            # strict alternation starting with a crash
            assert kinds[0] == "crash"
            for a, b in zip(kinds, kinds[1:]):
                assert a != b

    def test_poisson_zero_rate_empty(self):
        rng = np.random.default_rng(1)
        schedule = poisson_crash_schedule(
            rng, ["s0"], duration=10.0, failure_rate=0.0
        )
        assert len(schedule) == 0

    def test_poisson_deterministic_per_seed(self):
        a = poisson_crash_schedule(
            np.random.default_rng(7), ["s0", "s1"], 50.0, 0.1
        )
        b = poisson_crash_schedule(
            np.random.default_rng(7), ["s0", "s1"], 50.0, 0.1
        )
        assert [
            (e.time, e.kind, e.target) for e in a.sorted_events()
        ] == [(e.time, e.kind, e.target) for e in b.sorted_events()]

    def test_burst_size_and_window(self):
        rng = np.random.default_rng(2)
        schedule = crash_burst_schedule(
            rng, ["s0", "s1", "s2", "s3"], at=5.0, burst_size=3,
            stagger=0.1, recover_after=2.0,
        )
        crashes = schedule.crashes()
        assert len(crashes) == 3
        assert all(5.0 <= e.time <= 5.2 for e in crashes)
        assert len([e for e in schedule.events if e.kind == "recover"]) == 3

    def test_burst_capped_at_population(self):
        rng = np.random.default_rng(2)
        schedule = crash_burst_schedule(rng, ["s0"], at=1.0, burst_size=5)
        assert len(schedule.crashes()) == 1

    def test_flapping_partitions_alternate(self):
        rng = np.random.default_rng(3)
        schedule = flapping_partition_schedule(
            rng, ["s0"], ["s1"], duration=100.0,
            mean_stable=2.0, mean_partitioned=1.0,
        )
        kinds = [e.kind for e in schedule.sorted_events()]
        assert kinds and kinds[0] == "partition"
        for a, b in zip(kinds, kinds[1:]):
            assert a != b


class TestInjector:
    def test_crash_and_recover_applied(self):
        cluster = make_vod_cluster()
        schedule = FaultSchedule().crash(1.0, "s1").recover(3.0, "s1")
        inject(cluster, schedule)
        cluster.run(2.0)
        assert not cluster.servers["s1"].is_up()
        cluster.run(2.0)
        assert cluster.servers["s1"].is_up()

    def test_partition_and_heal_applied(self):
        cluster = make_vod_cluster()
        schedule = FaultSchedule().partition(1.0, {"s0"}, {"s1", "s2"}).heal(3.0)
        inject(cluster, schedule)
        cluster.run(2.0)
        assert not cluster.network.topology.connected("s0", "s1")
        cluster.run(2.0)
        assert cluster.network.topology.connected("s0", "s1")

    def test_cut_and_restore_link(self):
        cluster = make_vod_cluster()
        schedule = (
            FaultSchedule().cut_link(1.0, "s0", "s1").restore_link(2.0, "s0", "s1")
        )
        inject(cluster, schedule)
        cluster.run(1.5)
        assert not cluster.network.topology.connected("s0", "s1")
        cluster.run(1.0)
        assert cluster.network.topology.connected("s0", "s1")

    def test_offset_defaults_to_now(self):
        cluster = make_vod_cluster()
        cluster.run(5.0)
        schedule = FaultSchedule().crash(1.0, "s0")
        inject(cluster, schedule)
        cluster.run(0.5)
        assert cluster.servers["s0"].is_up()
        cluster.run(1.0)
        assert not cluster.servers["s0"].is_up()

    def test_redundant_events_harmless(self):
        cluster = make_vod_cluster()
        schedule = FaultSchedule().crash(1.0, "s0").crash(1.5, "s0")
        inject(cluster, schedule)
        cluster.run(2.0)
        assert not cluster.servers["s0"].is_up()

    def test_unknown_server_ignored(self):
        cluster = make_vod_cluster()
        inject(cluster, FaultSchedule().crash(1.0, "ghost"))
        cluster.run(2.0)  # should not raise


class TestExtendedVocabulary:
    def test_gray_and_adversity_builders(self):
        schedule = (
            FaultSchedule()
            .slowdown(1.0, "s0", 0.2)
            .restore_speed(2.0, "s0")
            .delay_link(3.0, "s0", "s1", 0.1)
            .restore_delay(4.0, "s0", "s1")
            .duplicate(5.0, 0.05)
            .reorder(6.0, 0.05, window=0.1)
            .crash_at(7.0, "s0", "pre-handoff")
        )
        assert [e.kind for e in schedule.sorted_events()] == [
            "slowdown", "restore_speed", "delay_link", "restore_delay",
            "duplicate", "reorder", "crash_at",
        ]
        assert schedule.kinds() == {
            "slowdown", "restore_speed", "delay_link", "restore_delay",
            "duplicate", "reorder", "crash_at",
        }

    def test_merged_is_sorted_union(self):
        a = FaultSchedule().crash(5.0, "s0").recover(9.0, "s0")
        b = FaultSchedule().slowdown(1.0, "s1", 0.3).partition(7.0, ["s0"], ["s1"])
        merged = a.merged(b)
        assert len(merged) == 4
        assert [e.time for e in merged.events] == [1.0, 5.0, 7.0, 9.0]
        # merging never mutates the operands
        assert len(a) == 2 and len(b) == 2


class TestSchedulePersistence:
    def test_json_round_trip(self):
        schedule = (
            FaultSchedule()
            .crash(1.5, "s0")
            .partition(2.0, ["s0"], ["s1", "s2"])
            .reorder(3.0, 0.02, window=0.08)
            .crash_at(4.0, "s1", "post-update")
        )
        rebuilt = FaultSchedule.from_json(schedule.to_json())
        assert [e.key() for e in rebuilt.sorted_events()] == [
            e.key() for e in schedule.sorted_events()
        ]

    def test_round_trip_through_json_text(self):
        import json

        schedule = FaultSchedule().crash(1.0, "s0").duplicate(2.0, 0.05)
        text = json.dumps(schedule.to_json())
        rebuilt = FaultSchedule.from_json(json.loads(text))
        assert [e.key() for e in rebuilt.sorted_events()] == [
            e.key() for e in schedule.sorted_events()
        ]

    def test_from_json_rejects_non_list(self):
        with pytest.raises(ValueError, match="must be a list"):
            FaultSchedule.from_json({"time": 1.0})

    def test_from_json_rejects_nan_and_negative_times(self):
        with pytest.raises(ValueError, match="entry 0"):
            FaultSchedule.from_json([{"time": float("nan"), "kind": "crash"}])
        with pytest.raises(ValueError, match="entry 0"):
            FaultSchedule.from_json([{"time": -2.0, "kind": "crash"}])

    def test_from_json_rejects_unknown_kind_with_index(self):
        good = {"time": 1.0, "kind": "crash", "target": "s0"}
        with pytest.raises(ValueError, match="entry 1"):
            FaultSchedule.from_json([good, {"time": 2.0, "kind": "meteor"}])

    def test_from_json_rejects_malformed_entries(self):
        with pytest.raises(ValueError, match="not an object"):
            FaultSchedule.from_json(["crash"])
        with pytest.raises(ValueError, match="malformed"):
            FaultSchedule.from_json([{"kind": "crash"}])  # no time
        with pytest.raises(ValueError, match="args"):
            FaultSchedule.from_json(
                [{"time": 1.0, "kind": "crash", "args": "not-a-dict"}]
            )

    @pytest.mark.parametrize(
        "kind, target, args, error",
        [
            ("crash_at", "s0", {"hook": "bogus"}, "hook must be one of"),
            ("slowdown", "s0", {"delay": -5}, "delay must be in"),
            ("slowdown", "s0", {"delay": float("nan")}, "delay must be in"),
            ("delay_link", None, {"a": "s0", "b": "s1", "extra": float("inf")}, "extra must be in"),
            ("reorder", None, {"probability": 0.1, "window": -0.01}, "window must be in"),
            ("duplicate", None, {"probability": 1.0}, r"probability must be in \[0, 1\)"),
            ("reorder", None, {"probability": -0.1}, r"probability must be in \[0, 1\)"),
            ("crash", ["s0"], {}, "crash needs a target"),
            ("recover", None, {}, "recover needs a target"),
        ],
        ids=[
            "unknown-hook", "negative-delay", "nan-delay", "infinite-extra",
            "negative-window", "probability-one", "negative-probability",
            "list-target", "missing-target",
        ],
    )
    def test_from_json_refuses_what_the_applier_would(self, kind, target, args, error):
        # each of these used to load, then raise mid-run in the injector
        # or the link model, or replay as no fault at all
        entry = {"time": 1.0, "kind": kind, "target": target, "args": args}
        with pytest.raises(ValueError, match=error):
            FaultSchedule.from_json([entry])


class TestInjectorExtended:
    def test_slowdown_and_restore_applied(self):
        cluster = make_vod_cluster()
        schedule = FaultSchedule().slowdown(1.0, "s1", 0.25).restore_speed(3.0, "s1")
        inject(cluster, schedule)
        cluster.run(2.0)
        assert cluster.servers["s1"].daemon.dispatch_delay == 0.25
        cluster.run(2.0)
        assert cluster.servers["s1"].daemon.dispatch_delay == 0.0

    def test_message_adversity_applied_and_cleared(self):
        cluster = make_vod_cluster()
        schedule = (
            FaultSchedule()
            .duplicate(1.0, 0.04)
            .reorder(1.0, 0.03, window=0.1)
            .duplicate(3.0, 0.0)
            .reorder(3.0, 0.0)
        )
        inject(cluster, schedule)
        cluster.run(2.0)
        assert cluster.faults.duplicate_probability == 0.04
        assert cluster.faults.reorder_probability == 0.03
        cluster.run(2.0)
        assert cluster.faults.duplicate_probability == 0.0
        assert cluster.faults.reorder_probability == 0.0

    def test_link_delay_spike_applied(self):
        cluster = make_vod_cluster()
        schedule = (
            FaultSchedule()
            .delay_link(1.0, "s0", "s1", 0.2)
            .restore_delay(3.0, "s0", "s1")
        )
        inject(cluster, schedule)
        cluster.run(2.0)
        assert cluster.faults.link("s0", "s1").extra_delay == 0.2
        assert cluster.faults.link("s1", "s0").extra_delay == 0.2
        cluster.run(2.0)
        assert cluster.faults.link("s0", "s1").extra_delay == 0.0

    def test_crash_at_arms_hook_on_target(self):
        cluster = make_vod_cluster()
        inject(cluster, FaultSchedule().crash_at(1.0, "s1", "pre-handoff"))
        cluster.run(2.0)
        assert cluster.servers["s1"]._crash_hooks.get("pre-handoff", 0) == 1
        cluster.servers["s1"].disarm_crash_hooks()
        assert not cluster.servers["s1"]._crash_hooks

    def test_every_applied_event_is_traced(self):
        cluster = make_vod_cluster()
        schedule = (
            FaultSchedule()
            .crash(1.0, "s1")
            .recover(2.0, "s1")
            .slowdown(3.0, "s2", 0.1)
            .duplicate(4.0, 0.02)
        )
        inject(cluster, schedule)
        cluster.run(5.0)
        trace = cluster.network.trace
        for kind in ("crash", "recover", "slowdown", "duplicate"):
            assert trace.count(f"fault.{kind}") == 1

    def test_recovery_accounting_symmetric_with_crash(self):
        from repro.core.manager import AvailabilityManager

        cluster = make_vod_cluster()
        manager = AvailabilityManager(cluster=cluster, target_loss=0.01)
        cluster.availability_manager = manager
        schedule = (
            FaultSchedule()
            .crash(1.0, "s1")
            .recover(3.5, "s1")
            .crash(5.0, "s2")
            .recover(6.0, "s2")
        )
        inject(cluster, schedule)
        cluster.run(8.0)
        assert len(manager.crash_times) == 2
        assert len(manager.recovery_times) == 2
        # each recovery pairs with the latest earlier crash: (2.5 + 1.0) / 2
        assert manager.observed_mean_downtime(cluster.sim.now) == pytest.approx(1.75)

    def test_redundant_recover_not_recorded(self):
        from repro.core.manager import AvailabilityManager

        cluster = make_vod_cluster()
        manager = AvailabilityManager(cluster=cluster, target_loss=0.01)
        cluster.availability_manager = manager
        # recovering an already-up server is a no-op, not a bogus sample
        inject(cluster, FaultSchedule().recover(1.0, "s1"))
        cluster.run(2.0)
        assert manager.recovery_times == []


# ----------------------------------------------------------------------
# one applier, one link model, every runtime
# ----------------------------------------------------------------------
_NODES = ("a", "b", "c", "d")
_SPIKE = 0.01  # seconds: the delay spike and the reorder hold


class _Target:
    """The cluster surface ``apply`` needs, with no servers behind it."""

    def __init__(self, faults):
        self.sim = Simulator()
        self.servers = {}
        self.faults = faults
        self.trace = TraceLog(enabled=True)

    def trace_log(self):
        return self.trace

    def records(self):
        return [(e.node, e.category, e.detail) for e in self.trace.events]


class _Recording(ReplayTransport):
    """A null transport that remembers which link each frame left on."""

    def __init__(self, node_id, sent):
        super().__init__(node_id)
        self._sent = sent

    def send(self, peer, frame):
        super().send(peer, frame)
        self._sent.append((self.node_id, peer))


def _sim_surface():
    """A simulated network: a pair passes when its message is delivered."""
    network = Network(
        Simulator(), latency_model=FixedLatency(0.001),
        chaos_rng=RngRegistry(5).stream("chaos-net"),
    )
    got = []
    for node in _NODES:
        network.attach(node, lambda m: got.append((m.sender, m.receiver)), lambda: True)

    async def probe(pairs):
        got.clear()
        for src, dst in pairs:
            network.send(src, dst, "probe")
        network.sim.run()
        return set(got)

    return network.topology, _NODES, probe


def _live_surface(adopted=_NODES):
    """Fault-injecting wrappers under one plane: a pair passes when its
    frame reaches the inner transport (held frames included)."""
    sent = []
    plane = FaultPlane()
    transports = {n: FaultyTransport(_Recording(n, sent)) for n in adopted}
    for node, transport in transports.items():
        plane.adopt(node, transport)

    async def probe(pairs):
        sent.clear()
        for src, dst in pairs:
            transports[src].send(dst, b"probe")
        await asyncio.sleep(4 * _SPIKE)  # every held frame fires
        return set(sent)

    return plane.model, adopted, probe


def _serve_surface():
    """``repro serve --control``: the plane adopted its own node's wrapper
    only, and the partition names nodes of other processes."""
    return _live_surface(adopted=("a",))


def _split(left, right):
    """Every directed pair across a two-sided split."""
    return {(x, y) for x in left for y in right} | {(y, x) for x in left for y in right}


#: the conformance script: after each event, the directed pairs that
#: must be unreachable — on every surface
_SCRIPT = [
    # a partition that leaves d unmentioned: d is alone in the implicit
    # extra component
    (FaultEvent(0.0, "partition", args={"components": [["a"], ["b", "c"]]}),
     _split("a", "bcd") | _split("bc", "d")),
    # nodes a partition does not mention form ONE implicit component
    (FaultEvent(0.5, "partition", args={"components": [["a"]]}), _split("a", "bcd")),
    # an asymmetric cut severs one direction only
    (FaultEvent(1.0, "cut_link", args={"a": "b", "b": "c", "symmetric": False}),
     _split("a", "bcd") | {("b", "c")}),
    # heal lifts the partition layer and leaves the cut in place
    (FaultEvent(2.0, "heal"), {("b", "c")}),
    (FaultEvent(3.0, "partition", args={"components": [["a", "b"], ["c", "d"]]}),
     _split("ab", "cd") | {("b", "c")}),
    # restore_link lifts the cut layer and leaves the partition in place
    (FaultEvent(4.0, "restore_link", args={"a": "b", "b": "c", "symmetric": False}),
     _split("ab", "cd")),
    (FaultEvent(5.0, "cut_link", args={"a": "a", "b": "b"}),
     _split("ab", "cd") | {("a", "b"), ("b", "a")}),
    # the latency and adversity kinds never touch reachability
    (FaultEvent(6.0, "delay_link", args={"a": "a", "b": "c", "extra": _SPIKE}), None),
    (FaultEvent(7.0, "duplicate", args={"probability": 0.5}), None),
    (FaultEvent(8.0, "reorder", args={"probability": 0.5, "window": _SPIKE}), None),
    (FaultEvent(9.0, "restore_delay", args={"a": "a", "b": "c"}), None),
]


class TestOneApplierTwoSurfaces:
    @pytest.mark.parametrize("surface", [_sim_surface, _live_surface, _serve_surface])
    def test_link_faults_conform(self, surface):
        faults, senders, probe = surface()
        target = _Target(faults)
        pairs = [(s, d) for s in senders for d in _NODES if s != d]

        async def blocked():
            return set(pairs) - await probe(pairs)

        async def run():
            expected = set()
            assert await blocked() == expected
            for event, cut in _SCRIPT:
                apply(target, event)
                expected = expected if cut is None else cut
                assert await blocked() == {p for p in expected if p[0] in senders}, event
            # clear_all lifts every layer (the chaos heal sweep)
            faults.clear_all()
            assert await blocked() == set()

        asyncio.run(run())
        assert target.records() == [
            ("net", f"fault.{event.kind}", event.args) for event, _ in _SCRIPT
        ]

    def test_without_a_surface_only_the_records_appear(self):
        # faults=None: a replay, the wire faults live in the frame log
        target = _Target(None)
        for event, _ in _SCRIPT:
            apply(target, event)
        assert target.records() == [
            ("net", f"fault.{event.kind}", event.args) for event, _ in _SCRIPT
        ]

    def test_args_named_like_the_trace_parameters_do_not_crash_the_run(self):
        # passes from_json's validation; as ``record(**args)`` it raised
        # "TypeError: got multiple values for argument 'time'" mid-run
        schedule = FaultSchedule.from_json(
            [{"time": 1.0, "kind": "heal", "args": {"time": 3, "node": "x", "category": "y"}}]
        )
        target = _Target(Network(Simulator()).topology)
        inject(target, schedule)
        target.sim.run()
        assert target.records() == [
            ("net", "fault.heal", {"time": 3, "node": "x", "category": "y"})
        ]
        # the record owns its detail: the schedule's args are not aliased
        assert target.trace.events[0].detail is not schedule.events[0].args

    def test_every_valid_kind_has_an_arm(self):
        examples = (
            FaultSchedule()
            .crash(0.0, "s1")
            .recover(0.0, "s1")
            .slowdown(0.0, "s1", 0.1)
            .restore_speed(0.0, "s1")
            .crash_at(0.0, "s1", "pre-handoff")
            .partition(0.0, ["s0"], ["s1", "s2"])
            .heal(0.0)
            .cut_link(0.0, "s0", "s1")
            .restore_link(0.0, "s0", "s1")
            .delay_link(0.0, "s0", "s1", 0.1)
            .restore_delay(0.0, "s0", "s1")
            .duplicate(0.0, 0.01)
            .reorder(0.0, 0.01)
        )
        # a kind added to the vocabulary needs an example here ...
        assert examples.kinds() == set(KINDS)
        cluster = make_vod_cluster()
        for event in examples.events:
            apply(cluster, event)  # ... and an arm there, or this raises
        rogue = FaultEvent(0.0, "heal")
        object.__setattr__(rogue, "kind", "meteor")
        with pytest.raises(ValueError, match="no arm"):
            apply(cluster, rogue)
