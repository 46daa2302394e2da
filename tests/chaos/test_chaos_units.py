"""Unit tests for the chaos engine's pieces: config, generation,
disruption windows, shrinking, and artifacts (no full cluster runs)."""

import hashlib
import json
from dataclasses import dataclass

import numpy as np
import pytest

from repro.chaos.artifact import FORMAT, load_artifact, write_artifact
from repro.chaos.config import PROFILES, ChaosConfig
from repro.chaos.generator import generate_schedule, resolve_profile
from repro.chaos.oracles import ORACLES, Violation
from repro.chaos.runner import _detail_renderer, _stable, disruption_spans, trace_digest
from repro.chaos.shrink import shrink_events
from repro.faults.schedule import KINDS, FaultSchedule
from repro.sim.trace import TraceLog


class TestConfig:
    def test_defaults_valid(self):
        config = ChaosConfig()
        assert config.spare == "s3"
        assert config.spare not in config.faultable_servers
        assert len(config.client_ids) == config.n_sessions

    def test_sessions_share_one_unit(self):
        # controlled migrations only happen in multi-session units
        assert ChaosConfig(n_sessions=3).unit_ids == ["m0"]

    def test_rejects_tiny_cluster(self):
        with pytest.raises(ValueError):
            ChaosConfig(n_servers=2)

    def test_rejects_unknown_profile_and_plant(self):
        with pytest.raises(ValueError):
            ChaosConfig(profile="meteors")
        with pytest.raises(ValueError):
            ChaosConfig(plant="nonexistent-bug")

    def test_json_round_trip(self):
        config = ChaosConfig(n_servers=5, profile="gray", plant="handoff-stall")
        assert ChaosConfig.from_json(config.to_json()) == config

    def test_from_json_rejects_unknown_keys(self):
        data = ChaosConfig().to_json()
        data["meteor_rate"] = 1.0
        with pytest.raises(ValueError, match="meteor_rate"):
            ChaosConfig.from_json(data)

    def test_from_json_drops_the_retired_heartbeat_membership(self):
        # what every artifact recorded beside the SWIM detector carries
        data = {**ChaosConfig(n_servers=5).to_json(), "membership": "heartbeat"}
        assert ChaosConfig.from_json(data) == ChaosConfig(n_servers=5)

    @pytest.mark.parametrize("membership", ["gossip", "carrier-pigeon"])
    def test_from_json_refuses_any_other_membership(self, membership):
        data = {**ChaosConfig().to_json(), "membership": membership}
        with pytest.raises(ValueError, match=f"membership '{membership}'.*SWIM gossip"):
            ChaosConfig.from_json(data)

    def test_plant_disables_handoff_timeout(self):
        normal = ChaosConfig().build_policy()
        planted = ChaosConfig(plant="handoff-stall").build_policy()
        assert planted.handoff_timeout > 1e6 > normal.handoff_timeout

    def test_full_session_groups(self):
        policy = ChaosConfig(n_servers=5).build_policy()
        assert policy.num_backups == 4


class TestGenerator:
    def test_mixed_round_robins_all_profiles(self):
        config = ChaosConfig(profile="mixed")
        seen = {resolve_profile(config, i) for i in range(6)}
        assert seen == set(PROFILES)

    def test_fixed_profile_sticks(self):
        config = ChaosConfig(profile="gray")
        assert resolve_profile(config, 0) == resolve_profile(config, 5) == "gray"

    @pytest.mark.parametrize("profile", PROFILES)
    def test_schedules_deterministic_and_spare_safe(self, profile):
        config = ChaosConfig()
        a = generate_schedule(np.random.default_rng([3, 1]), config, profile)
        b = generate_schedule(np.random.default_rng([3, 1]), config, profile)
        assert [e.key() for e in a.sorted_events()] == [
            e.key() for e in b.sorted_events()
        ]
        for event in a.events:
            if event.kind in ("crash", "slowdown", "crash_at"):
                assert event.target != config.spare
            if event.kind == "partition":
                # clients must be placed explicitly (unlisted nodes end
                # up isolated in an implicit extra component)
                members = {n for comp in event.args["components"] for n in comp}
                assert set(config.client_ids) <= members
                assert config.spare in members

    def test_events_within_injection_window(self):
        config = ChaosConfig()
        for profile in PROFILES:
            schedule = generate_schedule(
                np.random.default_rng([9, 2]), config, profile
            )
            assert all(0 <= e.time <= config.duration for e in schedule.events)


class TestDisruptionSpans:
    def test_opener_closed_by_matching_closer(self):
        schedule = FaultSchedule().crash(1.0, "s0").recover(4.0, "s0")
        assert disruption_spans(schedule, t0=10.0, heal_time=40.0) == [(11.0, 14.0)]

    def test_unclosed_opener_runs_to_heal(self):
        schedule = FaultSchedule().crash(2.0, "s1")
        assert disruption_spans(schedule, t0=0.0, heal_time=30.0) == [(2.0, 30.0)]

    def test_closer_scoped_per_target(self):
        schedule = (
            FaultSchedule().crash(1.0, "s0").crash(2.0, "s1").recover(3.0, "s1")
        )
        spans = disruption_spans(schedule, t0=0.0, heal_time=10.0)
        # s0 stays down to heal; s1's span closes at 3.0 and merges into it
        assert spans == [(1.0, 10.0)]

    def test_crash_at_conservative_to_heal(self):
        schedule = FaultSchedule().crash_at(5.0, "s0", "pre-handoff")
        assert disruption_spans(schedule, t0=0.0, heal_time=20.0) == [(5.0, 20.0)]

    def test_message_adversity_closes_at_zero_probability(self):
        schedule = FaultSchedule().duplicate(1.0, 0.05).duplicate(6.0, 0.0)
        assert disruption_spans(schedule, t0=0.0, heal_time=20.0) == [(1.0, 6.0)]

    def test_slowdown_closed_only_by_its_servers_restore_speed(self):
        schedule = (
            FaultSchedule()
            .slowdown(1.0, "s0", 0.3)
            .recover(2.0, "s0")
            .restore_speed(3.0, "s1")
            .restore_speed(5.0, "s0")
        )
        assert disruption_spans(schedule, t0=0.0, heal_time=20.0) == [(1.0, 5.0)]

    def test_partition_closed_by_heal(self):
        schedule = FaultSchedule().partition(2.0, ["s0"], ["s1", "s2"]).heal(7.0)
        assert disruption_spans(schedule, t0=0.0, heal_time=20.0) == [(2.0, 7.0)]

    def test_cut_link_closed_by_its_pair_in_either_order(self):
        reversed_pair = FaultSchedule().cut_link(1.0, "s0", "s1").restore_link(4.0, "s1", "s0")
        assert disruption_spans(reversed_pair, t0=0.0, heal_time=20.0) == [(1.0, 4.0)]
        other_pair = FaultSchedule().cut_link(1.0, "s0", "s1").restore_link(4.0, "s0", "s2")
        assert disruption_spans(other_pair, t0=0.0, heal_time=20.0) == [(1.0, 20.0)]

    def test_delay_link_closed_by_restore_delay_of_its_pair(self):
        schedule = (
            FaultSchedule()
            .delay_link(1.0, "s0", "s1", 0.2)
            .restore_delay(3.0, "s0", "s2")
            .restore_delay(6.0, "s0", "s1")
        )
        assert disruption_spans(schedule, t0=0.0, heal_time=20.0) == [(1.0, 6.0)]

    def test_reorder_closes_at_zero_probability(self):
        schedule = FaultSchedule().reorder(2.0, 0.05).duplicate(3.0, 0.0).reorder(8.0, 0.0)
        assert disruption_spans(schedule, t0=0.0, heal_time=20.0) == [(2.0, 8.0)]

    def test_second_nonzero_duplicate_does_not_close_the_first(self):
        schedule = FaultSchedule().duplicate(1.0, 0.05).duplicate(3.0, 0.02)
        assert disruption_spans(schedule, t0=0.0, heal_time=20.0) == [(1.0, 20.0)]

    def test_closer_before_its_opener_is_ignored(self):
        schedule = FaultSchedule().recover(1.0, "s0").crash(4.0, "s0")
        assert disruption_spans(schedule, t0=0.0, heal_time=20.0) == [(4.0, 20.0)]


class TestShrink:
    def test_finds_single_culprit(self):
        events = list(range(16))

        calls = []

        def still_fails(subset):
            calls.append(len(subset))
            return 11 in subset

        shrunk, runs = shrink_events(events, still_fails, budget=64)
        assert shrunk == [11]
        assert runs == len(calls)

    def test_finds_interacting_pair(self):
        events = list(range(12))

        def still_fails(subset):
            return 3 in subset and 9 in subset

        shrunk, _ = shrink_events(events, still_fails, budget=64)
        assert shrunk == [3, 9]

    def test_budget_caps_re_runs(self):
        events = list(range(64))

        def still_fails(subset):
            return 63 in subset

        _, runs = shrink_events(events, still_fails, budget=5)
        assert runs <= 5

    def test_trivial_schedules_untouched(self):
        assert shrink_events([], lambda s: True, budget=8) == ([], 0)
        assert shrink_events([1], lambda s: True, budget=8) == ([1], 0)


class TestArtifact:
    def test_round_trip(self, tmp_path):
        config = ChaosConfig(profile="crashes")
        schedule = FaultSchedule().crash(1.5, "s0").recover(3.0, "s0")
        violations = [
            Violation(oracle="responsiveness", session_id="c0#0", detail={"max_gap": 9.0})
        ]
        path = tmp_path / "repro.json"
        write_artifact(
            path,
            config=config,
            seed=12345,
            schedule=schedule,
            violations=violations,
            profile="crashes",
            original_event_count=17,
            shrink_runs=8,
        )
        loaded = load_artifact(path)
        assert loaded["config"] == config
        assert loaded["seed"] == 12345
        assert loaded["profile"] == "crashes"
        assert [e.key() for e in loaded["schedule"].sorted_events()] == [
            e.key() for e in schedule.sorted_events()
        ]
        assert loaded["violations"][0]["oracle"] == "responsiveness"

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else/9"}')
        with pytest.raises(ValueError, match="format"):
            load_artifact(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("violations", {"oracle": "gcs-spec"}),
            ("violations", [{"oracle": 3, "session_id": None, "detail": {}}]),
            ("violations", [{"oracle": "gcs-spec", "session_id": 4, "detail": {}}]),
            ("violations", [{"oracle": "gcs-spec", "session_id": None}]),
            ("profile", ["gray"]),
            ("mode", "wan"),
            ("trace_digest", 12),
            ("replay_log", False),
        ],
    )
    def test_rejects_a_malformed_field(self, tmp_path, key, value):
        data = {
            "format": FORMAT,
            "seed": 1,
            "config": ChaosConfig().to_json(),
            "schedule": FaultSchedule().to_json(),
            "violations": [],
            key: value,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"malformed chaos artifact .*{key}"):
            load_artifact(path)

    def test_format_name_stable(self):
        # replay compatibility contract: bump deliberately, not by accident
        assert FORMAT == "repro-chaos/1"


class TestOracleTable:
    def test_lossless_oracles_exclude_partitions(self):
        # "no silent lost updates" is only an invariant when no
        # partition-class fault ran (the paper accepts minority loss)
        by_name = {o.name: o for o in ORACLES}
        lost = by_name["silent-lost-updates"]
        assert lost.applies_to is not None
        assert "partition" not in lost.applies_to
        assert "crash" in lost.applies_to

    def test_lossless_kinds_are_all_but_the_partition_class(self):
        lost = {o.name: o for o in ORACLES}["silent-lost-updates"]
        assert lost.applies_to == set(KINDS) - {"partition", "heal", "cut_link", "restore_link"}

    def test_unconditional_oracles(self):
        by_name = {o.name: o for o in ORACLES}
        assert by_name["gcs-spec"].applies_to is None
        assert by_name["convergence"].applies_to is None


@dataclass(frozen=True)
class _View:
    members: tuple
    counter: int


class _Loud(str):
    def __repr__(self):
        return "LOUD"


#: what the stack puts in a trace detail, and what could trip a memo keyed
#: by the items: ``True == 1 == 1.0`` and ``_Loud("s0") == "s0"`` hash and
#: compare equal yet print differently, as keys and as values
_DETAILS = [
    {},
    {"sender": "s0", "kind": "gcs.heartbeat"},
    {"kind": "gcs.heartbeat", "sender": "s0"},
    {"sender": _Loud("s0"), "kind": "gcs.heartbeat"},
    {"sender": "s0", "kind": "gcs.heartbeat"},
    {"reason": "it's \"quoted\"\n", "kind": "ünï", "receiver": "c0"},
    {"a": 1},
    {"a": True},
    {"a": 1.0},
    {1: "x"},
    {True: "x"},
    {"1": "x"},
    {"z": 1, "a": True, "m": 1.0, "k": None, "f": -0.0, "e": 1e-9, "big": 10**30},
    {"nan": float("nan"), "inf": float("inf")},
    {"numpy": np.float64(0.25), "count": np.int64(3)},
    {"members": ("s0", "s1"), "view": _View(("s0",), 4), "by": {"s1": [1, 2]}},
    {"components": [["s0", "s1"], ["s2"]], "who": frozenset({"b", "a"})},
    {1: "int key", "1": "str key"},
    {("a", "b"): 0.5},
    {"opaque": object()},
]


class TestTraceDigest:
    def test_remembered_details_are_stable_byte_for_byte(self):
        render = _detail_renderer()  # one memo across all of them, twice over
        for detail in _DETAILS + _DETAILS:
            assert render(detail) == _stable(detail), detail

    def test_a_full_memo_changes_nothing(self, monkeypatch):
        monkeypatch.setattr("repro.chaos.runner._DETAIL_MEMO", 2)
        render = _detail_renderer()
        for i in list(range(5)) * 2:
            assert render({"k": str(i)}) == _stable({"k": str(i)})

    def test_chunked_hash_equals_the_line_by_line_hash(self):
        log = TraceLog()
        for i in range(3000):  # ~200 kB of lines: several chunks
            log.record(i * 0.001, f"s{i % 5}", "net.deliver", sender="s0", kind="k" * (i % 40))
        log.record(3.0, "s1", "big", blob="x" * 100_000)  # one line over a chunk
        log.record(3.0, "s2", "fw.promote", **_DETAILS[15])
        reference = hashlib.sha256()
        for event in log.events:
            line = f"{event.time!r}|{event.node}|{event.category}|" + _stable(event.detail)
            reference.update(line.encode())
            reference.update(b"\n")
        assert trace_digest(log) == reference.hexdigest()
        assert trace_digest(TraceLog()) == hashlib.sha256().hexdigest()

    def test_digest_is_the_line_formula(self):
        """The digest's definition, written out: SHA-256 over one line per
        record, ``f"{time!r}|{node}|{category}|{_stable(detail)}\\n"``.
        The log mixes details recorded once with dicts recorded again and
        again (as ``net.deliver`` shares one per sender and kind), ``int``
        and ``float`` times, and the keys and values ``1``, ``True`` and
        ``1.0``, which compare and hash equal but print differently."""
        shared = [{"sender": "s0", "kind": "gcs.heartbeat"}, {"a": 1}, {1: "x"}]
        log = TraceLog()
        for i in range(600):
            time = i // 3 if i % 2 else i * 0.0125
            node = f"s{i % 4}"
            category = "fw.promote" if i % 5 == 0 else "net.deliver"
            for detail in shared:  # the same three dicts, again and again
                log.record_detail(time, node, category, detail)
            log.record_detail(time, node, category, {"sender": node, "kind": "k"})
            for value in (1, True, 1.0):  # fresh dicts, equal but printed apart
                log.record_detail(time, node, category, {"a": value})
                log.record_detail(time, node, category, {value: "x", "n": value})
        reference = hashlib.sha256()
        for time, node, category, detail in zip(*log.columns()):
            reference.update(f"{time!r}|{node}|{category}|{_stable(detail)}\n".encode())
        assert trace_digest(log) == reference.hexdigest()
        # the colliding keys are in the log under all three spellings
        lines = {_stable(detail) for detail in log.columns()[3]}
        spellings = {"{a:1}", "{a:True}", "{a:1.0}"}
        spellings |= {"{1:'x',n:1}", "{True:'x',n:True}", "{1.0:'x',n:1.0}"}
        assert spellings <= lines

    @pytest.mark.parametrize("memo", [4096, 3])
    def test_one_detail_under_two_nodes_and_two_categories(self, monkeypatch, memo):
        """A line's tail after the time is rendered once per node, category
        and detail: one dict recorded under two nodes and two categories
        prints under each, nodes that compare equal but print apart (``1``
        and ``True``) stay apart, and a memo that fills up starts over."""
        monkeypatch.setattr("repro.chaos.runner._DETAIL_MEMO", memo)
        shared = {"sender": "s0", "kind": "gcs.heartbeat"}
        log = TraceLog()
        for i in range(50):
            for node in ("s1", "s2", 1, True):
                for category in ("net.deliver", "fw.promote"):
                    log.record_detail(i * 0.25, node, category, shared)
            log.record_detail(i, "s1", "net.deliver", {"sender": "s1", "kind": str(i)})
        reference = hashlib.sha256()
        for time, node, category, detail in zip(*log.columns()):
            reference.update(f"{time!r}|{node}|{category}|{_stable(detail)}\n".encode())
        assert trace_digest(log) == reference.hexdigest()
