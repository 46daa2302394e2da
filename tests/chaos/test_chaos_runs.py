"""Integration tests for the chaos engine: full deterministic runs,
the planted-bug regression (find -> shrink -> artifact -> replay), and
the fixed-seed clean smoke that CI relies on."""

import json

import pytest

from repro.chaos.config import ChaosConfig
from repro.chaos.engine import _run_seed, explore, replay
from repro.chaos.runner import run_schedule
from repro.faults.schedule import FaultSchedule


def _layered_schedule() -> FaultSchedule:
    """Every adversity mechanism in one schedule: crash/recover, gray
    slowdown, link delay, duplication and reordering (the chaos-RNG
    paths most likely to break determinism if mis-seeded)."""
    return (
        FaultSchedule()
        .crash(2.0, "s0")
        .recover(5.0, "s0")
        .slowdown(6.0, "s1", 4.0)
        .restore_speed(9.0, "s1")
        .delay_link(3.0, "s1", "s2", 0.08)
        .restore_delay(8.0, "s1", "s2")
        .duplicate(3.0, 0.05)
        .duplicate(12.0, 0.0)
        .reorder(4.0, 0.05)
        .reorder(12.0, 0.0)
        .crash_at(7.0, "s2", "post-update")
        .recover(10.0, "s2")
    )


class TestDeterminism:
    def test_same_inputs_same_trace(self):
        # a run is a pure function of (config, seed, schedule): the full
        # event trace — including randomized duplication/reordering and
        # workload behavior — must be byte-identical across re-runs
        config = ChaosConfig(duration=14.0, establish=2.0, settle=6.0)
        schedule = _layered_schedule()
        a = run_schedule(config, 424242, schedule)
        b = run_schedule(config, 424242, schedule)
        assert a.digest == b.digest
        assert a.responses == b.responses
        assert a.updates == b.updates
        assert [v.to_json() for v in a.violations] == [
            v.to_json() for v in b.violations
        ]

    def test_seed_changes_trace(self):
        config = ChaosConfig(duration=8.0, establish=2.0, settle=4.0)
        schedule = FaultSchedule().crash(2.0, "s0").recover(4.0, "s0")
        a = run_schedule(config, 1, schedule)
        b = run_schedule(config, 2, schedule)
        assert a.digest != b.digest

    def test_schedule_changes_trace(self):
        config = ChaosConfig(duration=8.0, establish=2.0, settle=4.0)
        a = run_schedule(config, 7, FaultSchedule().crash(2.0, "s0").recover(4.0, "s0"))
        b = run_schedule(config, 7, FaultSchedule().crash(2.5, "s0").recover(4.0, "s0"))
        assert a.digest != b.digest


class TestPlantRegression:
    """End-to-end validation of the whole pipeline against a failure
    known to exist: ``handoff-stall`` disables the handoff-timeout
    fallback, and root seed 8 deterministically produces a pre-handoff
    crash that the heal-phase rebalance does not cure."""

    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        artifact_dir = tmp_path_factory.mktemp("chaos-artifacts")
        config = ChaosConfig(profile="crashes", plant="handoff-stall")
        return explore(config, seed=8, iterations=2, artifact_dir=artifact_dir)

    def test_plant_is_found(self, report):
        assert report.violations_found >= 1
        failing = [it for it in report.iterations if it.failed]
        names = {v.oracle for it in failing for v in it.result.violations}
        # the stall signature: the session goes silent and never converges
        assert "convergence" in names

    def test_summary_counts_clean_seeds_per_profile(self, report):
        clean = sum(not it.failed for it in report.iterations)
        assert report.clean_by_profile() == {"crashes": (clean, 2)}
        headline, *profiles = report.summary().splitlines()
        assert headline.startswith("chaos: 2 iteration(s), seed 8")
        assert profiles == [f"  crashes    {clean:4d} of    2 seeds clean"]

    def test_shrink_reduces_schedule(self, report):
        failing = next(it for it in report.iterations if it.failed)
        assert failing.shrunk is not None
        assert len(failing.shrunk) < failing.event_count
        assert failing.shrink_runs > 0

    def test_artifact_written_and_replayable(self, report):
        assert report.artifacts
        path = report.artifacts[0]
        data = json.loads(open(path).read())
        assert data["format"] == "repro-chaos/1"
        assert data["shrunk_event_count"] <= data["original_event_count"]
        result, recorded, reproduced = replay(path)
        assert reproduced
        assert {v["oracle"] for v in recorded} <= result.oracle_names()

    def test_replay_is_exact(self, report):
        # the artifact pins (config, seed, schedule): two replays are the
        # same run, digest and all
        path = report.artifacts[0]
        a, _, _ = replay(path)
        b, _, _ = replay(path)
        assert a.digest == b.digest


class TestCleanSmoke:
    def test_fixed_seed_mixed_smoke_is_clean(self):
        # the CI gate: one iteration per profile at a pinned seed must
        # report zero violations on the real (unplanted) implementation
        report = explore(ChaosConfig(profile="mixed"), seed=1, iterations=3)
        assert report.violations_found == 0
        assert {it.profile for it in report.iterations} == {
            "crashes",
            "partitions",
            "gray",
        }
        assert report.clean_by_profile() == {
            "crashes": (1, 1),
            "gray": (1, 1),
            "partitions": (1, 1),
        }
        # every run actually exercised the cluster
        assert all(it.result.responses > 0 for it in report.iterations)

    def test_run_seed_decoupled_from_generator(self):
        # adding generator draws must never change the run seed sequence
        assert _run_seed(8, 1) == (8 * 1_000_003 + 8_191 + 1) % (2**31 - 1)
        seeds = [_run_seed(1, i) for i in range(4)]
        assert len(set(seeds)) == 4


class TestHealSweep:
    @pytest.mark.parametrize("seed", [2, 3])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_unclosed_cut_link_is_healed(self, seed, symmetric):
        # the schedule ddmin leaves when it drops a closer: a cut with no
        # restore_link.  disruption_spans closes it at heal_time, so the
        # heal sweep must restore it — the settle phase is a clean window
        config = ChaosConfig(n_servers=4, n_sessions=2, duration=10.0)
        schedule = FaultSchedule().cut_link(1.0, "s0", "s1", symmetric=symmetric)
        result, observation = run_schedule(config, seed, schedule, keep_cluster=True)
        assert not result.violations
        topology = observation.cluster.network.topology
        assert topology.connected("s0", "s1") and topology.connected("s1", "s0")
