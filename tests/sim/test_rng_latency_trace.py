"""Unit tests for RNG streams, latency models, and the trace log."""

import numpy as np
import pytest

from repro.sim.latency import (
    FixedLatency,
    LogNormalLatency,
    PairwiseLatency,
    UniformLatency,
    lan_latency,
    wan_latency,
)
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceEvent, TraceLog


class TestRngRegistry:
    def test_same_name_same_stream(self):
        rngs = RngRegistry(1)
        assert rngs.stream("x") is rngs.stream("x")

    def test_different_names_independent(self):
        rngs = RngRegistry(1)
        a = rngs.stream("a").random(5)
        b = rngs.stream("b").random(5)
        assert list(a) != list(b)

    def test_reproducible_across_registries(self):
        r1 = RngRegistry(99).stream("lat").random(10)
        r2 = RngRegistry(99).stream("lat").random(10)
        assert list(r1) == list(r2)

    def test_different_seeds_differ(self):
        r1 = RngRegistry(1).stream("lat").random(5)
        r2 = RngRegistry(2).stream("lat").random(5)
        assert list(r1) != list(r2)

    def test_fork_is_deterministic_and_independent(self):
        parent = RngRegistry(5)
        child1 = parent.fork("rep0")
        child2 = RngRegistry(5).fork("rep0")
        assert list(child1.stream("x").random(3)) == list(
            child2.stream("x").random(3)
        )
        other = parent.fork("rep1")
        assert list(other.stream("x").random(3)) != list(
            RngRegistry(5).fork("rep0").stream("x").random(3)
        )

    def test_reset_replays_streams(self):
        rngs = RngRegistry(3)
        first = list(rngs.stream("s").random(4))
        rngs.reset()
        again = list(rngs.stream("s").random(4))
        assert first == again


class TestLatencyModels:
    def test_fixed(self):
        model = FixedLatency(0.25)
        assert model.sample("a", "b") == 0.25

    def test_fixed_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedLatency(-1.0)

    def test_uniform_within_bounds(self):
        rng = RngRegistry(0).stream("lat")
        model = UniformLatency(0.01, 0.02, rng)
        samples = [model.sample("a", "b") for _ in range(200)]
        assert all(0.01 <= s <= 0.02 for s in samples)

    def test_uniform_rejects_bad_bounds(self):
        rng = RngRegistry(0).stream("lat")
        with pytest.raises(ValueError):
            UniformLatency(0.5, 0.1, rng)

    def test_lognormal_floor(self):
        rng = RngRegistry(0).stream("lat")
        model = LogNormalLatency(median=0.001, sigma=2.0, rng=rng, minimum=0.0005)
        samples = [model.sample("a", "b") for _ in range(500)]
        assert min(samples) >= 0.0005

    def test_lognormal_rejects_bad_params(self):
        rng = RngRegistry(0).stream("lat")
        with pytest.raises(ValueError):
            LogNormalLatency(median=0.0, sigma=1.0, rng=rng)

    def test_pairwise_override(self):
        default = FixedLatency(0.001)
        model = PairwiseLatency(default)
        model.set_pair("a", "b", FixedLatency(0.5))
        assert model.sample("a", "b") == 0.5
        assert model.sample("b", "a") == 0.5  # symmetric by default
        assert model.sample("a", "c") == 0.001

    def test_pairwise_asymmetric(self):
        model = PairwiseLatency(FixedLatency(0.001))
        model.set_pair("a", "b", FixedLatency(0.5), symmetric=False)
        assert model.sample("a", "b") == 0.5
        assert model.sample("b", "a") == 0.001

    def test_presets_sane(self):
        rng = RngRegistry(0).stream("lat")
        lan = lan_latency(rng)
        wan = wan_latency(rng)
        lan_avg = sum(lan.sample("a", "b") for _ in range(100)) / 100
        wan_avg = sum(wan.sample("a", "b") for _ in range(100)) / 100
        assert lan_avg < 0.001 < wan_avg

    # 2 000 samples cross three block boundaries; the twin generator's
    # scalar draws are written out here, so a numpy whose array fill
    # stops matching its scalar calls fails loudly
    def test_uniform_block_draws_are_the_scalar_stream(self):
        model = UniformLatency(0.0001, 0.0005, np.random.default_rng(2024))
        twin = np.random.default_rng(2024)
        expected = [float(twin.uniform(0.0001, 0.0005)) for _ in range(2000)]
        assert [model.sample("a", "b") for _ in range(2000)] == expected

    def test_lognormal_block_draws_are_the_scalar_stream(self):
        model = LogNormalLatency(
            median=0.030, sigma=0.35, rng=np.random.default_rng(2024), minimum=0.02
        )
        twin = np.random.default_rng(2024)
        expected = [
            max(0.02, float(twin.lognormal(mean=np.log(0.030), sigma=0.35)))
            for _ in range(2000)
        ]
        assert 0.02 in expected and max(expected) > 0.06  # floor and tail both hit
        assert [model.sample("a", "b") for _ in range(2000)] == expected


class TestTraceLog:
    def test_record_and_select(self):
        log = TraceLog()
        log.record(1.0, "a", "view", vid=1)
        log.record(2.0, "b", "view", vid=2)
        log.record(3.0, "a", "crash")
        assert log.count("view") == 2
        assert len(log.select(node="a")) == 2
        assert log.select(category="view", node="b")[0].detail == {"vid": 2}
        assert len(log.select(since=2.0)) == 2
        assert len(log.select(until=2.0)) == 2

    def test_disabled_log_records_nothing(self):
        log = TraceLog(enabled=False)
        log.record(1.0, "a", "x")
        assert len(log) == 0

    def test_category_filter(self):
        log = TraceLog(categories={"keep"})
        log.record(1.0, "a", "keep")
        log.record(1.0, "a", "drop")
        assert log.count("keep") == 1
        assert log.count("drop") == 0

    def test_subscriber_sees_events(self):
        log = TraceLog()
        seen = []
        log.subscribe(seen.append)
        log.record(1.0, "a", "x")
        assert len(seen) == 1 and seen[0].category == "x"
        assert type(seen[0]) is TraceEvent and seen == log.events

    def test_clear(self):
        log = TraceLog()
        log.record(1.0, "a", "x")
        log.clear()
        assert len(log) == 0

    def test_record_detail_takes_any_key(self):
        log = TraceLog()
        log.record_detail(1.0, "a", "fault.heal", {"time": 3, "node": "x", "category": "y"})
        (event,) = log.events
        assert (event.time, event.node, event.category) == (1.0, "a", "fault.heal")
        assert event.detail == {"time": 3, "node": "x", "category": "y"}

    def test_iterates_in_place_and_in_order(self):
        log = TraceLog()
        for i in range(4):
            log.record(float(i), "a", "tick", i=i)
        assert [e.detail["i"] for e in log] == [0, 1, 2, 3]
        assert list(log) == log.events

    def test_in_categories_keeps_log_order(self):
        log = TraceLog()
        for i, category in enumerate(["up", "noise", "down", "up", "noise", "down"]):
            log.record(1.0, "a", category, i=i)  # same instant: only order tells
        assert [e.detail["i"] for e in log.in_categories("down", "up")] == [0, 2, 3, 5]
        assert [e.detail["i"] for e in log.in_categories("up")] == [0, 3]
        assert log.in_categories("never") == []

    def test_index_follows_clear(self):
        log = TraceLog()
        for i in range(4):
            log.record(float(i), "a", "even" if i % 2 == 0 else "odd", i=i)
        assert log.count("odd") == 2
        log.clear()
        assert len(log) == 0 and list(log) == []
        assert log.count("odd") == 0 and log.select(category="even") == []
        log.record(0.0, "a", "odd", i=11)
        assert [e.detail["i"] for e in log.select(category="odd")] == [11]
