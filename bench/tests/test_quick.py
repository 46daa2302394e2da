"""``--quick`` mode (<= 3 s measured per workload) yields every named
metric, finite — end to end and per layer — and the watchdog accounts for a
run it has to kill."""

import math

import pytest

from bench import isolate
from bench.isolate import run_isolated
from bench.report import driver_line, slots_of
from bench.spec import DETAIL, QUICK_SECONDS, per_layer, slots, workloads
from bench.worker import run_workload


@pytest.mark.parametrize("workload", workloads())
def test_quick_end_to_end(workload):
    outcome = run_workload(workload, seed=11, seconds=QUICK_SECONDS, quick=True)
    expected = {name for name, detail in DETAIL.items() if workload in detail.workloads}
    assert expected <= set(outcome["metrics"])
    for name, entry in outcome["metrics"].items():
        assert math.isfinite(entry["value"]), name
        assert entry["unit"]
    filled = slots_of(outcome)
    assert set(filled) == set(slots())
    assert all(entry["value"] > 0 for entry in filled.values())
    assert outcome["attempted"] >= 1
    assert '"metrics"' in driver_line(outcome, trace=False)
    for key in ("transport", "profile") if workload != "sim_chaos" else ("seeds",):
        assert key in outcome["info"]


@pytest.mark.parametrize("workload", workloads())
def test_quick_per_layer(workload):
    outcome = run_workload(workload, seed=12, seconds=QUICK_SECONDS, quick=True, trace=True)
    assert set(outcome["layers"]) == set(per_layer())
    for name, entry in outcome["layers"].items():
        assert math.isfinite(entry["value"]), name
        assert entry["unit"] == per_layer()[name]
    if workload == "rr_ladder":
        budget = outcome["info"]["cpu_budget_us_per_request"]
        parts = [value for part, value in budget.items() if not part.startswith("total")]
        total = next(value for part, value in budget.items() if part.startswith("total"))
        assert abs(sum(parts) - total) < 1e-6 * max(total, 1.0)
    if workload == "sim_chaos":
        assert outcome["layers"]["codec.encode_us_per_frame"]["value"] == 0.0
        assert outcome["layers"]["chaos.oracle_share"]["value"] > 0.0


def test_watchdog_kills_and_counts_unanswered_operations():
    outcome = run_isolated("sim_chaos", seed=5, seconds=30.0, wall_cap=2.5)
    assert outcome["correct"] is False
    assert outcome["info"]["killed"] is True
    assert outcome["failed"] >= 1 and outcome["attempted"] >= outcome["failed"]
    assert "wall cap" in outcome["notes"][0]


def test_a_run_the_hypervisor_interrupted_is_made_once_more(monkeypatch):
    attempts = iter([
        {"workload": "vod_fanout", "correct": False, "notes": [], "host_steal_ms": 480.0},
        {"workload": "vod_fanout", "correct": True, "notes": [], "host_steal_ms": 260.0},
    ])
    monkeypatch.setattr(isolate, "_run_once", lambda *args: next(attempts))
    outcome = run_isolated("vod_fanout", seed=1, seconds=20.0)
    assert outcome["correct"] is True and outcome["rerun_after_host_steal_ms"] == 480.0
    assert "second attempt" in outcome["notes"][0]
    # ... once: the second attempt stands whatever the host did to it
    assert next(attempts, None) is None

    quiet = {"workload": "vod_fanout", "correct": False, "notes": [], "host_steal_ms": 12.0}
    monkeypatch.setattr(isolate, "_run_once", lambda *args: quiet)
    assert run_isolated("vod_fanout", seed=1, seconds=20.0) is quiet
