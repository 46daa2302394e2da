"""The result envelope, the printed report and the driver's result line."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Any

from bench import ROOT, STATEMENT
from bench.spec import DETAIL, SCHEMA_VERSION, SLOT_SOURCE, per_layer, slots


def git_rev() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True,
            timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def envelope(seed: int, trace: bool, quick: bool, seconds: float | None) -> dict[str, Any]:
    """What every result JSON carries besides the numbers."""
    return {
        "schema_version": SCHEMA_VERSION,
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "created_unix": time.time(),
        "seed": seed,
        "trace": trace,
        "quick": quick,
        "seconds_override": seconds,
        "statement": STATEMENT,
        "load_model": (
            "one OS process, one thread, 3 in-process servers + client c0 on real "
            "loopback sockets; open-loop seeded Poisson arrivals timed from the due instant"
        ),
        "host": (
            "worker pinned to one core that a nice-19 spinner keeps awake; a run from which "
            "the hypervisor stole 100 ms or more of that core is made once more"
        ),
        "estimators": (
            "CPU per operation (and sim_chaos's wall time per seed) is the median of half-second "
            "slices (of the seeds), each scaled by what the yardstick of bench/refload.py cost "
            "at its edges: time of the sizing box at its own speed; the median waits of "
            "rr_ladder and vod_fanout and setup_s are the mean of the lowest quarter of their "
            "slices (repeats); whole_window beside each is the figure as measured"
        ),
        "gc": (
            "live workloads: cyclic collector disabled inside the measuring window, one "
            "closing full pass measured instead (gc_full_pass_ms, gc_tracked_objects, "
            "gc_unreachable_objects); sim_chaos: interpreter defaults"
        ),
        "runs": [],
    }


def slots_of(outcome: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """The BENCHMARK.json end-to-end metrics of one workload outcome."""
    metrics = outcome.get("metrics", {})
    units = slots()
    filled: dict[str, dict[str, Any]] = {}
    for slot, (source, factor) in SLOT_SOURCE[outcome["workload"]].items():
        if source in metrics:
            filled[slot] = {
                "value": metrics[source]["value"] * factor, "unit": units[slot]["unit"],
            }
    return filled


def driver_line(outcome: dict[str, Any], trace: bool) -> str:
    """The one JSON object the driver reads from the last line of stdout."""
    if trace:
        metrics = {
            name: {"value": outcome["layers"][name]["value"], "unit": unit}
            for name, unit in per_layer().items() if name in outcome.get("layers", {})
        }
    else:
        metrics = slots_of(outcome)
    return json.dumps({
        "correct": bool(outcome["correct"]),
        "attempted": max(int(outcome["attempted"]), 1),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    })


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_outcome(outcome: dict[str, Any], trace: bool, stream: Any = None) -> None:
    """Every metric by name with its unit, then the checks."""
    stream = stream or sys.stdout
    info = outcome.get("info", {})
    name = outcome["workload"]
    print(f"\n== {name}  [{STATEMENT}]", file=stream)
    shape = ", ".join(
        f"{key}={info[key]}" for key in ("transport", "profile", "sessions", "seeds") if key in info
    )
    print(f"   {shape}  attempted={outcome['attempted']} failed={outcome['failed']} "
          f"correct={outcome['correct']}  wall={outcome.get('wall_seconds', 0.0):.1f}s "
          f"host_steal={outcome.get('host_steal_ms', 0.0):.0f}ms", file=stream)
    if not trace:
        for metric, entry in outcome.get("metrics", {}).items():
            extra = " ".join(
                f"{k}={_fmt(v)}" for k, v in entry.items() if k not in ("value", "unit")
            )
            bound = DETAIL.get(metric)
            tag = f"[{bound.better} is better]" if bound else "[harness]"
            print(f"   {metric:<26}{_fmt(entry['value']):>14} {entry['unit']:<6} {tag} {extra}",
                  file=stream)
        for slot, entry in slots_of(outcome).items():
            source = SLOT_SOURCE[name][slot][0]
            print(f"   slot {slot:<21}{_fmt(entry['value']):>14} {entry['unit']:<6} <- {source}",
                  file=stream)
        for rung in info.get("rungs", []):
            print(f"   rung {rung['rate_rps']:>5.0f} req/s: sent={rung['sent']} "
                  f"p50={rung['p50_ms']:.2f}ms p99={rung['p99_ms']:.2f}ms "
                  f"answered={rung['answered_share']:.4f} backlog {rung['backlog_mid']}->"
                  f"{rung['backlog_end']} in_slo={rung['in_slo']}", file=stream)
    else:
        for metric, entry in outcome.get("layers", {}).items():
            extra = " ".join(
                f"{k}={_fmt(v)}" for k, v in entry.items()
                if k not in ("value", "unit", "by_kind", "applies")
            )
            skipped = "" if entry.get("applies", True) else "(layer not on this path)"
            print(f"   {metric:<40}{_fmt(entry['value']):>14} {entry['unit']:<9}{extra}{skipped}",
                  file=stream)
        for title in ("cpu_budget_us_per_request", "latency_budget_ms"):
            if title in info:
                print(f"   {title}:", file=stream)
                for part, value in info[title].items():
                    print(f"      {part:<58}{value:>12.3f}", file=stream)
    for check, held in outcome.get("checks", {}).items():
        print(f"   check {check:<42}{'ok' if held else 'FAILED'}", file=stream)
    for note in outcome.get("notes", []):
        print(f"   note: {note}", file=stream)
