"""The benchmark's contract: workloads, metrics, bounds.

``BENCHMARK.json`` is the single source for what it holds — the workloads and
their "why", the end-to-end *slots* with their bounds, the per-layer metrics
with their units — and this module only reads it (:func:`contract`).  What
that file cannot hold lives here:

* :data:`DETAIL` — the issue's end-to-end metrics under the issue's names
  (``request_p50_ms``, ``takeover_p50_ms``, ``cpu_us_per_frame`` ...), each
  with the workloads it exists on and the issue's bound.  ``python -m bench
  run`` prints and stores them; ``python -m bench compare`` judges them.
* :data:`SLOT_SOURCE` — which detail metric fills which slot on which
  workload.  The driver's contract reads "with ``--trace 0`` the metrics are
  every ``end_to_end`` metric", "choose metrics that are never 0" and caps
  every bound at 25 % of the parent's median, so ``BENCHMARK.json`` cannot
  list a metric that exists on one workload only; a slot is a role ("the
  median wait of this workload's user") that every workload fills with its
  own metric.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Any

from bench import ROOT

SCHEMA_VERSION = 3

#: nominal measuring seconds per workload (``python -m bench run`` default);
#: the driver passes ``run_seconds`` from BENCHMARK.json instead and every
#: phase shrinks in proportion
NOMINAL_SECONDS: dict[str, float] = {
    "rr_ladder": 35.0,
    "vod_fanout": 30.0,
    "failover_cycle": 33.0,
    "sim_chaos": 30.0,
}
QUICK_SECONDS = 2.5


@functools.cache
def contract() -> dict[str, Any]:
    """``BENCHMARK.json`` of this checkout."""
    doc: dict[str, Any] = json.loads((ROOT / "BENCHMARK.json").read_text())
    return doc


def workloads() -> list[str]:
    return [entry["name"] for entry in contract()["workloads"]]


def slots() -> dict[str, dict[str, Any]]:
    """``end_to_end`` of BENCHMARK.json by name: unit, better, bound."""
    return {entry["name"]: entry for entry in contract()["end_to_end"]}


def per_layer() -> dict[str, str]:
    """``per_layer`` of BENCHMARK.json: name -> unit."""
    return {entry["name"]: entry["unit"] for entry in contract()["per_layer"]}


@dataclass(frozen=True)
class Bound:
    """How much worse a metric may get before it counts as a regression:
    ``rel`` is a share of the baseline median, ``abs`` is in the metric's
    own unit."""

    kind: str
    value: float


def rel(value: float) -> Bound:
    return Bound("rel", value)


def absolute(value: float) -> Bound:
    return Bound("abs", value)


@dataclass(frozen=True)
class Detail:
    unit: str
    better: str
    bound: Bound
    workloads: tuple[str, ...]


_LIVE = ("rr_ladder", "vod_fanout", "failover_cycle")
_ALL = (*_LIVE, "sim_chaos")

#: the issue's end-to-end metrics and bounds.  Added to them: the p90s (the
#: steadiest tail a 20 s run resolves), ``failover_cycle``'s
#: ``cpu_ms_per_request`` and ``updates_unapplied_share`` (what the stack
#: discards under kills, finding 7) and ``sim_chaos``'s ``seed_wall_*`` /
#: ``clean_seed_share`` / ``cpu_us_per_event``, which fill slots where the
#: issue names no metric for that workload, and the ``gc_*`` burden the live
#: workloads measure in place of running the cyclic collector.
DETAIL: dict[str, Detail] = {
    "setup_s": Detail("s", "lower", rel(0.25), _ALL),
    "request_p50_ms": Detail("ms", "lower", rel(0.10), ("rr_ladder", "failover_cycle")),
    "request_p90_ms": Detail("ms", "lower", rel(0.15), ("rr_ladder",)),
    "request_p99_ms": Detail("ms", "lower", rel(0.30), ("rr_ladder",)),
    "max_rate_in_slo_rps": Detail("1/s", "higher", absolute(500.0), ("rr_ladder",)),
    "cpu_ms_per_request": Detail("ms", "lower", rel(0.05), ("rr_ladder", "failover_cycle")),
    "frame_late_p50_ms": Detail("ms", "lower", rel(0.15), ("vod_fanout",)),
    "frame_late_p90_ms": Detail("ms", "lower", rel(0.15), ("vod_fanout",)),
    "frame_late_p99_ms": Detail("ms", "lower", rel(0.15), ("vod_fanout",)),
    "frames_on_time_share": Detail("share", "higher", absolute(0.01), ("vod_fanout",)),
    "cpu_us_per_frame": Detail("us", "lower", rel(0.05), ("vod_fanout",)),
    "takeover_p50_ms": Detail("ms", "lower", rel(0.20), ("failover_cycle",)),
    "takeover_p90_ms": Detail("ms", "lower", rel(0.30), ("failover_cycle",)),
    "answered_in_slo_share": Detail(
        "share", "higher", absolute(0.02), ("rr_ladder", "failover_cycle")
    ),
    "updates_unapplied_share": Detail("share", "lower", absolute(0.05), ("failover_cycle",)),
    "sim_s_per_wall_s": Detail("1/s", "higher", rel(0.05), ("sim_chaos",)),
    "seed_wall_p50_ms": Detail("ms", "lower", rel(0.05), ("sim_chaos",)),
    "seed_wall_p90_ms": Detail("ms", "lower", rel(0.10), ("sim_chaos",)),
    "clean_seed_share": Detail("share", "higher", absolute(0.05), ("sim_chaos",)),
    "cpu_us_per_event": Detail("us", "lower", rel(0.05), ("sim_chaos",)),
    "peak_rss_mb": Detail("MB", "lower", rel(0.15), _ALL),
    "gc_full_pass_ms": Detail("ms", "lower", rel(0.25), _LIVE),
    "gc_tracked_objects": Detail("count", "lower", rel(0.05), _LIVE),
    "gc_unreachable_objects": Detail("count", "lower", absolute(100.0), _LIVE),
    "failed_share": Detail("share", "lower", absolute(0.0), _ALL),
}

#: workload -> slot -> (detail metric that fills it, unit factor)
SLOT_SOURCE: dict[str, dict[str, tuple[str, float]]] = {
    "rr_ladder": {
        "setup_s": ("setup_s", 1.0),
        "service_p50_ms": ("request_p50_ms", 1.0),
        "in_slo_share": ("answered_in_slo_share", 1.0),
        "cpu_us_per_op": ("cpu_ms_per_request", 1000.0),
        "peak_rss_mb": ("peak_rss_mb", 1.0),
    },
    "vod_fanout": {
        "setup_s": ("setup_s", 1.0),
        "service_p50_ms": ("frame_late_p50_ms", 1.0),
        "in_slo_share": ("frames_on_time_share", 1.0),
        "cpu_us_per_op": ("cpu_us_per_frame", 1.0),
        "peak_rss_mb": ("peak_rss_mb", 1.0),
    },
    "failover_cycle": {
        "setup_s": ("setup_s", 1.0),
        "service_p50_ms": ("takeover_p50_ms", 1.0),
        "in_slo_share": ("answered_in_slo_share", 1.0),
        "cpu_us_per_op": ("cpu_ms_per_request", 1000.0),
        "peak_rss_mb": ("peak_rss_mb", 1.0),
    },
    "sim_chaos": {
        "setup_s": ("setup_s", 1.0),
        "service_p50_ms": ("seed_wall_p50_ms", 1.0),
        "in_slo_share": ("clean_seed_share", 1.0),
        "cpu_us_per_op": ("cpu_us_per_event", 1.0),
        "peak_rss_mb": ("peak_rss_mb", 1.0),
    },
}
