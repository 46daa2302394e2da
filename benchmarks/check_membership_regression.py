"""Guard the membership substrate: check ``BENCH_membership.json`` for
scaling and latency regressions.

Two kinds of gate:

* **Relational invariants** on the fresh run alone — the reasons the
  gossip detector exists.  Gossip liveness traffic per node must stay
  well below the mesh at the largest swept size, its growth across the
  sweep must stay bounded (the mesh is linear), detection latency at
  the smallest size must stay within a fixed factor of the mesh's
  *nominal* detection time (its suspect timeout — not its measured p99,
  which moves with where the kill falls in the heartbeat phase), and a
  clean network must produce zero false evictions.  These hold at any
  sweep size, so CI can run a capped sweep while the committed JSON
  carries the full 8..200 one.

* **One absolute bound** — the mesh detects *at* its timeout: detection
  p99 at every swept size is at most ``suspect_timeout`` (recorded in the
  results) plus the bench's polling resolution and a link latency.  A
  detector that polls its deadlines again reads a heartbeat interval
  more (0.41 s for a 0.35 s timeout, before PR 15) and fails this row.

* **Baseline comparison** — detection p99 and gossip bytes/node at the
  sizes both files share, with generous tolerances (sim-time metrics are
  deterministic, but sweep sizes and windows may legitimately shift).

CI copies the committed file aside first, exactly like the net gate::

    cp BENCH_membership.json bench-membership-baseline.json
    REPRO_BENCH_MEMBERSHIP_SIZES=8,64 python -m pytest benchmarks/bench_membership.py -q
    python benchmarks/check_membership_regression.py --baseline bench-membership-baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: gossip liveness bytes/node must stay below this fraction of the mesh
#: at the largest swept size (the whole point of the subsystem)
MESH_FRACTION_CEILING = 0.50

#: gossip bytes/node growth across the sweep must stay below this factor
#: of the mesh's growth over the same sizes
GROWTH_FRACTION_CEILING = 0.60

#: gossip detection p99 at the smallest size within this factor of the
#: suspect timeout (what the mesh takes, give or take a heartbeat phase)
DETECTION_FACTOR_CEILING = 2.0

#: mesh detection p99 may exceed the suspect timeout by at most this much
#: (the bench polls the detectors every 10 ms; one link latency is 2 ms)
MESH_DETECTION_SLACK_SECONDS = 0.02

#: baseline comparison: fresh latency may grow, fresh bytes may grow, by
#: at most this factor at shared sizes
BASELINE_TOLERANCE = 1.5


def _row(data: dict, mode: str, size: str, origin: str) -> dict:
    try:
        return data["sim_sweep"]["modes"][mode][size]
    except KeyError:
        raise SystemExit(f"{origin}: missing sim_sweep.modes.{mode}.{size}") from None


def _sizes(data: dict, origin: str) -> list[str]:
    try:
        sizes = data["sim_sweep"]["sizes"]
    except KeyError:
        raise SystemExit(f"{origin}: missing sim_sweep.sizes") from None
    if len(sizes) < 2:
        raise SystemExit(f"{origin}: need at least two sweep sizes, got {sizes}")
    return [str(n) for n in sorted(int(n) for n in sizes)]


def check_invariants(current: dict) -> list[str]:
    """Relational gates on the fresh run alone."""
    failures = []
    sizes = _sizes(current, "current")
    small, large = sizes[0], sizes[-1]

    def bytes_rate(mode: str, size: str) -> float:
        return float(
            _row(current, mode, size, "current")["liveness_bytes_per_node_per_sec"]
        )

    mesh_large = bytes_rate("mesh", large)
    gossip_large = bytes_rate("gossip", large)
    fraction = gossip_large / mesh_large
    status = "ok" if fraction <= MESH_FRACTION_CEILING else "REGRESSED"
    print(
        f"gossip/mesh liveness bytes at n={large}: "
        f"{gossip_large:.1f} / {mesh_large:.1f} = {fraction:.2f} "
        f"(ceiling {MESH_FRACTION_CEILING:.2f}) {status}"
    )
    if fraction > MESH_FRACTION_CEILING:
        failures.append(
            f"gossip liveness bytes at n={large} not below "
            f"{MESH_FRACTION_CEILING:.2f}x mesh ({fraction:.2f}x)"
        )

    mesh_growth = bytes_rate("mesh", large) / bytes_rate("mesh", small)
    gossip_growth = bytes_rate("gossip", large) / bytes_rate("gossip", small)
    growth_fraction = gossip_growth / mesh_growth
    status = "ok" if growth_fraction <= GROWTH_FRACTION_CEILING else "REGRESSED"
    print(
        f"liveness bytes growth {small}->{large}: mesh {mesh_growth:.1f}x, "
        f"gossip {gossip_growth:.1f}x (ratio {growth_fraction:.2f}, "
        f"ceiling {GROWTH_FRACTION_CEILING:.2f}) {status}"
    )
    if growth_fraction > GROWTH_FRACTION_CEILING:
        failures.append(
            f"gossip liveness growth {gossip_growth:.1f}x not below "
            f"{GROWTH_FRACTION_CEILING:.2f}x of mesh growth {mesh_growth:.1f}x"
        )

    try:
        timeout = float(current["sim_sweep"]["suspect_timeout_seconds"])
    except KeyError:
        raise SystemExit("current: missing sim_sweep.suspect_timeout_seconds") from None
    gossip_p99 = float(
        _row(current, "gossip", small, "current")["detection_p99_seconds"]
    )
    factor = gossip_p99 / timeout
    status = "ok" if factor <= DETECTION_FACTOR_CEILING else "REGRESSED"
    print(
        f"gossip detection p99 at n={small}: {gossip_p99:.3f}s against the "
        f"{timeout:.2f}s suspect timeout ({factor:.2f}x, ceiling "
        f"{DETECTION_FACTOR_CEILING:.2f}x) {status}"
    )
    if factor > DETECTION_FACTOR_CEILING:
        failures.append(
            f"gossip detection p99 {gossip_p99:.3f}s exceeds "
            f"{DETECTION_FACTOR_CEILING:.1f}x the {timeout:.2f}s suspect "
            f"timeout at n={small}"
        )

    ceiling = timeout + MESH_DETECTION_SLACK_SECONDS
    for size in sizes:
        p99 = float(_row(current, "mesh", size, "current")["detection_p99_seconds"])
        status = "ok" if p99 <= ceiling else "REGRESSED"
        print(
            f"mesh detection p99 at n={size}: {p99:.3f}s (suspect timeout "
            f"{timeout:.2f}s, ceiling {ceiling:.2f}s) {status}"
        )
        if p99 > ceiling:
            failures.append(
                f"mesh detection p99 {p99:.3f}s at n={size} exceeds the "
                f"{timeout:.2f}s suspect timeout by more than "
                f"{MESH_DETECTION_SLACK_SECONDS}s: a deadline is being polled"
            )

    for mode in ("mesh", "gossip"):
        for size in sizes:
            false_evictions = _row(current, mode, size, "current")[
                "false_evictions_in_window"
            ]
            if false_evictions != 0:
                failures.append(
                    f"{mode} n={size}: {false_evictions} false evictions "
                    "on a clean network"
                )
    return failures


def check_baseline(baseline: dict, current: dict) -> list[str]:
    """Compare shared sweep sizes against the committed results."""
    failures = []
    shared = sorted(
        set(_sizes(baseline, "baseline")) & set(_sizes(current, "current")),
        key=int,
    )
    if not shared:
        raise SystemExit("baseline and current share no sweep sizes")
    for size in shared:
        for label, key in (
            ("detection p99", "detection_p99_seconds"),
            ("liveness bytes/node", "liveness_bytes_per_node_per_sec"),
        ):
            before = float(_row(baseline, "gossip", size, "baseline")[key])
            after = float(_row(current, "gossip", size, "current")[key])
            ratio = after / before if before > 0 else float("inf")
            status = "ok" if ratio <= BASELINE_TOLERANCE else "REGRESSED"
            print(
                f"gossip {label} at n={size}: {before:.3f} -> {after:.3f} "
                f"({ratio:.2f}x, ceiling {BASELINE_TOLERANCE:.2f}x) {status}"
            )
            if ratio > BASELINE_TOLERANCE:
                failures.append(
                    f"gossip {label} at n={size} regressed: "
                    f"{after:.3f} > {BASELINE_TOLERANCE:.2f} * {before:.3f}"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        required=True,
        help="copy of the committed BENCH_membership.json",
    )
    parser.add_argument(
        "--current",
        default="BENCH_membership.json",
        help="freshly written benchmark results (default %(default)s)",
    )
    args = parser.parse_args(argv)
    baseline = json.loads(Path(args.baseline).read_text())
    current = json.loads(Path(args.current).read_text())
    failures = check_invariants(current)
    failures += check_baseline(baseline, current)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
