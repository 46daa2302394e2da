"""Guard the membership substrate: check ``BENCH_membership.json`` for
detection and traffic regressions of the heartbeat mesh.

Two kinds of gate:

* **On the fresh run alone** — the mesh detects *at* its timeout:
  detection p99 at every swept size is at most ``suspect_timeout``
  (recorded in the results) plus the bench's polling resolution and a
  link latency.  A detector that polls its deadlines again reads a
  heartbeat interval more (0.41 s for a 0.35 s timeout, before PR 15) and
  fails this row.  And a clean network produces zero false evictions.
  These hold at any sweep size, so CI can run a capped sweep while the
  committed JSON carries the full 8..200 one.

* **Baseline comparison** — detection p99 and liveness frames/node at
  the sizes both files share, with generous tolerances (sim-time metrics
  are deterministic, but sweep sizes and windows may legitimately shift).

The simulated sweep counts frames, not bytes: the simulator prices no
liveness message.

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

#: mesh detection p99 may exceed the suspect timeout by at most this much
#: (the bench polls the detectors every 10 ms; one link latency is 2 ms)
MESH_DETECTION_SLACK_SECONDS = 0.02

#: baseline comparison: fresh latency may grow, fresh frames may grow, by
#: at most this factor at shared sizes
BASELINE_TOLERANCE = 1.5


def _row(data: dict, size: str, origin: str) -> dict:
    try:
        return data["sim_sweep"]["modes"]["mesh"][size]
    except KeyError:
        raise SystemExit(f"{origin}: missing sim_sweep.modes.mesh.{size}") from None


def _sizes(data: dict, origin: str) -> list[str]:
    try:
        sizes = data["sim_sweep"]["sizes"]
    except KeyError:
        raise SystemExit(f"{origin}: missing sim_sweep.sizes") from None
    if len(sizes) < 2:
        raise SystemExit(f"{origin}: need at least two sweep sizes, got {sizes}")
    return [str(n) for n in sorted(int(n) for n in sizes)]


def check_invariants(current: dict) -> list[str]:
    """Gates on the fresh run alone."""
    failures = []
    sizes = _sizes(current, "current")
    try:
        timeout = float(current["sim_sweep"]["suspect_timeout_seconds"])
    except KeyError:
        raise SystemExit("current: missing sim_sweep.suspect_timeout_seconds") from None
    ceiling = timeout + MESH_DETECTION_SLACK_SECONDS
    for size in sizes:
        row = _row(current, size, "current")
        p99 = float(row["detection_p99_seconds"])
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
        if row["false_evictions_in_window"] != 0:
            failures.append(
                f"mesh n={size}: {row['false_evictions_in_window']} false "
                "evictions on a clean network"
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
            ("liveness frames/node", "liveness_frames_per_node_per_sec"),
        ):
            before = float(_row(baseline, size, "baseline")[key])
            after = float(_row(current, size, "current")[key])
            ratio = after / before if before > 0 else float("inf")
            status = "ok" if ratio <= BASELINE_TOLERANCE else "REGRESSED"
            print(
                f"mesh {label} at n={size}: {before:.3f} -> {after:.3f} "
                f"({ratio:.2f}x, ceiling {BASELINE_TOLERANCE:.2f}x) {status}"
            )
            if ratio > BASELINE_TOLERANCE:
                failures.append(
                    f"mesh {label} at n={size} regressed: "
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
