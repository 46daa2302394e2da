"""Guard the net fast path: compare a fresh ``BENCH_net_loopback.json``
against the committed one and fail on a throughput regression.

The bench run overwrites the JSON in place, so CI copies the committed
file aside first, runs the benchmark, then invokes this script::

    cp BENCH_net_loopback.json bench-baseline.json
    python -m pytest benchmarks/bench_net_loopback.py -q
    python benchmarks/check_net_regression.py --baseline bench-baseline.json

Three metrics are guarded — raw codec+socket ``frames_per_second`` and
the compiled codec's ``encodes_per_second`` / ``decodes_per_second`` on
the hot envelope — each with a 20% tolerance to absorb runner-to-runner
noise.  The live cluster's
``messages_per_second`` is deliberately not: on that workload it is the
heartbeat timer (3 nodes x 2 peers x 125 heartbeats/s = 750, see
``bench/README.md`` finding 3), so it cannot tell a slower transport
from a faster one; the stack benchmark (``python -m bench run``) measures
the live path instead.  Latency is not gated here either: wall-clock
latency on shared CI runners is too noisy for a hard gate and is tracked
through the committed JSON diff.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: fresh value must reach this fraction of the committed value
TOLERANCE = 0.80

#: (label, dotted path into the results) of each guarded metric
GUARDED = (
    ("raw frame throughput", "raw_frame_throughput.frames_per_second"),
    ("codec encode rate", "codec.fast.encodes_per_second"),
    ("codec decode rate", "codec.fast.decodes_per_second"),
)


def _metric(data: dict, path: str, origin: str) -> float:
    value = data
    try:
        for key in path.split("."):
            value = value[key]
    except (KeyError, TypeError):
        raise SystemExit(f"{origin}: missing {path}") from None
    if not isinstance(value, (int, float)) or value <= 0:
        raise SystemExit(f"{origin}: bad value for {path}: {value!r}")
    return float(value)


def check(baseline: dict, current: dict) -> list[str]:
    """Return one failure line per guarded metric below tolerance."""
    failures = []
    for label, path in GUARDED:
        before = _metric(baseline, path, "baseline")
        after = _metric(current, path, "current")
        ratio = after / before
        status = "ok" if ratio >= TOLERANCE else "REGRESSED"
        print(
            f"{label}: {before:.1f} -> {after:.1f} "
            f"({ratio:.2f}x, floor {TOLERANCE:.2f}x) {status}"
        )
        if ratio < TOLERANCE:
            failures.append(
                f"{label} regressed: {after:.1f} < "
                f"{TOLERANCE:.2f} * {before:.1f}"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        required=True,
        help="copy of the committed BENCH_net_loopback.json",
    )
    parser.add_argument(
        "--current",
        default="BENCH_net_loopback.json",
        help="freshly written benchmark results (default %(default)s)",
    )
    args = parser.parse_args(argv)
    baseline = json.loads(Path(args.baseline).read_text())
    current = json.loads(Path(args.current).read_text())
    failures = check(baseline, current)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
