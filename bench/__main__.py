"""``python -m bench run|compare`` — see ``bench/README.md``."""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any

from bench import OUT_DIR, require_repro
from bench.spec import NOMINAL_SECONDS, QUICK_SECONDS, workloads


def _run(args: argparse.Namespace) -> int:
    require_repro()
    from bench import report
    from bench.isolate import run_isolated

    trace = bool(args.trace)
    result = report.envelope(args.seed, trace, args.quick, args.seconds)
    target = Path(args.out) if args.out else OUT_DIR / (
        f"result-{args.seed}{'-trace' if trace else ''}.json"
    )
    if args.append and target.exists():
        result = json.loads(target.read_text())
    run: dict[str, Any] = {"seed": args.seed, "workloads": {}}
    for name in [args.workload] if args.workload else workloads():
        seconds = args.seconds if args.seconds is not None else (
            QUICK_SECONDS if args.quick else NOMINAL_SECONDS[name]
        )
        outcome = run_isolated(name, args.seed, seconds, args.quick, trace)
        outcome["measured_seconds_requested"] = seconds
        report.print_outcome(outcome, trace)
        run["workloads"][name] = outcome
    result["runs"].append(run)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(result, indent=1))
    print(f"\nresult written to {target}")
    # one result line per workload run; the driver runs one workload per
    # invocation and reads the last line of stdout
    for outcome in run["workloads"].values():
        print(report.driver_line(outcome, trace))
    return 0 if all(o["correct"] for o in run["workloads"].values()) else 1


def _compare(args: argparse.Namespace) -> int:
    require_repro()
    from bench.compare import compare

    return compare(args.a, args.b)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the workloads and print every metric")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--workload", choices=workloads(), default=None)
    run.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                     help="traced run: per-layer metrics instead of end-to-end")
    run.add_argument("--quick", action="store_true", help="<= 3 s per workload (self-test)")
    run.add_argument("--seconds", type=float, default=None,
                     help="measure for this long (default: each workload's nominal length)")
    run.add_argument("--out", default=None, help="result file (default bench/out/result-*.json)")
    run.add_argument("--append", action="store_true",
                     help="add this run to an existing --out: how a result set is built")
    run.set_defaults(handler=_run)
    compare = commands.add_parser("compare", help="judge result set B against A")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(handler=_compare)
    args = parser.parse_args(argv)
    return int(args.handler(args))


if __name__ == "__main__":
    raise SystemExit(main())
