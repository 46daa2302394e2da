"""Runs ONE workload in this process and writes its result as JSON.

``bench.isolate`` starts this module as a subprocess (so a wedged or
ballooning run can be killed without taking the harness with it); tests may
call :func:`run_workload` directly.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from bench import ROOT, require_repro
from bench.context import Progress, RunContext
from bench.stats import calm_level

#: cold starts timed per run (one when ``quick``); ``stats.calm_level`` of
#: them is reported
COLD_STARTS = 8


def cold_start_seconds(workload: str, repeats: int) -> float:
    """Wall seconds a fresh interpreter needs to start and to import the
    stack and the workload (the calm level of ``repeats`` children): the
    part of a cold start that comes before the cluster is built.  (This
    process has the modules cached after its own first import, so only a
    child can pay the price again.)"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    samples = []
    for _ in range(repeats):
        started = time.monotonic()
        subprocess.run(
            [sys.executable, "-c", f"import bench.workloads.{workload}"], env=env, check=True
        )
        samples.append(time.monotonic() - started)
    return calm_level(samples)


def run_workload(
    workload: str, seed: int, seconds: float, quick: bool = False, trace: bool = False,
    progress: Progress | None = None,
) -> dict[str, Any]:
    """Time the cold start of an interpreter that imports the stack, run
    the workload and return its outcome as plain data.

    A traced run first makes the same run untraced: the difference in CPU
    per operation between the two is ``trace.overhead_share``."""
    require_repro()
    module = importlib.import_module(f"bench.workloads.{workload}")
    import_s = cold_start_seconds(workload, 1 if quick else COLD_STARTS)
    progress = progress or Progress()
    progress.start()
    try:
        if not trace:
            out = module.run(RunContext(seed, seconds, quick, None, import_s, progress))
            return out.to_json()
        from bench import layers
        from bench.trace import Tracer

        baseline = module.run(RunContext(seed, seconds, quick, None, import_s))
        tracer = Tracer()
        out = module.run(RunContext(seed, seconds, quick, tracer, import_s, progress))
        plain = baseline.info["cpu_seconds_per_op"]
        traced = out.info["cpu_seconds_per_op"]
        out.layer("trace.overhead_share", (traced - plain) / plain if plain else 0.0, "share",
                  untraced_cpu_s_per_op=plain, traced_cpu_s_per_op=traced)
        layers.fill_missing(out)
        out.info["trace_file"] = layers.write_trace(workload, seed, out, tracer)
        out.info["untraced_reference"] = {
            "seconds": baseline.info.get(
                "measured_seconds", baseline.info.get("reference_seconds")
            ),
            "correct": baseline.correct,
        }
        return out.to_json()
    finally:
        progress.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--quick", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--progress", default=None)
    parser.add_argument("--cpu", type=int, default=None, help="pin this process to one core")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    progress = Progress(Path(args.progress)) if args.progress else None
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.quick), bool(args.trace), progress
    )
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
