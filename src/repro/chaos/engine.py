"""The chaos exploration loop: generate → run → check → shrink → persist.

Each iteration derives its own generator RNG and run seed from the root
seed, draws a random layered fault schedule, executes it against a live
cluster, and evaluates the invariant oracles.  On a violation the engine
delta-debugs the schedule down to a minimal failing subsequence and
writes a replayable repro artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.chaos.artifact import load_artifact, write_artifact
from repro.chaos.config import ChaosConfig
from repro.chaos.generator import generate_schedule, resolve_profile
from repro.chaos.runner import RunResult, run_schedule
from repro.chaos.shrink import shrink_events
from repro.faults.schedule import FaultSchedule
from repro.parallel import map_sharded


@dataclass
class IterationOutcome:
    index: int
    run_seed: int
    profile: str
    event_count: int
    result: RunResult
    shrunk: FaultSchedule | None = None
    shrink_runs: int = 0
    artifact_path: str | None = None

    @property
    def failed(self) -> bool:
        return self.result.failed


@dataclass
class ExplorationReport:
    config: ChaosConfig
    root_seed: int
    iterations: list[IterationOutcome] = field(default_factory=list)

    @property
    def violations_found(self) -> int:
        return sum(1 for it in self.iterations if it.failed)

    @property
    def artifacts(self) -> list[str]:
        return [it.artifact_path for it in self.iterations if it.artifact_path]

    def clean_by_profile(self) -> dict[str, tuple[int, int]]:
        """Per profile, in name order: (clean seeds, seeds run)."""
        counts: dict[str, tuple[int, int]] = {}
        for it in self.iterations:
            clean, total = counts.get(it.profile, (0, 0))
            counts[it.profile] = (clean + (not it.failed), total + 1)
        return dict(sorted(counts.items()))

    def summary(self) -> str:
        """One headline line, then per profile its clean and total seeds."""
        plant = f", plant {self.config.plant}" if self.config.plant else ""
        lines = [
            f"chaos: {len(self.iterations)} iteration(s), seed {self.root_seed}, "
            f"profile {self.config.profile}{plant} -> "
            f"{self.violations_found} violation(s), "
            f"{len(self.artifacts)} artifact(s)"
        ]
        for profile, (clean, total) in self.clean_by_profile().items():
            lines.append(f"  {profile:<10} {clean:4d} of {total:4d} seeds clean")
        return "\n".join(lines)


def _run_seed(root_seed: int, index: int) -> int:
    """Deterministic per-iteration run seed, decoupled from the generator
    stream so adding generator draws never changes the run."""
    return (root_seed * 1_000_003 + index * 8_191 + 1) % (2**31 - 1)


def _explore_iteration(task: tuple) -> tuple[IterationOutcome, list[str]]:
    """One full iteration: generate → run → (shrink → persist on failure).

    Module-level and driven by a plain-data task tuple so it can run
    either in-process or inside a worker process (``--workers N``); the
    outcome is identical either way because everything derives from
    ``(config, root seed, index)``.  Returns the outcome plus the
    progress lines describing it (printed by the parent, in index order,
    so parallel output is not interleaved)."""
    config, seed, index, shrink_budget, artifact_dir = task
    lines: list[str] = []
    gen_rng = np.random.default_rng([seed, index])
    profile = resolve_profile(config, index)
    schedule = generate_schedule(gen_rng, config, profile)
    run_seed = _run_seed(seed, index)
    result = run_schedule(config, run_seed, schedule)
    outcome = IterationOutcome(
        index=index,
        run_seed=run_seed,
        profile=profile,
        event_count=len(schedule),
        result=result,
    )
    if not result.failed:
        lines.append(
            f"[{index}] {profile:<10} {len(schedule):3d} events  "
            f"{result.responses:5d} responses  ok"
        )
        return outcome, lines

    names = ", ".join(sorted(result.oracle_names()))
    lines.append(
        f"[{index}] {profile:<10} {len(schedule):3d} events  "
        f"VIOLATION ({names}) — shrinking..."
    )
    target = sorted(result.oracle_names())[0]

    def still_fails(events) -> bool:
        rerun = run_schedule(config, run_seed, FaultSchedule(events=list(events)))
        return target in rerun.oracle_names()

    shrunk_events, runs = shrink_events(
        schedule.sorted_events(), still_fails, budget=shrink_budget
    )
    shrunk = FaultSchedule(events=shrunk_events)
    final = run_schedule(config, run_seed, shrunk)
    outcome.shrunk = shrunk
    outcome.shrink_runs = runs
    lines.append(
        f"    shrunk {len(schedule)} -> {len(shrunk)} events "
        f"in {runs} re-runs (oracle: {target})"
    )
    # The artifact must describe ONE actual failing execution — schedule,
    # violations, and (live) frame log all from the same run.  Sim runs
    # are deterministic so `final` always fails; a live re-run can come
    # up clean (wall-clock variance), in which case the artifact keeps
    # the original unshrunk failure rather than mixing the two.
    if final.failed:
        artifact_schedule, artifact_result = shrunk, final
    else:
        artifact_schedule, artifact_result = schedule, result
        lines.append(
            "    shrunk schedule did not fail on re-run; "
            "persisting the original schedule"
        )
    if artifact_dir is not None:
        path = Path(artifact_dir) / f"chaos-{seed}-{index}.json"
        write_artifact(
            path,
            config=config,
            seed=run_seed,
            schedule=artifact_schedule,
            violations=artifact_result.violations,
            profile=profile,
            original_event_count=len(schedule),
            shrink_runs=runs,
            mode=artifact_result.mode,
            trace_digest=(
                artifact_result.digest if artifact_result.replay_log else None
            ),
            replay_log=artifact_result.replay_log,
        )
        outcome.artifact_path = str(path)
        lines.append(f"    artifact: {path}")
    return outcome, lines


def explore(
    config: ChaosConfig,
    seed: int,
    iterations: int,
    artifact_dir: str | Path | None = None,
    shrink_budget: int = 48,
    echo=None,
    workers: int = 1,
) -> ExplorationReport:
    """Run the exploration loop; returns the full report.

    ``echo`` (e.g. ``print``) receives one progress line per iteration.
    ``workers > 1`` shards the (independent) iterations across processes;
    the report is merged ordered by iteration index, never by completion,
    so the result — including every ``trace_digest`` — is identical to a
    serial run.
    """
    say = echo or (lambda _line: None)
    report = ExplorationReport(config=config, root_seed=seed)
    tasks = [
        (config, seed, index, shrink_budget,
         str(artifact_dir) if artifact_dir is not None else None)
        for index in range(iterations)
    ]
    if workers <= 1:
        # lazy in-process loop: progress lines stream as iterations finish
        results = (_explore_iteration(task) for task in tasks)
    else:
        results = map_sharded(_explore_iteration, tasks, workers=workers)
    for outcome, lines in results:
        report.iterations.append(outcome)
        for line in lines:
            say(line)
    return report


def replay(artifact: str | Path | dict) -> tuple[RunResult, list[dict], bool]:
    """Re-run an artifact (its path, or what :func:`load_artifact` made of
    it) exactly.

    Returns ``(result, recorded_violations, reproduced)`` where
    ``reproduced`` is true when every recorded oracle fired again.

    Sim artifacts re-run from ``(config, seed, schedule)``.  Live
    artifacts carry their recorded ingress frame log, so replay is a
    pure-simulation re-execution — no sockets, no wall-clock — and
    ``reproduced`` additionally requires the trace digest to match the
    recorded one bit-for-bit.
    """
    if not isinstance(artifact, dict):
        artifact = load_artifact(artifact)
    if artifact.get("replay_log"):
        from repro.chaos.live import replay_live

        result = replay_live(
            artifact["config"],
            artifact["seed"],
            artifact["schedule"],
            artifact["replay_log"],
        )
    else:
        result = run_schedule(
            artifact["config"], artifact["seed"], artifact["schedule"]
        )
    recorded = artifact["violations"]
    recorded_oracles = {v["oracle"] for v in recorded}
    reproduced = bool(recorded_oracles) and recorded_oracles <= result.oracle_names()
    if artifact.get("trace_digest"):
        reproduced = reproduced and result.digest == artifact["trace_digest"]
    return result, recorded, reproduced


__all__ = ["ExplorationReport", "IterationOutcome", "explore", "replay"]
