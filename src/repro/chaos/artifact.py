"""Repro artifacts: a found failure as a self-contained JSON file.

An artifact carries everything a deterministic re-run needs — the chaos
config, the run seed, and the (shrunk) schedule — plus the violations it
produced, so ``python -m repro chaos --replay <file>`` re-triggers the
identical oracle failure with no other context.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.chaos.config import ChaosConfig
from repro.chaos.oracles import Violation
from repro.faults.schedule import FaultSchedule

FORMAT = "repro-chaos/1"


def write_artifact(
    path: str | Path,
    *,
    config: ChaosConfig,
    seed: int,
    schedule: FaultSchedule,
    violations: list[Violation],
    profile: str,
    original_event_count: int,
    shrink_runs: int,
    mode: str = "sim",
    trace_digest: str | None = None,
    replay_log: str | None = None,
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "format": FORMAT,
        "seed": seed,
        "profile": profile,
        "config": config.to_json(),
        "schedule": schedule.to_json(),
        "violations": [v.to_json() for v in violations],
        "original_event_count": original_event_count,
        "shrunk_event_count": len(schedule),
        "shrink_runs": shrink_runs,
    }
    if mode != "sim":
        # live artifacts additionally carry the recorded ingress frame
        # log and the trace digest it must reproduce: `--replay` of a
        # live failure is a pure-sim re-execution checked bit-for-bit
        payload["mode"] = mode
        if trace_digest is not None:
            payload["trace_digest"] = trace_digest
        if replay_log is not None:
            payload["replay_log"] = replay_log
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_artifact(path: str | Path) -> dict:
    """Parse and validate an artifact; returns a dict with ``config``
    (:class:`ChaosConfig`), ``seed``, ``schedule`` (:class:`FaultSchedule`),
    the recorded ``violations`` (as plain dicts), ``profile``, ``mode`` and,
    for a live run, its ``trace_digest`` and ``replay_log``.  Every one of
    them is checked here, so a malformed file is refused before it runs."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or data.get("format") != FORMAT:
        raise ValueError(
            f"{path} is not a {FORMAT} artifact (format={data.get('format')!r})"
            if isinstance(data, dict)
            else f"{path} is not a JSON object"
        )
    try:
        seed = int(data["seed"])
        config = ChaosConfig.from_json(data["config"])
        schedule = FaultSchedule.from_json(data["schedule"])
        violations = _violations(data.get("violations", []))
        text = {key: _text(data, key) for key in ("profile", "trace_digest", "replay_log")}
        mode = data.get("mode", "sim")
        if mode not in ("sim", "live"):
            raise ValueError(f"mode must be 'sim' or 'live', not {mode!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed chaos artifact {path}: {exc}") from exc
    return {
        "seed": seed,
        "config": config,
        "schedule": schedule,
        "violations": violations,
        "mode": mode,
        **text,
    }


def _violations(entries: object) -> list[dict]:
    """The recorded violations, each as :meth:`Violation.to_json` wrote it."""
    if not isinstance(entries, list):
        raise ValueError(f"violations must be a list, not {entries!r}")
    for i, entry in enumerate(entries):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("oracle"), str)
            and isinstance(entry.get("session_id"), (str, type(None)))
            and isinstance(entry.get("detail"), dict)
        ):
            raise ValueError(
                f"violations entry {i} is not an oracle, session_id and detail: {entry!r}"
            )
    return entries


def _text(data: dict, key: str) -> str | None:
    value = data.get(key)
    if value is not None and not isinstance(value, str):
        raise ValueError(f"{key} must be a string, not {value!r}")
    return value


__all__ = ["FORMAT", "load_artifact", "write_artifact"]
