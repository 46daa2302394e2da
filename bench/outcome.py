"""What one workload run reports."""

from __future__ import annotations

import math
import resource
from dataclasses import dataclass, field
from typing import Any


@dataclass
class Outcome:
    """Metrics, failure accounting and correctness checks of one run.

    ``metrics`` maps a metric name to ``{"value", "unit"}`` plus, beside
    every percentile, the sample count ``n`` (and ``beyond``: how many
    samples lie past the percentile).  ``checks`` maps a correctness check
    to whether it held; one failed check fails the run.
    """

    workload: str
    metrics: dict[str, dict[str, Any]] = field(default_factory=dict)
    layers: dict[str, dict[str, Any]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str, **extra: Any) -> None:
        self.metrics[name] = {"value": value, "unit": unit, **extra}

    def layer(self, name: str, value: float, unit: str, **extra: Any) -> None:
        self.layers[name] = {"value": value, "unit": unit, **extra}

    def check(self, name: str, held: bool, note: str = "") -> None:
        self.checks[name] = bool(held)
        if not held:
            self.notes.append(f"check failed: {name}{': ' + note if note else ''}")

    @property
    def correct(self) -> bool:
        finite = all(
            isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
            for m in self.metrics.values()
        )
        return finite and all(self.checks.values())

    def to_json(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
            "layers": self.layers,
            "checks": self.checks,
            "info": self.info,
            "notes": self.notes,
        }


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
