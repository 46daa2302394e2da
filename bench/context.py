"""What a workload is handed when it runs."""

from __future__ import annotations

import json
import os
import signal
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


class Progress:
    """Once a second, writes how many operations the run has attempted and
    how many were answered, so that the watchdog can account for a run it
    had to kill: every operation not yet answered counts as failed.

    Driven by ``SIGALRM`` rather than by the workload's own event loop, so
    it keeps reporting when that loop is the thing that hangs."""

    def __init__(self, path: Path | None = None) -> None:
        self.path = path
        self._source: Callable[[], tuple[int, int]] | None = None

    def watch(self, source: Callable[[], tuple[int, int]]) -> None:
        """``source()`` returns ``(attempted, answered)`` so far."""
        self._source = source

    def start(self) -> None:
        if self.path is None:
            return
        self._write(None, None)
        signal.signal(signal.SIGALRM, self._write)
        signal.setitimer(signal.ITIMER_REAL, 1.0, 1.0)

    def stop(self) -> None:
        if self.path is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)

    def _write(self, _signum: Any, _frame: Any) -> None:
        attempted, answered = self._source() if self._source is not None else (0, 0)
        assert self.path is not None
        scratch = self.path.with_suffix(".tmp")
        scratch.write_text(json.dumps({"attempted": attempted, "answered": answered}))
        os.replace(scratch, self.path)


@dataclass
class RunContext:
    """One workload run: its inputs and the harness services around it."""

    seed: int
    seconds: float
    quick: bool = False
    #: a ``bench.trace.Tracer`` for live workloads, any truthy value for
    #: ``sim_chaos``; ``None`` for an untraced (end-to-end) run
    tracer: Any = None
    #: seconds a fresh interpreter needs to start and import the stack
    #: (``worker.cold_start_seconds``), counted into ``setup_s``
    import_s: float = 0.0
    progress: Progress = field(default_factory=Progress)
