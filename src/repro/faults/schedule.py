"""Fault schedules: a declarative list of timed fault events.

A schedule is data, so experiments can log it, replay it, and hand the
identical fault pattern to the framework and to each baseline — the only
fair way to compare them.  The chaos engine (:mod:`repro.chaos`) relies on
the same property in the other direction: because a schedule is plain
data, a randomly generated one can be layered (:meth:`FaultSchedule.merged`),
persisted (:meth:`FaultSchedule.to_json`), delta-debugged down to a minimal
subsequence, and replayed bit-for-bit from a repro artifact.

Beyond the original crash/partition vocabulary, the schedule speaks the
gray-failure and message-adversity dialect Section 4's "crash at the worst
moment" patterns need:

* ``slowdown`` / ``restore_speed`` — a server stays up but dispatches
  every handler and timer late (degraded-but-not-dead);
* ``delay_link`` / ``restore_delay`` — a transient per-link latency spike;
* ``duplicate`` — the network may deliver unicasts twice;
* ``reorder`` — bounded FIFO violations on the wire;
* ``crash_at`` — arm a crash that fires the next time the target server
  enters a *named protocol step* (e.g. mid-handoff), the precision tool
  for the paper's worst-moment crash scenarios.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

VALID_KINDS = {
    "crash",  # target: server id
    "recover",  # target: server id
    "partition",  # args: components (list of node-id lists)
    "heal",  # no args
    "cut_link",  # args: a, b, symmetric
    "restore_link",  # args: a, b, symmetric
    "slowdown",  # target: server id; args: delay (seconds of dispatch lag)
    "restore_speed",  # target: server id
    "delay_link",  # args: a, b, extra, symmetric
    "restore_delay",  # args: a, b, symmetric
    "duplicate",  # args: probability (0 disables)
    "reorder",  # args: probability, window (0 disables)
    "crash_at",  # target: server id; args: hook (named protocol step)
}


def _is_str(value: object) -> bool:
    return isinstance(value, str)


def _is_bool(value: object) -> bool:
    return isinstance(value, bool)


def _is_number(value: object) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        float(value)
    except OverflowError:  # an int beyond float range
        return False
    return True


def _is_components(value: object) -> bool:
    return isinstance(value, list) and all(
        isinstance(component, list) and all(map(_is_str, component))
        for component in value
    )


_Check = tuple[Callable[[object], bool], str]
_NODE: _Check = (_is_str, "a node id string")
_BOOL: _Check = (_is_bool, "true or false")
_NUMBER: _Check = (_is_number, "a number")
_LINK = {"a": _NODE, "b": _NODE}
_SYMMETRIC = {"symmetric": _BOOL}

#: per kind: (required arguments, optional arguments), each with the
#: check its JSON value must pass — what :func:`repro.faults.injector.apply`
#: reads, so a validated event can always be applied
_ARGS: dict[str, tuple[dict[str, _Check], dict[str, _Check]]] = {
    "partition": ({"components": (_is_components, "a list of node-id lists")}, {}),
    "cut_link": (_LINK, _SYMMETRIC),
    "restore_link": (_LINK, _SYMMETRIC),
    "delay_link": ({**_LINK, "extra": _NUMBER}, _SYMMETRIC),
    "restore_delay": (_LINK, _SYMMETRIC),
    "duplicate": ({"probability": _NUMBER}, {}),
    "reorder": ({"probability": _NUMBER}, {"window": _NUMBER}),
    "slowdown": ({"delay": _NUMBER}, {}),
    "crash_at": ({"hook": (_is_str, "a protocol step name")}, {}),
}


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault."""

    time: float
    kind: str
    target: Any = None
    args: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not math.isfinite(self.time):
            raise ValueError(f"fault time must be finite (got {self.time!r})")
        if self.time < 0:
            raise ValueError("fault time must be >= 0")

    @classmethod
    def from_json(cls, entry: object) -> "FaultEvent":
        """Rebuild one event from its :meth:`FaultSchedule.to_json` entry.

        The entry is untrusted input (a repro artifact, a control-channel
        command): a malformed entry, an unknown kind, a non-finite or
        negative time, or an argument the applier could not use raises
        ``ValueError``.
        """
        if not isinstance(entry, dict):
            raise ValueError("entry is not an object")
        try:
            time = float(entry["time"])
            kind = entry["kind"]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"entry is malformed: {exc!r}") from exc
        if not isinstance(kind, str):
            raise ValueError(f"unknown fault kind {kind!r}")
        args = entry.get("args") or {}
        if not isinstance(args, dict):
            raise ValueError("args must be an object")
        required, optional = _ARGS.get(kind, ({}, {}))
        for name, (check, what) in required.items():
            if name not in args or not check(args[name]):
                raise ValueError(f"{kind} needs {name}: {what}")
        for name, (check, what) in optional.items():
            if name in args and not check(args[name]):
                raise ValueError(f"{kind}'s {name} must be {what}")
        return cls(time=time, kind=kind, target=entry.get("target"), args=args)

    def key(self) -> tuple:
        """A stable identity used for sorting and shrinking."""
        return (
            self.time,
            self.kind,
            str(self.target),
            tuple(sorted((k, json.dumps(v, sort_keys=True)) for k, v in self.args.items())),
        )


@dataclass
class FaultSchedule:
    """An ordered collection of fault events."""

    events: list[FaultEvent] = field(default_factory=list)

    def add(self, time: float, kind: str, target: Any = None, **args) -> "FaultSchedule":
        self.events.append(FaultEvent(time=time, kind=kind, target=target, args=args))
        return self

    def crash(self, time: float, server: str) -> "FaultSchedule":
        return self.add(time, "crash", server)

    def recover(self, time: float, server: str) -> "FaultSchedule":
        return self.add(time, "recover", server)

    def partition(self, time: float, *components) -> "FaultSchedule":
        return self.add(time, "partition", components=[list(c) for c in components])

    def heal(self, time: float) -> "FaultSchedule":
        return self.add(time, "heal")

    def cut_link(self, time: float, a, b, symmetric: bool = True) -> "FaultSchedule":
        return self.add(time, "cut_link", a=a, b=b, symmetric=symmetric)

    def restore_link(self, time: float, a, b, symmetric: bool = True) -> "FaultSchedule":
        return self.add(time, "restore_link", a=a, b=b, symmetric=symmetric)

    def slowdown(self, time: float, server: str, delay: float) -> "FaultSchedule":
        return self.add(time, "slowdown", server, delay=delay)

    def restore_speed(self, time: float, server: str) -> "FaultSchedule":
        return self.add(time, "restore_speed", server)

    def delay_link(
        self, time: float, a, b, extra: float, symmetric: bool = True
    ) -> "FaultSchedule":
        return self.add(time, "delay_link", a=a, b=b, extra=extra, symmetric=symmetric)

    def restore_delay(self, time: float, a, b, symmetric: bool = True) -> "FaultSchedule":
        return self.add(time, "restore_delay", a=a, b=b, symmetric=symmetric)

    def duplicate(self, time: float, probability: float) -> "FaultSchedule":
        return self.add(time, "duplicate", probability=probability)

    def reorder(
        self, time: float, probability: float, window: float = 0.05
    ) -> "FaultSchedule":
        return self.add(time, "reorder", probability=probability, window=window)

    def crash_at(self, time: float, server: str, hook: str) -> "FaultSchedule":
        """Arm a crash that fires when ``server`` next enters the named
        protocol step (see ``repro.core.server.CRASH_HOOKS``)."""
        return self.add(time, "crash_at", server, hook=hook)

    def sorted_events(self) -> list[FaultEvent]:
        return sorted(self.events, key=FaultEvent.key)

    def crashes(self) -> list[FaultEvent]:
        return [e for e in self.events if e.kind == "crash"]

    def kinds(self) -> frozenset[str]:
        """The set of fault kinds this schedule contains (oracles use it to
        decide which invariants apply to a run)."""
        return frozenset(e.kind for e in self.events)

    def __len__(self) -> int:
        return len(self.events)

    def shifted(self, offset: float) -> "FaultSchedule":
        """The same schedule delayed by ``offset`` seconds (e.g. to skip a
        warm-up phase)."""
        return FaultSchedule(
            events=[
                FaultEvent(
                    time=e.time + offset, kind=e.kind, target=e.target, args=e.args
                )
                for e in self.events
            ]
        )

    def merged(self, other: "FaultSchedule") -> "FaultSchedule":
        """The time-sorted union of this schedule and ``other`` — how the
        chaos generator layers independent fault processes (crashes +
        partitions + gray failures) into one run."""
        return FaultSchedule(
            events=sorted(self.events + other.events, key=FaultEvent.key)
        )

    # ------------------------------------------------------------------
    # persistence (chaos repro artifacts)
    # ------------------------------------------------------------------
    def to_json(self) -> list[dict]:
        """A JSON-friendly dump; round-trips through :meth:`from_json`."""
        return [
            {
                "time": event.time,
                "kind": event.kind,
                "target": event.target,
                "args": event.args,
            }
            for event in self.sorted_events()
        ]

    @classmethod
    def from_json(cls, data: list[dict]) -> "FaultSchedule":
        """Rebuild a schedule from :meth:`to_json` output, validating each
        entry with :meth:`FaultEvent.from_json` (errors name the index)."""
        if not isinstance(data, list):
            raise ValueError(f"schedule JSON must be a list (got {type(data).__name__})")
        events: list[FaultEvent] = []
        for index, entry in enumerate(data):
            try:
                events.append(FaultEvent.from_json(entry))
            except ValueError as exc:
                raise ValueError(f"schedule entry {index}: {exc}") from exc
        return cls(events=events)


__all__ = ["FaultEvent", "FaultSchedule", "VALID_KINDS"]
