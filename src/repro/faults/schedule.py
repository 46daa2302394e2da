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

Each kind is declared once, in :data:`KINDS`, for the validator, the chaos
clean windows and the oracles' partition gate; :mod:`repro.faults.injector`
maps an event to its action.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

#: Named protocol steps at which a ``crash_at`` event can arm a crash; it
#: fires *when the server enters the step*, which is how Section 4's "crash
#: at the worst moment" patterns become directly expressible.
CRASH_HOOKS = (
    "post-promote",  # primary role adopted (session group joined)
    "pre-handoff",  # demoted primary about to send its context
    "post-handoff",  # successor adopted a handed-off context
    "post-update",  # client context update applied, not yet propagated
    "pre-propagate",  # about to multicast a context snapshot
    "mid-exchange",  # own state-exchange snapshot sent, merge pending
)


@dataclass(frozen=True)
class Range:
    """The half-open interval ``[low, high)`` a numeric argument lies in
    (NaN lies in none): the validator and the applier share it."""

    low: float
    high: float

    def __contains__(self, value: float) -> bool:
        return self.low <= value < self.high

    def __str__(self) -> str:
        return f"[{self.low:g}, {self.high:g})"


#: a dispatch lag, an extra link delay or a reorder window, in seconds
DELAY = Range(0.0, math.inf)
#: a duplication or reordering probability
PROBABILITY = Range(0.0, 1.0)


def _is_str(value: object) -> bool:
    return isinstance(value, str)


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


def _within(bounds: Range) -> _Check:
    return (lambda value: _is_number(value) and value in bounds, f"in {bounds}")


_NODE: _Check = (_is_str, "a node id string")
_COMPONENTS = {"components": (_is_components, "a list of node-id lists")}
_LINK = {"a": _NODE, "b": _NODE}
_SYMMETRIC = {"symmetric": (lambda value: isinstance(value, bool), "true or false")}
_PROBABILITY = {"probability": _within(PROBABILITY)}
_DELAY = {"delay": _within(DELAY)}
_EXTRA = {**_LINK, "extra": _within(DELAY)}
_WINDOW = {"window": _within(DELAY)}
_HOOK = {"hook": (lambda value: value in CRASH_HOOKS, f"one of {CRASH_HOOKS}")}


# how a closer is matched to the opener it ends
def _same_server(opener: FaultEvent, closer: FaultEvent) -> bool:
    return closer.target == opener.target


def _same_pair(opener: FaultEvent, closer: FaultEvent) -> bool:
    pair = {opener.args.get("a"), opener.args.get("b")}
    return {closer.args.get("a"), closer.args.get("b")} == pair


def _anywhere(opener: FaultEvent, closer: FaultEvent) -> bool:
    return True


def _at_zero(opener: FaultEvent, closer: FaultEvent) -> bool:
    return float(closer.args.get("probability", 0.0)) <= 0.0


@dataclass(frozen=True)
class FaultKind:
    """One fault kind: all the tree knows of it but how to apply it."""

    #: the arguments, each with the check its JSON value must pass: what
    #: the injector reads, so a validated event can always be applied
    required: dict[str, _Check] = field(default_factory=dict)
    optional: dict[str, _Check] = field(default_factory=dict)
    #: acts on the server its ``target`` names
    on_server: bool = False
    #: opens a disruption, which lasts until the first later ``closer``
    #: event for which ``match(opener, closer)`` holds, or to the heal sweep
    disrupts: bool = False
    closer: str | None = None
    match: Callable[[FaultEvent, FaultEvent], bool] = _anywhere
    #: changes who can reach whom (the partition class Section 4 accepts)
    disconnects: bool = False

    def opens(self, event: FaultEvent) -> bool:
        """Does ``event`` start a disruption?  One that would close its
        own kind's (``duplicate`` at probability 0) does not."""
        return self.disrupts and not (self.closer == event.kind and self.match(event, event))


#: the fault vocabulary: one record per kind
KINDS: dict[str, FaultKind] = {
    "crash": FaultKind(on_server=True, disrupts=True, closer="recover", match=_same_server),
    "recover": FaultKind(on_server=True),
    "partition": FaultKind(_COMPONENTS, disrupts=True, closer="heal", disconnects=True),
    "heal": FaultKind(disconnects=True),
    "cut_link": FaultKind(
        _LINK, _SYMMETRIC, disrupts=True, closer="restore_link", match=_same_pair, disconnects=True
    ),
    "restore_link": FaultKind(_LINK, _SYMMETRIC, disconnects=True),
    "slowdown": FaultKind(
        _DELAY, on_server=True, disrupts=True, closer="restore_speed", match=_same_server
    ),
    "restore_speed": FaultKind(on_server=True),
    "delay_link": FaultKind(
        _EXTRA, _SYMMETRIC, disrupts=True, closer="restore_delay", match=_same_pair
    ),
    "restore_delay": FaultKind(_LINK, _SYMMETRIC),
    "duplicate": FaultKind(_PROBABILITY, disrupts=True, closer="duplicate", match=_at_zero),
    "reorder": FaultKind(_PROBABILITY, _WINDOW, disrupts=True, closer="reorder", match=_at_zero),
    # the trap may fire at any moment until the heal sweep disarms it
    "crash_at": FaultKind(_HOOK, on_server=True, disrupts=True),
}


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault."""

    time: float
    kind: str
    target: Any = None
    args: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
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
        negative time, a missing or mistyped argument, one outside its
        range, or a missing server ``target`` raises ``ValueError`` — so
        the applier never meets a value it would refuse.
        """
        if not isinstance(entry, dict):
            raise ValueError("entry is not an object")
        try:
            time = float(entry["time"])
            kind = entry["kind"]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"entry is malformed: {exc!r}") from exc
        spec = KINDS.get(kind) if isinstance(kind, str) else None
        if spec is None:
            raise ValueError(f"unknown fault kind {kind!r}")
        args = entry.get("args") or {}
        if not isinstance(args, dict):
            raise ValueError("args must be an object")
        for name in spec.required:
            if name not in args:
                raise ValueError(f"{kind} needs {name}")
        for name, (check, what) in {**spec.required, **spec.optional}.items():
            if name in args and not check(args[name]):
                raise ValueError(f"{kind}'s {name} must be {what}")
        target = entry.get("target")
        if spec.on_server and not isinstance(target, str):
            raise ValueError(f"{kind} needs a target: a server id string")
        return cls(time=time, kind=kind, target=target, args=args)

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
        protocol step (one of :data:`CRASH_HOOKS`)."""
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


__all__ = [
    "CRASH_HOOKS", "DELAY", "KINDS", "PROBABILITY", "FaultEvent", "FaultKind", "FaultSchedule",
    "Range",
]
