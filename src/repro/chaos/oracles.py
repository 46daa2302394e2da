"""Invariant oracles: what a chaos run must not do.

Each oracle is a function from a finished :class:`RunObservation` to a
list of :class:`Violation`.  Two design rules keep them *sound* (zero
false positives on the real implementation, which is what lets CI treat
any violation as a bug):

1. **Clean windows.**  The paper's guarantees are conditional on the GCS
   being able to agree on membership.  An isolated minority primary
   serving into the void during a partition is an *accepted* risk
   (Section 4), not a bug — so the timing oracles only measure inside the
   parts of the run not covered by any disruption, padded by a
   stabilization margin (see :mod:`repro.metrics.windows`).

2. **Applicability gating.**  Some invariants only hold for some fault
   vocabularies: "no silent lost updates" is a theorem under crash
   faults with a never-crashed witness, but under partitions the client's
   updates may legitimately never reach any survivor.  Each oracle
   declares the fault kinds it tolerates via ``applies_to``, checked
   against ``schedule.kinds()`` and derived from the vocabulary
   (:data:`repro.faults.schedule.KINDS`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.schedule import KINDS
from repro.metrics.session_audit import lost_updates
from repro.metrics.windows import (
    Interval,
    max_silence_within,
    multi_primary_time_within,
)


@dataclass(frozen=True)
class Violation:
    """One oracle failure, JSON-safe for repro artifacts."""

    oracle: str
    session_id: str | None
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "oracle": self.oracle,
            "session_id": self.session_id,
            "detail": self.detail,
        }


@dataclass
class RunObservation:
    """Everything the oracles may look at after a run.

    ``clean_windows`` are absolute-time intervals uncovered by any padded
    disruption; ``serve_start`` is when sessions were streaming and
    ``end`` is the simulation time after the final settle.
    """

    cluster: "object"
    config: "object"
    schedule: "object"
    handles: list
    clean_windows: list[Interval]
    serve_start: float
    end: float


def _responses_within(handle, windows: list[Interval]) -> list:
    out = []
    for response in handle.received:
        for start, end in windows:
            if start <= response.time <= end:
                out.append(response)
                break
    return out


# ----------------------------------------------------------------------
# the oracles
# ----------------------------------------------------------------------
def check_gcs_spec(obs: RunObservation) -> list[Violation]:
    """The GCS safety spec (self-inclusion, monotonic views, total order,
    virtual synchrony, at-most-once) must hold unconditionally — one
    violation per failed property.  Causality is argued from the single
    total order and not yet checked."""
    return [
        Violation("gcs-spec", None, {"property": name, "error": error})
        for name, error in obs.cluster.monitor.failed_properties().items()
    ]


def check_unique_primary(obs: RunObservation) -> list[Violation]:
    """At most one server holds the primary role inside clean windows."""
    out = []
    for handle in obs.handles:
        overlap = multi_primary_time_within(
            obs.cluster, handle.session_id, obs.clean_windows
        )
        if overlap > obs.config.overlap_tolerance:
            out.append(
                Violation(
                    "unique-primary",
                    handle.session_id,
                    {"overlap_time": round(overlap, 4)},
                )
            )
    return out


def check_dual_sender(obs: RunObservation) -> list[Violation]:
    """The client never *receives* interleaved streams from two servers
    inside clean windows (the client-visible uniqueness guarantee)."""
    out = []
    for handle in obs.handles:
        received = _responses_within(handle, obs.clean_windows)
        total = 0.0
        for earlier, later in zip(received, received[1:]):
            dt = later.time - earlier.time
            if later.sender != earlier.sender and dt <= 0.3:
                total += dt
        if total > obs.config.overlap_tolerance:
            out.append(
                Violation(
                    "dual-sender",
                    handle.session_id,
                    {"interleaved_time": round(total, 4)},
                )
            )
    return out


def check_responsiveness(obs: RunObservation) -> list[Violation]:
    """No response silence longer than ``max_gap`` inside clean windows.

    This is the oracle that catches stalls-without-crashes: a successor
    stuck awaiting a handoff that will never come is alive, holds the
    role, and says nothing."""
    out = []
    for handle in obs.handles:
        times = [r.time for r in handle.received]
        gap = max_silence_within(times, obs.clean_windows)
        if gap > obs.config.max_gap:
            out.append(
                Violation(
                    "responsiveness",
                    handle.session_id,
                    {"max_gap": round(gap, 4), "bound": obs.config.max_gap},
                )
            )
    return out


def check_silent_lost_updates(obs: RunObservation) -> list[Violation]:
    """Every update the client believes was sent survives on some live
    server (applies only when no partition-class fault ran: with full
    session groups and a never-crashed spare, crash faults alone cannot
    lose a delivered update).

    Updates the client *knows* failed (send-failure callback) are not
    silent losses and are excluded."""
    out = []
    for handle in obs.handles:
        lost = lost_updates(obs.cluster, handle)
        if lost <= 0:
            continue
        # counters in (update_counter - lost, update_counter] are the
        # missing tail; known-failed sends inside it were reported to the
        # client and do not count as silent
        tail_start = handle.update_counter - lost
        known_failed = sum(
            1 for c in handle.failed_update_counters if c > tail_start
        )
        silent = lost - known_failed
        if silent > 0:
            out.append(
                Violation(
                    "silent-lost-updates",
                    handle.session_id,
                    {"lost": lost, "known_failed": known_failed, "silent": silent},
                )
            )
    return out


def check_convergence(obs: RunObservation) -> list[Violation]:
    """After healing everything and settling, each session has exactly one
    live primary and it is actually serving (not awaiting a handoff)."""
    out = []
    for handle in obs.handles:
        primaries = obs.cluster.primaries_of(handle.session_id)
        if len(primaries) != 1:
            out.append(
                Violation(
                    "convergence",
                    handle.session_id,
                    {"reason": "primary_count", "primaries": sorted(primaries)},
                )
            )
            continue
        server = obs.cluster.servers[primaries[0]]
        if handle.session_id not in server.serving_sessions():
            out.append(
                Violation(
                    "convergence",
                    handle.session_id,
                    {"reason": "awaiting_handoff", "primary": primaries[0]},
                )
            )
    return out


@dataclass(frozen=True)
class Oracle:
    name: str
    check: "object"
    #: fault kinds this oracle tolerates; None means unconditional
    applies_to: frozenset | None = None

    def applicable(self, kinds: frozenset) -> bool:
        return self.applies_to is None or kinds <= self.applies_to


#: Kinds under which "no silent lost updates" is a hard invariant: those
#: that do not disconnect.
_LOSSLESS = frozenset(name for name, kind in KINDS.items() if not kind.disconnects)

ORACLES = (
    Oracle("gcs-spec", check_gcs_spec),
    Oracle("unique-primary", check_unique_primary),
    Oracle("dual-sender", check_dual_sender),
    Oracle("responsiveness", check_responsiveness),
    Oracle("silent-lost-updates", check_silent_lost_updates, _LOSSLESS),
    Oracle("convergence", check_convergence),
)


def run_oracles(obs: RunObservation) -> list[Violation]:
    """Run every applicable oracle; returns all violations found."""
    kinds = obs.schedule.kinds()
    violations: list[Violation] = []
    for oracle in ORACLES:
        if not oracle.applicable(kinds):
            continue
        violations.extend(oracle.check(obs))
    return violations


__all__ = [
    "ORACLES",
    "Oracle",
    "RunObservation",
    "Violation",
    "run_oracles",
]
