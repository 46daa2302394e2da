"""Framework-level message payloads.

These ride inside GCS multicasts (ordered) or point-to-point sends
(responses, handoffs), mirroring Section 3.3/3.4 of the paper:

* clients address the **service group** to discover content units,
* a **content group** to start a session,
* the **session group** for everything else;
* only the primary answers, point-to-point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.context import ContextDelta, ContextSnapshot
from repro.sim.topology import NodeId
from repro.wiretypes import wire


def service_group() -> str:
    """The service group's well-known name (clients know it a priori)."""
    return "svc"


def content_group(unit_id: str) -> str:
    return f"content:{unit_id}"


def session_group(session_id: str) -> str:
    """Session group names are computed deterministically from the session
    id, as in the paper ('the group name is computed deterministically by
    each of the servers')."""
    return f"session:{session_id}"


# ---------------------------------------------------------------------------
# client -> service group
# ---------------------------------------------------------------------------


@wire(21)
@dataclass(frozen=True, slots=True)
class ListUnitsRequest:
    client_id: NodeId


@wire(22)
@dataclass(frozen=True, slots=True)
class UnitList:
    """Reply: available units and the content group name for each."""

    units: tuple[tuple[str, str], ...]  # (unit_id, content group name)


# ---------------------------------------------------------------------------
# client -> content group
# ---------------------------------------------------------------------------


@wire(23)
@dataclass(frozen=True, slots=True)
class StartSession:
    client_id: NodeId
    session_id: str
    unit_id: str
    params: Any = None


@wire(24)
@dataclass(frozen=True, slots=True)
class SessionStarted:
    """Primary -> client: your session group is ready."""

    session_id: str
    session_group: str
    primary: NodeId


@wire(25)
@dataclass(frozen=True, slots=True)
class SessionDenied:
    session_id: str
    reason: str


# ---------------------------------------------------------------------------
# client -> session group
# ---------------------------------------------------------------------------


@wire(26)
@dataclass(frozen=True, slots=True)
class ContextUpdate:
    session_id: str
    counter: int
    update: Any


@wire(27)
@dataclass(frozen=True, slots=True)
class EndSession:
    session_id: str


# ---------------------------------------------------------------------------
# server -> server (through groups)
# ---------------------------------------------------------------------------


class _PricedOnce:
    """``Propagate.wire_size``: priced by the codec on the first read and
    kept in the instance's ``__dict__``, where every later read finds it
    without coming here — :func:`functools.cached_property` without its
    lock, which cost twice the pricing itself (two threads racing would
    both store the same number)."""

    def __get__(self, instance: Any, owner: type | None = None) -> Any:
        if instance is None:
            return self
        # imported here: the codec imports this module for its declarations
        from repro.net.codec import frame_size

        size = instance.__dict__["wire_size"] = frame_size(instance)
        return size


@wire(28)
@dataclass(frozen=True)
class Propagate:  # repro-lint: allow(D105) — caches wire_size in its __dict__
    """Primary -> content group: periodic context propagation.

    Carries either a full ``snapshot`` or an incremental ``delta``
    (exactly one is set): the primary prices both contexts and builds the
    one form it ships, the delta only when its frame is strictly smaller
    (the two frames differ only in the context they carry).  Deltas ship
    only the app-state fields changed since the previous propagation epoch;
    a receiver whose record is not at the delta's base epoch ignores it and
    is repaired by the next full snapshot (the primary sends one after
    content view changes and state-exchange merges, and at least every
    ``server.FULL_PROPAGATION_EVERY`` propagations).

    ``wire_size`` is what the codec makes of this message — the bytes
    the load accounting charges the propagation-frequency knob, on both
    runtimes.  A state the codec cannot encode raises
    :class:`~repro.net.codec.UnknownTypeError` here.  It is priced once
    per object, from the codec's field plan and without encoding
    (:func:`~repro.net.codec.frame_size`): the simulator hands the
    sender's object to every receiver, and each one accounts for it.
    The class keeps a ``__dict__`` for that cached size, so it is the one
    wire type without slots."""

    session_id: str
    unit_id: str
    snapshot: ContextSnapshot | None = None
    delta: ContextDelta | None = None

    wire_size = _PricedOnce()


@wire(29)
@dataclass(frozen=True, slots=True)
class SessionEnded:
    """Primary -> content group: drop the session from the unit database."""

    session_id: str
    unit_id: str


@wire(30)
@dataclass(frozen=True, slots=True)
class RebalanceRequest:
    """Anyone -> content group: re-run the deterministic rebalance now.

    The paper's preemptive migration ("the primary server of an on-going
    session may have to change ... preemptively for load balancing
    purposes"): because the request is totally ordered and the unit
    databases are identical, every member computes the same new
    allocation with no further communication; displaced primaries hand
    their exact contexts to their successors."""

    unit_id: str


@wire(31)
@dataclass(frozen=True, slots=True)
class StateExchange:
    """Member -> content group after a join-type view change: my unit
    database, so the merged state can be rebuilt deterministically."""

    unit_id: str
    view_key: tuple
    sender: NodeId
    db_snapshot: dict


# ---------------------------------------------------------------------------
# server -> server / client (point-to-point)
# ---------------------------------------------------------------------------


@wire(32)
@dataclass(frozen=True, slots=True)
class Handoff:
    """Old primary -> new primary during a controlled migration: the exact
    up-to-date context (no uncertainty window)."""

    session_id: str
    unit_id: str
    snapshot: ContextSnapshot


@wire(33)
@dataclass(frozen=True, slots=True)
class ResponseMsg:
    """Primary -> client: one response.

    ``index`` is the application-level position (e.g. frame number), used
    by the client audit to detect duplicates and gaps; ``based_on_update``
    is the context update counter the response was generated under, used
    to detect responses based on stale context; ``uncertain`` marks
    retransmissions from a failover's uncertainty window.
    """

    session_id: str
    index: int
    klass: str
    body: Any
    based_on_update: int
    uncertain: bool = False
    size: int = 1


__all__ = [
    "ContextUpdate",
    "RebalanceRequest",
    "EndSession",
    "Handoff",
    "ListUnitsRequest",
    "Propagate",
    "ResponseMsg",
    "SessionDenied",
    "SessionEnded",
    "SessionStarted",
    "StartSession",
    "StateExchange",
    "UnitList",
    "content_group",
    "service_group",
    "session_group",
]
