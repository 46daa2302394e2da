"""Wire payloads exchanged by the GCS protocol.

All payloads are small frozen dataclasses, each declared a wire type by
``@wire(type_id)``; the hot ones also declare a packed layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.gcs.view import ViewId
from repro.sim.topology import NodeId
from repro.wiretypes import wire

#: packed layout shared by both multicast requests
_MCAST = "group:str8 request_id:value payload:value"


@wire(2, 17, "origin:str8 incarnation:u32 counter:u32")
@dataclass(frozen=True, slots=True)
class RequestId:  # repro-lint: allow(P201) — id helper carried inside payloads, not dispatched
    """Globally unique id of one multicast request.

    ``origin`` is the daemon or client that created the message,
    ``incarnation`` distinguishes restarts of the same node, and
    ``counter`` increases per origin — so per-origin dedup can keep just
    the highest counter seen.
    """

    origin: NodeId
    incarnation: int
    counter: int

    def _key(self) -> tuple:
        return (str(self.origin), self.incarnation, self.counter)

    def __lt__(self, other: "RequestId") -> bool:
        return self._key() < other._key()


# ---------------------------------------------------------------------------
# failure detection
# ---------------------------------------------------------------------------


@wire(
    4,
    15,
    "sender:str8 incarnation:u32 view_counter:u32 delivered_upto:u32 config_view_id:value",
)
@dataclass(frozen=True, slots=True)
class Heartbeat:
    """The failure detector's liveness message: its fields are the
    :meth:`~repro.gcs.failure_detector.DetectorHost.liveness_header` of the
    sender, so every heartbeat reports the sender's delivery point."""

    sender: NodeId
    incarnation: int
    view_counter: int
    config_view_id: ViewId | None = None
    #: how many messages of ``config_view_id`` the sender has delivered
    #: (see ``GcsDaemon._stable_point``)
    delivered_upto: int = 0


# ---------------------------------------------------------------------------
# total order
# ---------------------------------------------------------------------------


@wire(5, 19, _MCAST)
@dataclass(frozen=True, slots=True)
class OrderRequest:
    """Ask the configuration's sequencer to order one group multicast."""

    request_id: RequestId
    group: str
    payload: Any


@wire(6, 20, "seq:u32 config_view_id:value request:value")
@dataclass(frozen=True, slots=True)
class Sequenced:  # repro-lint: allow(P201) — travels inside batches, installs and sync replies, not dispatched
    """A multicast stamped with its position in the configuration's total
    order; the sequencer disseminates it to all configuration members
    inside a :class:`SequencedBatch`."""

    config_view_id: ViewId
    seq: int
    request: OrderRequest


@wire(7, 21, "messages:tuple16.count config_view_id:value messages:tuple16.items")
@dataclass(frozen=True, slots=True)
class SequencedBatch:
    """A window's worth of sequenced multicasts disseminated as one wire
    message (sequencer batching).

    Each contained :class:`Sequenced` carries its own ``config_view_id``
    and sequence number, so a receiver simply unpacks the batch into its
    holdback buffer; entries stamped by a configuration the receiver has
    already left are ignored per-entry, which is what makes a batch split
    across a view change safe."""

    config_view_id: ViewId
    messages: tuple[Sequenced, ...]


@wire(8)
@dataclass(frozen=True, slots=True)
class NackSeqs:
    """Member -> sequencer: I hold a gap in the configuration's sequence
    (a Sequenced message was lost on the wire); please retransmit."""

    config_view_id: ViewId
    seqs: tuple[int, ...]


@wire(9)
@dataclass(frozen=True, slots=True)
class ResyncRequired:
    """Sequencer -> member: the sequence gap you NACKed was pruned from the
    retransmission buffer, so it can never be filled in place.  The member
    abandons the configuration (resetting to a fresh singleton view, like a
    recovery but keeping its group intents and pending requests) and merges
    back through the ordinary view-formation path; the messages it missed
    are gone for it — exactly a rejoin, repaired by the application-level
    state exchange that every join triggers."""

    config_view_id: ViewId


# ---------------------------------------------------------------------------
# membership / view formation
# ---------------------------------------------------------------------------


@wire(3)
@dataclass(frozen=True, slots=True)
class AttemptId:  # repro-lint: allow(P201) — id helper carried inside payloads, not dispatched
    """Identifies one view-formation attempt: ``(counter, coordinator)``."""

    counter: int
    coordinator: NodeId

    def _key(self) -> tuple:
        return (self.counter, str(self.coordinator))

    def __lt__(self, other: "AttemptId") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "AttemptId") -> bool:
        return self._key() <= other._key()


@wire(10)
@dataclass(frozen=True, slots=True)
class Propose:
    """Coordinator -> participants: start forming a view with ``members``."""

    attempt: AttemptId
    members: tuple[NodeId, ...]


@wire(11)
@dataclass(frozen=True, slots=True)
class ProposeNack:
    """Participant -> coordinator: your attempt counter is stale; retry
    with a counter above ``view_counter``."""

    attempt: AttemptId
    view_counter: int


@wire(12)
@dataclass(frozen=True, slots=True)
class SyncReply:
    """Participant -> coordinator: my state for the flush round.

    * ``config_view_id`` — the configuration I am (was) in; virtual
      synchrony is enforced among members reporting the same value.
    * ``sequenced`` — every sequenced message of that configuration I have
      received, keyed by sequence number.
    * ``unsequenced`` — my own requests not yet seen sequenced (the
      coordinator re-sequences them so they are not lost).
    * ``my_groups`` — the groups I currently belong to (authoritative for
      me; the coordinator merges these into the new group map).
    * ``delivered_counters`` — per-origin highest delivered request
      counter (merged by max; used for duplicate suppression).
    * ``view_counter`` — highest view counter I have seen.
    """

    attempt: AttemptId
    sender: NodeId
    config_view_id: ViewId
    sequenced: dict[int, Sequenced]
    unsequenced: tuple[OrderRequest, ...]
    my_groups: tuple[str, ...]
    delivered_counters: dict[tuple, tuple]
    view_counter: int
    incarnation: int = 0


@wire(13)
@dataclass(frozen=True, slots=True)
class Install:
    """Coordinator -> participants: the new view, plus everything each
    surviving prior configuration must deliver before switching.

    ``per_config_tail`` maps a prior configuration's view id to the ordered
    list of that configuration's messages (the union of everything any of
    its surviving members received, followed by re-sequenced orphans).  A
    participant delivers the not-yet-delivered suffix for *its own* prior
    configuration, which realizes virtual synchrony.
    """

    attempt: AttemptId
    view_id: ViewId
    members: tuple[NodeId, ...]
    per_config_tail: dict[ViewId, tuple[Sequenced, ...]]
    group_map: dict[str, tuple[NodeId, ...]]
    delivered_counters: dict[tuple, tuple]
    member_incarnations: dict = field(default_factory=dict)
    orphans: tuple[OrderRequest, ...] = ()


# ---------------------------------------------------------------------------
# client access
# ---------------------------------------------------------------------------


@wire(14, 22, _MCAST)
@dataclass(frozen=True, slots=True)
class ClientMcast:
    """Client -> contact daemon: inject a group multicast into the total
    order on my behalf (the GCS's open-group property)."""

    request_id: RequestId
    group: str
    payload: Any


@wire(15, 16, "request_id:value")
@dataclass(frozen=True, slots=True)
class ClientAck:
    """Contact daemon -> client: your message was accepted for ordering."""

    request_id: RequestId


__all__ = [
    "NackSeqs",
    "PtpData",
    "AttemptId",
    "ClientAck",
    "ClientMcast",
    "Heartbeat",
    "Install",
    "OrderRequest",
    "Propose",
    "ProposeNack",
    "RequestId",
    "ResyncRequired",
    "Sequenced",
    "SequencedBatch",
    "SyncReply",
]


@wire(16)
@dataclass(frozen=True, slots=True)
class PtpData:
    """A point-to-point application payload carried outside the total order
    (used for server responses to clients and for direct handoffs)."""

    payload: Any
