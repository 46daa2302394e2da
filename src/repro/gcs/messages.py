"""Wire payloads exchanged by the GCS protocol.

All payloads are small frozen dataclasses.  ``size_estimate`` gives the
abstract byte count used by the network accounting (experiment E2 charges
servers for the traffic they process).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.gcs.view import ViewId
from repro.sim.topology import NodeId


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


@dataclass(frozen=True, slots=True)
class Heartbeat:
    sender: NodeId
    incarnation: int
    view_counter: int
    config_view_id: ViewId | None = None


# ---------------------------------------------------------------------------
# SWIM gossip failure detection (membership_mode="gossip"; see gcs/swim.py)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SwimUpdate:  # repro-lint: allow(P201) — carried inside swim payloads, not dispatched
    """One piggybacked membership observation: ``subject`` is in ``status``
    at ordering point ``(incarnation, epoch)``.

    ``incarnation`` is the subject's process incarnation (bumped by the
    runtime on restart); ``epoch`` is the subject's refutation counter
    within that incarnation.  Observations are ordered lexicographically by
    ``(incarnation, epoch)``; at an equal point a stronger status wins
    (dead > suspect > alive), which is what makes dissemination monotone.
    """

    subject: NodeId
    status: int  # 0 = alive, 1 = suspect, 2 = dead (gcs/swim.py constants)
    incarnation: int
    epoch: int


@dataclass(frozen=True, slots=True)
class SwimPing:
    """Direct (``origin=None``) or relayed probe of the receiver.

    A helper relaying an indirect probe stamps ``origin`` with the
    requesting prober so the target's ack can find its way back.
    ``updates`` piggybacks pending gossip."""

    sender: NodeId
    incarnation: int
    view_counter: int
    config_view_id: ViewId | None
    probe_seq: int
    origin: NodeId | None
    updates: tuple[SwimUpdate, ...] = ()


@dataclass(frozen=True, slots=True)
class SwimAck:
    """Probe response.  ``origin`` echoes the ping's origin: a helper
    receiving an ack destined for another prober forwards it verbatim."""

    sender: NodeId
    incarnation: int
    view_counter: int
    config_view_id: ViewId | None
    probe_seq: int
    origin: NodeId | None
    updates: tuple[SwimUpdate, ...] = ()


@dataclass(frozen=True, slots=True)
class SwimPingReq:
    """Prober -> helper: ping ``target`` on my behalf (indirect probe after
    the direct ping timed out; ``probe_seq`` is the prober's sequence)."""

    sender: NodeId
    incarnation: int
    view_counter: int
    config_view_id: ViewId | None
    target: NodeId
    probe_seq: int
    updates: tuple[SwimUpdate, ...] = ()


@dataclass(frozen=True, slots=True)
class SwimDigest:
    """Anti-entropy: the sender's full membership table.  The receiver
    merges it under the update ordering and, when ``reply_requested``,
    answers with its own digest (push-pull), which is what re-converges
    views after a partition heals."""

    sender: NodeId
    incarnation: int
    view_counter: int
    config_view_id: ViewId | None
    entries: tuple[SwimUpdate, ...]
    reply_requested: bool = False


#: the wire vocabulary of the failure detectors: what a daemon's detector
#: consumes, and so what a node must stop hearing to stop believing in a peer
LIVENESS_MESSAGES = (Heartbeat, SwimPing, SwimAck, SwimPingReq, SwimDigest)


# ---------------------------------------------------------------------------
# total order
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class OrderRequest:
    """Ask the configuration's sequencer to order one group multicast."""

    request_id: RequestId
    group: str
    payload: Any
    size_estimate: int = 1


@dataclass(frozen=True, slots=True)
class Sequenced:  # repro-lint: allow(P201) — travels inside batches, installs and sync replies, not dispatched
    """A multicast stamped with its position in the configuration's total
    order; the sequencer disseminates it to all configuration members
    inside a :class:`SequencedBatch`."""

    config_view_id: ViewId
    seq: int
    request: OrderRequest


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

    @property
    def size_estimate(self) -> int:
        return sum(m.request.size_estimate for m in self.messages)


@dataclass(frozen=True, slots=True)
class NackSeqs:
    """Member -> sequencer: I hold a gap in the configuration's sequence
    (a Sequenced message was lost on the wire); please retransmit."""

    config_view_id: ViewId
    seqs: tuple[int, ...]


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


@dataclass(frozen=True, slots=True)
class Propose:
    """Coordinator -> participants: start forming a view with ``members``."""

    attempt: AttemptId
    members: tuple[NodeId, ...]


@dataclass(frozen=True, slots=True)
class ProposeNack:
    """Participant -> coordinator: your attempt counter is stale; retry
    with a counter above ``view_counter``."""

    attempt: AttemptId
    view_counter: int


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


@dataclass(frozen=True, slots=True)
class ClientMcast:
    """Client -> contact daemon: inject a group multicast into the total
    order on my behalf (the GCS's open-group property)."""

    request_id: RequestId
    group: str
    payload: Any
    size_estimate: int = 1


@dataclass(frozen=True, slots=True)
class ClientAck:
    """Contact daemon -> client: your message was accepted for ordering."""

    request_id: RequestId


__all__ = [
    "LIVENESS_MESSAGES",
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
    "SwimAck",
    "SwimDigest",
    "SwimPing",
    "SwimPingReq",
    "SwimUpdate",
    "SyncReply",
]


@dataclass(frozen=True, slots=True)
class PtpData:
    """A point-to-point application payload carried outside the total order
    (used for server responses to clients and for direct handoffs)."""

    payload: Any
