"""The replicated unit database (Section 3.1).

One :class:`UnitDatabase` instance exists per content unit per server.
It "keeps track of the sessions that exist for a particular content unit,
the allocation of servers to these sessions, and session context
information as periodically propagated by each primary."

Consistency is inherited from the GCS: every mutation is driven either by
a totally ordered content-group message or by an agreed view event, and
every mutator is deterministic — so all members of the content group hold
identical databases at equivalent points of the total order (the property
Section 3.4 uses to reallocate without extra communication).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.context import ContextSnapshot
from repro.sim.topology import NodeId
from repro.wiretypes import wire


@wire(19)
@dataclass(frozen=True, slots=True)
class SessionRecord:
    """One session's entry in the unit database."""

    session_id: str
    client_id: NodeId
    unit_id: str
    params: object
    primary: NodeId | None
    backups: tuple[NodeId, ...]
    snapshot: ContextSnapshot

    def allocation(self) -> tuple[NodeId | None, tuple[NodeId, ...]]:
        return self.primary, self.backups


class UnitDatabase:
    """Sessions, allocations, and propagated contexts of one content unit."""

    def __init__(self, unit_id: str) -> None:
        self.unit_id = unit_id
        self._sessions: dict[str, SessionRecord] = {}

    # ------------------------------------------------------------------
    # mutations (must only be called from deterministic, agreed contexts)
    # ------------------------------------------------------------------
    def add_session(
        self,
        session_id: str,
        client_id: NodeId,
        params: object,
        snapshot: ContextSnapshot,
    ) -> SessionRecord:
        record = SessionRecord(
            session_id=session_id,
            client_id=client_id,
            unit_id=self.unit_id,
            params=params,
            primary=None,
            backups=(),
            snapshot=snapshot,
        )
        self._sessions[session_id] = record
        return record

    def remove_session(self, session_id: str) -> None:
        self._sessions.pop(session_id, None)

    def set_allocation(
        self, session_id: str, primary: NodeId | None, backups: tuple[NodeId, ...]
    ) -> None:
        record = self._sessions.get(session_id)
        if record is None:
            return
        self._sessions[session_id] = replace(
            record, primary=primary, backups=tuple(backups)
        )

    def apply_propagation(self, session_id: str, snapshot: ContextSnapshot) -> bool:
        """Adopt a propagated snapshot if it is fresher; returns whether
        the database changed."""
        record = self._sessions.get(session_id)
        if record is None:
            return False
        if snapshot.freshness_key() <= record.snapshot.freshness_key():
            return False
        # spelled out: this runs once per propagation per replica, and
        # ``dataclasses.replace`` costs several times the constructor
        self._sessions[session_id] = SessionRecord(
            session_id=record.session_id,
            client_id=record.client_id,
            unit_id=record.unit_id,
            params=record.params,
            primary=record.primary,
            backups=record.backups,
            snapshot=snapshot,
        )
        return True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, session_id: str) -> SessionRecord | None:
        return self._sessions.get(session_id)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    def __len__(self) -> int:
        return len(self._sessions)

    def session_ids(self) -> list[str]:
        """All session ids, sorted — iteration order is part of the
        deterministic-allocation contract."""
        return sorted(self._sessions)

    def records(self) -> list[SessionRecord]:
        return [self._sessions[sid] for sid in self.session_ids()]

    def load_of(self, server: NodeId, backup_weight: float = 0.25) -> float:
        """A server's load: primaries count 1, backups ``backup_weight``
        (backups only record updates; the paper notes their work is
        'merely receiving and recording')."""
        load = 0.0
        for record in self._sessions.values():
            if record.primary == server:
                load += 1.0
            elif server in record.backups:
                load += backup_weight
        return load

    def sessions_of_primary(self, server: NodeId) -> list[str]:
        return [
            sid
            for sid in self.session_ids()
            if self._sessions[sid].primary == server
        ]

    # ------------------------------------------------------------------
    # state exchange (join-type view changes, Section 3.4)
    # ------------------------------------------------------------------
    def snapshot_for_exchange(self) -> dict:
        """A picklable dump sent in a :class:`~repro.core.wire.StateExchange`."""
        return {sid: record for sid, record in self._sessions.items()}

    @staticmethod
    def merge(unit_id: str, dumps: list[dict]) -> "UnitDatabase":
        """Deterministically merge exchanged databases.

        Per session, the record with the freshest snapshot wins (by
        ``freshness_key()``: update counter, then response counter, then
        epoch; ties broken by the record's primary id for full
        determinism).  Allocations are *not* merged — the caller
        recomputes them for the new view.
        """
        merged = UnitDatabase(unit_id)
        best: dict[str, SessionRecord] = {}
        for dump in dumps:
            for session_id, record in dump.items():
                current = best.get(session_id)
                if current is None:
                    best[session_id] = record
                    continue
                key_new = (record.snapshot.freshness_key(), str(record.primary))
                key_old = (current.snapshot.freshness_key(), str(current.primary))
                if key_new > key_old:
                    best[session_id] = record
        merged._sessions = dict(best)
        return merged

    def equals(self, other: "UnitDatabase") -> bool:
        """Structural equality — used by the replica-consistency tests."""
        if self.session_ids() != other.session_ids():
            return False
        for session_id in self.session_ids():
            a = self._sessions[session_id]
            b = other._sessions[session_id]
            if (a.primary, a.backups) != (b.primary, b.backups):
                return False
            if a.snapshot.freshness_key() != b.snapshot.freshness_key():
                return False
        return True


__all__ = ["SessionRecord", "UnitDatabase"]
