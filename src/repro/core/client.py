"""The client library (Section 3.3).

A :class:`ServiceClient` is deliberately thin — availability is the
service's job, not the client's:

* it multicasts a discovery request to the well-known **service group**
  and receives the catalog;
* it multicasts ``start-session`` to a **content group**;
* for the rest of the session it multicasts context updates to the
  **session group** (whose name it computes/learns once) and receives
  responses point-to-point from whoever is currently primary — it never
  tracks which servers those are.

The client records everything it sends and receives, time-stamped; the
audit module (:mod:`repro.metrics.session_audit`) turns those logs into
the paper's risk metrics (lost updates, duplicate / missing / stale
responses, service gaps).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.wire import (
    ContextUpdate,
    EndSession,
    ListUnitsRequest,
    ResponseMsg,
    SessionDenied,
    SessionStarted,
    StartSession,
    UnitList,
    content_group,
    service_group,
    session_group,
)
from repro.gcs.client_api import GcsClient
from repro.gcs.settings import GcsSettings
from repro.sim.network import Network
from repro.sim.topology import NodeId


@dataclass(frozen=True)
class ReceivedResponse:
    """One response as observed by the client."""

    time: float
    sender: NodeId
    index: int
    klass: str
    based_on_update: int
    uncertain: bool
    body: Any = None


@dataclass
class SessionHandle:
    """Client-side state and audit log of one session."""

    session_id: str
    unit_id: str
    client_id: NodeId
    requested_at: float
    started_at: float | None = None
    ended_at: float | None = None
    primary_seen: NodeId | None = None
    denied_reason: str | None = None
    update_counter: int = 0
    updates_sent: list[tuple[float, int, Any]] = field(default_factory=list)
    received: list[ReceivedResponse] = field(default_factory=list)
    last_response_at: float | None = None
    failed_sends: int = 0
    failed_update_counters: list[int] = field(default_factory=list)
    resumed_from: str | None = None

    @property
    def started(self) -> bool:
        return self.started_at is not None

    @property
    def group(self) -> str:
        return session_group(self.session_id)

    def response_indices(self) -> list[int]:
        return [r.index for r in self.received]


class ServiceClient:
    """A client of the highly available service."""

    def __init__(
        self,
        client_id: NodeId,
        network: Network,
        contact_servers: Iterable[NodeId],
        settings: GcsSettings | None = None,
        response_log_cap: int = 200_000,
    ) -> None:
        self.client_id = client_id
        self.gcs = GcsClient(
            client_id, network, contacts=contact_servers, app=self, settings=settings
        )
        self.sim = self.gcs.sim
        self.catalog: dict[str, str] | None = None
        self.sessions: dict[str, SessionHandle] = {}
        self.response_log_cap = response_log_cap
        self._session_counter = itertools.count()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.gcs.start()

    def crash(self) -> None:
        self.gcs.crash()

    def is_up(self) -> bool:
        return self.gcs.is_up()

    # ------------------------------------------------------------------
    # service discovery
    # ------------------------------------------------------------------
    def connect(self) -> None:
        """Ask the service group for the content catalog (asynchronous:
        ``catalog`` fills in when the reply arrives)."""
        self.gcs.mcast(service_group(), ListUnitsRequest(client_id=self.client_id))

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def start_session(self, unit_id: str, params: Any = None) -> SessionHandle:
        """Begin a session on ``unit_id``; returns its handle immediately
        (``handle.started`` flips when the primary's confirmation lands)."""
        session_id = f"{self.client_id}#{next(self._session_counter)}"
        handle = SessionHandle(
            session_id=session_id,
            unit_id=unit_id,
            client_id=self.client_id,
            requested_at=self.sim.now,
        )
        self.sessions[session_id] = handle
        self.gcs.mcast(
            content_group(unit_id),
            StartSession(
                client_id=self.client_id,
                session_id=session_id,
                unit_id=unit_id,
                params=params,
            ),
        )
        return handle

    def resume_session(
        self, old_handle: SessionHandle, params: Any = None
    ) -> SessionHandle:
        """Re-establish service after a total loss (all content replicas
        down long enough for the session to vanish — the paper's
        'availability is impossible' case, E5).

        Starts a *new* session on the same unit; ``params`` lets the
        application resume near where the client left off (e.g. VoD
        ``{"start": last_frame + 1}``).  The old handle is closed and the
        new one records its ancestry for auditing."""
        if old_handle.ended_at is None:
            old_handle.ended_at = self.sim.now
        handle = self.start_session(old_handle.unit_id, params=params)
        handle.resumed_from = old_handle.session_id
        return handle

    def send_update(self, handle: SessionHandle, update: Any) -> int:
        """Send one context update to the session group; returns its
        counter.  The session group's current membership is invisible to
        the client — it just names the group."""
        handle.update_counter += 1
        counter = handle.update_counter
        handle.updates_sent.append((self.sim.now, counter, update))
        self.gcs.mcast(
            handle.group,
            ContextUpdate(
                session_id=handle.session_id, counter=counter, update=update
            ),
        )
        return counter

    def end_session(self, handle: SessionHandle) -> None:
        handle.ended_at = self.sim.now
        self.gcs.mcast(handle.group, EndSession(session_id=handle.session_id))

    # ------------------------------------------------------------------
    # GcsClientApplication callbacks
    # ------------------------------------------------------------------
    def on_ptp(self, sender: NodeId, payload: Any) -> None:
        # responses first: nearly everything a client receives is one
        if isinstance(payload, ResponseMsg):
            handle = self.sessions.get(payload.session_id)
            if handle is None:
                return
            handle.primary_seen = sender
            handle.last_response_at = self.sim.now
            handle.received.append(
                ReceivedResponse(
                    time=self.sim.now,
                    sender=sender,
                    index=payload.index,
                    klass=payload.klass,
                    based_on_update=payload.based_on_update,
                    uncertain=payload.uncertain,
                    body=payload.body,
                )
            )
            if len(handle.received) > self.response_log_cap:
                del handle.received[: -self.response_log_cap]
        elif isinstance(payload, UnitList):
            self.catalog = dict(payload.units)
        elif isinstance(payload, SessionStarted):
            handle = self.sessions.get(payload.session_id)
            if handle is not None and handle.started_at is None:
                handle.started_at = self.sim.now
                handle.primary_seen = payload.primary
        elif isinstance(payload, SessionDenied):
            handle = self.sessions.get(payload.session_id)
            if handle is not None:
                handle.denied_reason = payload.reason

    def on_send_failed(self, group: str, payload: Any) -> None:
        if isinstance(payload, (ContextUpdate, EndSession)):
            handle = self.sessions.get(payload.session_id)
            if handle is not None:
                handle.failed_sends += 1
                if isinstance(payload, ContextUpdate):
                    handle.failed_update_counters.append(payload.counter)
        elif isinstance(payload, StartSession):
            handle = self.sessions.get(payload.session_id)
            if handle is not None:
                handle.denied_reason = "unreachable"


__all__ = ["ReceivedResponse", "ServiceClient", "SessionHandle"]
