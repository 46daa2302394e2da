"""Client access to the GCS: open-group sends through contact daemons.

Clients are not daemons — they hold no membership state and see no views.
A client multicasts to a *group name* by handing the message to any live
contact daemon, which acknowledges receipt and injects the message into its
configuration's total order on the client's behalf.  If the contact stays
silent the client rotates to the next one and retransmits; the request id
travels with the message, so double injection is suppressed by the
daemons' duplicate filters.

This realizes the paper's design rule that "the client need not be aware of
the current membership of this group" (Section 3.1): a client only ever
names groups, never members.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable

from repro.gcs.messages import ClientAck, ClientMcast, PtpData, RequestId
from repro.gcs.settings import GcsSettings
from repro.sim.network import Message, Network
from repro.sim.process import Process
from repro.sim.topology import NodeId

#: Give up (surface an error to the application) after this many contact
#: rotations for one message.
CLIENT_MAX_RETRIES = 10


class _Outstanding:
    __slots__ = ("mcast", "retries", "timer")

    def __init__(self, mcast: ClientMcast) -> None:
        self.mcast = mcast
        self.retries = 0
        self.timer = None


class GcsClient(Process):
    """A client-side endpoint.

    Args:
        node_id: the client's address.
        network: the simulated network.
        contacts: daemon ids the client may use as entry points (in the
            framework this is the full server list, learned out of band).
        app: optional object with ``on_ptp(sender, payload)`` and
            ``on_send_failed(group, payload)`` callbacks.
        settings: timing constants (the ack timeout).
    """

    def __init__(
        self,
        node_id: NodeId,
        network: Network,
        contacts: Iterable[NodeId],
        app: Any = None,
        settings: GcsSettings | None = None,
    ) -> None:
        super().__init__(node_id, network)
        self.contacts = list(contacts)
        if not self.contacts:
            raise ValueError("a client needs at least one contact daemon")
        self.app = app
        self.settings = settings or GcsSettings()
        self._counter = itertools.count()
        self._contact_index = 0
        self.sends_failed = 0
        self._reset_volatile()

    def _reset_volatile(self) -> None:
        """What a crash erases: the unacknowledged sends (construction and
        recovery; their retry timers died with the crash)."""
        self._outstanding: dict[RequestId, _Outstanding] = {}

    @property
    def current_contact(self) -> NodeId:
        return self.contacts[self._contact_index % len(self.contacts)]

    def rotate_contact(self) -> None:
        self._contact_index += 1

    def mcast(self, group: str, payload: Any) -> RequestId:
        """Send ``payload`` to every current member of ``group`` via the
        total order.  Retries through other contacts until acknowledged."""
        request_id = RequestId(self.node_id, self.incarnation, next(self._counter))
        mcast = ClientMcast(request_id=request_id, group=group, payload=payload)
        entry = _Outstanding(mcast)
        self._outstanding[request_id] = entry
        self._transmit(request_id)
        return request_id

    def _transmit(self, request_id: RequestId) -> None:
        entry = self._outstanding.get(request_id)
        if entry is None or not self.is_up():
            return
        self.send(self.current_contact, entry.mcast, kind="gcs.client_mcast")
        entry.timer = self.set_timer(
            self.settings.client_ack_timeout,
            lambda: self._on_ack_timeout(request_id),
            label=f"client-ack:{self.node_id}",
        )

    def _on_ack_timeout(self, request_id: RequestId) -> None:
        entry = self._outstanding.get(request_id)
        if entry is None:
            return
        entry.retries += 1
        if entry.retries > CLIENT_MAX_RETRIES:
            del self._outstanding[request_id]
            self.sends_failed += 1
            self.trace("client.send_failed", group=entry.mcast.group)
            if self.app is not None:
                self.app.on_send_failed(entry.mcast.group, entry.mcast.payload)
            return
        self.rotate_contact()
        self._transmit(request_id)

    @property
    def unacked_count(self) -> int:
        return len(self._outstanding)

    def on_message(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, ClientAck):
            entry = self._outstanding.pop(payload.request_id, None)
            if entry is not None and entry.timer is not None:
                entry.timer.cancel()
        elif isinstance(payload, PtpData):
            if self.app is not None:
                self.app.on_ptp(message.sender, payload.payload)
        else:  # pragma: no cover - defensive
            self.trace("client.unknown_payload", type=type(payload).__name__)

    def on_recover(self) -> None:
        self._reset_volatile()


__all__ = ["CLIENT_MAX_RETRIES", "GcsClient"]
