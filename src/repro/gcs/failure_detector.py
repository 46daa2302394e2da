"""Heartbeat failure detector.

Each daemon periodically multicasts a :class:`~repro.gcs.messages.Heartbeat`
to every daemon in the world (the statically known set of potential
servers; the paper likewise assumes a-priori knowledge of the service
group's name).  A peer is *alive* if a heartbeat arrived within the suspect
timeout; it becomes suspected when the silence reaches the timeout, and
alive again as soon as a heartbeat is heard — including after a partition
heals, which is how components discover each other and merge.

Incarnation numbers ride on heartbeats so a restarted peer is recognized as
a membership change even if it restarted faster than the suspect timeout.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.gcs.messages import Heartbeat
from repro.gcs.view import ViewId
from repro.sim.topology import NodeId


@dataclass
class _PeerState:
    last_heard: float
    incarnation: int
    config_view_id: ViewId | None = None
    # when the peer last *reported* its view id (a real heartbeat, not
    # mere traffic evidence) — divergence detection must compare against
    # this, or a stale view report kept "fresh" by data traffic would
    # trigger spurious reconfigurations.
    last_view_report: float = 0.0


class FailureDetector:
    """Tracks which daemons are currently believed alive.

    The detector is passive: the owning daemon feeds it heartbeats via
    :meth:`on_heartbeat` and pumps time via :meth:`check` — from its
    periodic tick and, when :meth:`next_deadline` falls between two
    ticks, from a one-shot timer at that instant.  ``on_change`` fires
    whenever the alive set — or the incarnation of an alive peer —
    changes.
    """

    def __init__(
        self,
        me: NodeId,
        suspect_timeout: float,
        now: Callable[[], float],
        on_change: Callable[[], None],
    ) -> None:
        self.me = me
        self.suspect_timeout = suspect_timeout
        self._now = now
        self._on_change = on_change
        self._peers: dict[NodeId, _PeerState] = {}
        # Alive peers, least recently heard first: every refresh moves its
        # peer to the end, so the head is the next peer that can expire —
        # next_deadline() is exact and check() idles on it, both in O(1).
        # (A stale lower bound would do for check() but not as a timer
        # deadline: the daemon would arm a no-op firing every time the
        # bound came due, steady state included.)
        self._alive: OrderedDict[NodeId, None] = OrderedDict()
        self.max_view_counter_seen = 0
        # Observability for the bound (pinned by the unit test): how many
        # check() calls returned on it vs. walked the table to expire peers.
        self.idle_checks = 0
        self.full_scans = 0

    def on_heartbeat(self, heartbeat: Heartbeat) -> None:
        """Feed one received heartbeat; may fire ``on_change``.

        A heartbeat carrying an incarnation *lower* than the one already
        recorded is stale pre-restart traffic (e.g. delayed in flight
        across the peer's crash/recovery) and is ignored outright — it
        must not resurrect the old incarnation's aliveness or roll the
        recorded incarnation backwards.
        """
        peer = heartbeat.sender
        if peer == self.me:
            return
        state = self._peers.get(peer)
        if state is not None and heartbeat.incarnation < state.incarnation:
            return
        self.max_view_counter_seen = max(
            self.max_view_counter_seen, heartbeat.view_counter
        )
        changed = False
        if state is None:
            self._peers[peer] = _PeerState(
                self._now(),
                heartbeat.incarnation,
                heartbeat.config_view_id,
                last_view_report=self._now(),
            )
            changed = True
        else:
            if heartbeat.incarnation != state.incarnation:
                changed = True
            state.last_heard = self._now()
            state.incarnation = heartbeat.incarnation
            state.config_view_id = heartbeat.config_view_id
            state.last_view_report = self._now()
        if self._refresh(peer) or changed:
            self._on_change()

    def observe_traffic(self, peer: NodeId) -> None:
        """Feed delivery of *any* protocol message from ``peer`` as liveness
        evidence (heartbeat piggybacking: the sender suppresses explicit
        heartbeats on links its traffic already covers).

        Only refreshes peers that have introduced themselves with at least
        one real heartbeat — plain traffic carries no incarnation or view
        id, so an unknown sender stays unknown until its first heartbeat.
        """
        state = self._peers.get(peer)
        if state is None or peer == self.me:
            return
        state.last_heard = self._now()
        if self._refresh(peer):
            self._on_change()

    def _refresh(self, peer: NodeId) -> bool:
        """``peer`` was heard just now: most recently heard, hence last to
        expire.  True when this revived it."""
        if peer in self._alive:
            self._alive.move_to_end(peer)
            return False
        self._alive[peer] = None
        return True

    def next_deadline(self) -> float:
        """The instant the longest-silent alive peer expires unless heard
        again (``inf`` with nobody alive): exactly when :meth:`check` next
        has something to do."""
        for peer in self._alive:
            return self._peers[peer].last_heard + self.suspect_timeout
        return math.inf

    def check(self) -> None:
        """Expire peers whose silence has reached the timeout.

        O(1) while the clock has not reached :meth:`next_deadline` — with
        hundreds of daemons ticking several times per suspect timeout,
        the common case is "nothing can have expired yet" and must not
        rescan the whole peer table.
        """
        now = self._now()
        if now < self.next_deadline():
            self.idle_checks += 1
            return
        self.full_scans += 1
        while now >= self.next_deadline():
            self._alive.popitem(last=False)
        self._on_change()

    def forget(self, peer: NodeId) -> None:
        """Drop a peer immediately (used when a reply times out so the next
        formation attempt excludes it without waiting for heartbeat expiry)."""
        if peer in self._alive:
            del self._alive[peer]
            self._on_change()

    def reset(self) -> None:
        """Forget everything (used on process recovery)."""
        self._peers.clear()
        self._alive.clear()

    def alive_peers(self) -> frozenset[NodeId]:
        """Peers currently believed alive (never includes ``me``)."""
        return frozenset(self._alive)

    def alive_set(self) -> frozenset[NodeId]:
        """Alive peers plus ``me`` — the membership estimate."""
        return frozenset(self._alive) | {self.me}

    def incarnation_of(self, peer: NodeId) -> int | None:
        state = self._peers.get(peer)
        return state.incarnation if state else None

    def divergent_peers(
        self, my_config_view_id: ViewId, heard_after: float
    ) -> list[NodeId]:
        """Alive peers whose latest heartbeat (newer than ``heard_after``)
        reports a configuration different from mine.

        Persistent divergence means this daemon and the peer sit in
        different views while able to exchange heartbeats — the 'zombie
        view' hazard: a daemon dropped from a reformation that never
        notices, keeps serving, and loses everything at the next merge.
        Detecting it drives a reconfiguration that reunites the component.
        """
        divergent: list[NodeId] = []
        for peer in sorted(self._alive, key=str):
            state = self._peers[peer]
            if state.last_view_report < heard_after:
                continue
            if (
                state.config_view_id is not None
                and state.config_view_id != my_config_view_id
            ):
                divergent.append(peer)
        return divergent


__all__ = ["FailureDetector"]
