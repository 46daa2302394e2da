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

The detector touches its daemon only through :class:`DetectorHost`, so a
test can drive it on a fake host.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Protocol

from repro.gcs.messages import Heartbeat
from repro.gcs.settings import GcsSettings
from repro.gcs.view import ViewId
from repro.sim.topology import NodeId

#: Even with piggybacking, a full heartbeat goes to every peer at least
#: once per this many intervals: heartbeats are the only carriers of the
#: sender's view id and incarnation, which the divergence and restart
#: detectors need.
HEARTBEAT_REFRESH_FACTOR = 4


class DetectorHost(Protocol):
    """What the detector may use of the daemon that runs it."""

    node_id: NodeId
    #: every daemon id that may ever exist (the heartbeat targets); the
    #: daemon appends to it when a server is spawned
    world: list[NodeId]
    settings: GcsSettings

    def now(self) -> float:
        """The protocol clock."""

    def liveness_header(self) -> tuple[int, int, ViewId, int]:
        """``(incarnation, view_counter, config_view_id, delivered_upto)``:
        what every heartbeat reports about this daemon.  The detector only
        carries ``delivered_upto`` (how much of its configuration's total
        order the daemon has delivered); the daemon reads it off its
        peers' heartbeats."""

    def send_protocol(
        self, dest: NodeId, payload: Any, kind: str, size: int = 1
    ) -> None:
        """Send one protocol message."""

    def quiet_since(self, peer: NodeId) -> float:
        """When this daemon last sent ``peer`` anything at all (``-inf``:
        never) — traffic newer than a heartbeat interval stands in for a
        heartbeat (piggybacking)."""

    def on_detector_change(self) -> None:
        """The estimate (or a member's incarnation) changed."""


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

    The detector has no timer of its own: the host daemon's tick sends
    the heartbeats (:meth:`on_tick`) and pumps time via :meth:`check` —
    as does, when :meth:`next_deadline` falls between two ticks, a
    one-shot timer at that instant.  ``host.on_detector_change`` fires
    whenever the alive set — or the incarnation of an alive peer —
    changes.
    """

    def __init__(self, host: DetectorHost) -> None:
        self._host = host
        self.me = host.node_id
        self.suspect_timeout = host.settings.suspect_timeout
        self._now = host.now
        self._on_change = host.on_detector_change
        self.max_view_counter_seen = 0
        # Observability for the bound (pinned by the unit test): how many
        # check() calls returned on it vs. walked the table to expire peers.
        self.idle_checks = 0
        self.full_scans = 0
        self.reset()

    def on_tick(self) -> None:
        self._broadcast_heartbeat(force=False)

    def announce(self) -> None:
        """Heartbeat every peer now (piggyback suppression would delay the
        heartbeat that lets peers spot a divergence and pull us back in)."""
        self._broadcast_heartbeat(force=True)

    def _broadcast_heartbeat(self, force: bool) -> None:
        """Heartbeat every world peer, skipping peers that recent outgoing
        protocol traffic already proved us alive to (piggybacking).  A full
        heartbeat still goes out every ``HEARTBEAT_REFRESH_FACTOR`` intervals
        per peer, because only heartbeats carry our view id and incarnation
        (the divergence and restart detectors feed on them)."""
        host = self._host
        header = host.liveness_header()
        heartbeat = self._heartbeat
        if heartbeat is None or header != self._heartbeat_header:
            # a heartbeat is immutable: one is built per header, not per tick
            heartbeat = self._heartbeat = Heartbeat(self.me, *header)
            self._heartbeat_header = header
        now = self._now()
        settings = host.settings
        interval = settings.heartbeat_interval
        refresh_after = interval * HEARTBEAT_REFRESH_FACTOR
        piggyback = not force and settings.piggyback_liveness
        me, last_sent, send = self.me, self._last_hb_sent, host.send_protocol
        for peer in host.world:
            if peer == me:
                continue
            if piggyback:
                sent = last_sent.get(peer)  # None: never heartbeated
                if (
                    sent is not None
                    and now - sent < refresh_after
                    and now - host.quiet_since(peer) < interval
                ):
                    continue
            last_sent[peer] = now
            send(peer, heartbeat, "gcs.heartbeat")

    def on_message(self, payload: Any, sender: NodeId) -> bool:
        """Offered every received payload before the daemon dispatches it;
        True when it was a heartbeat and is consumed."""
        if isinstance(payload, Heartbeat):
            self.on_heartbeat(payload)
            return True
        return False

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
        if heartbeat.view_counter > self.max_view_counter_seen:
            self.max_view_counter_seen = heartbeat.view_counter
        now = self._now()
        changed = False
        if state is None:
            self._peers[peer] = _PeerState(
                now,
                heartbeat.incarnation,
                heartbeat.config_view_id,
                last_view_report=now,
            )
            changed = True
        else:
            if heartbeat.incarnation != state.incarnation:
                changed = True
            state.last_heard = now
            state.incarnation = heartbeat.incarnation
            state.config_view_id = heartbeat.config_view_id
            state.last_view_report = now
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
        """Forget every peer (construction and process recovery); the
        highest view counter seen and the counters are kept."""
        self._peers: dict[NodeId, _PeerState] = {}
        # heartbeat piggybacking: when we last sent each peer a *real*
        # heartbeat (traffic suppresses them, but view-id/incarnation
        # reporting must not starve — see HEARTBEAT_REFRESH_FACTOR)
        self._last_hb_sent: dict[NodeId, float] = {}
        # the last heartbeat built, and the liveness header it carries
        self._heartbeat: Heartbeat | None = None
        self._heartbeat_header: tuple[int, int, ViewId, int] | None = None
        # Alive peers, least recently heard first: every refresh moves its
        # peer to the end, so the head is the next peer that can expire —
        # next_deadline() is exact and check() idles on it, both in O(1).
        # (A stale lower bound would do for check() but not as a timer
        # deadline: the daemon would arm a no-op firing every time the
        # bound came due, steady state included.)
        self._alive: OrderedDict[NodeId, None] = OrderedDict()

    def alive_peers(self) -> frozenset[NodeId]:
        """Peers currently believed alive (never includes ``me``)."""
        return frozenset(self._alive)

    def alive_set(self) -> frozenset[NodeId]:
        """Alive peers plus ``me`` — the membership estimate."""
        return frozenset(self._alive) | {self.me}

    def incarnation_of(self, peer: NodeId) -> int | None:
        state = self._peers.get(peer)
        return state.incarnation if state else None

    def any_divergent(self, my_config_view_id: ViewId, heard_after: float) -> bool:
        """``bool(divergent_peers(...))`` without the sort or the list:
        stops at the first divergent peer (the daemon asks every tick).
        A peer in our view usually reports the very :class:`ViewId` object
        we installed, so identity settles it before the field compare."""
        peers = self._peers
        for peer in self._alive:
            state = peers[peer]
            reported = state.config_view_id
            if (
                reported is not my_config_view_id
                and state.last_view_report >= heard_after
                and reported is not None
                and reported != my_config_view_id
            ):
                return True
        return False

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


__all__ = ["HEARTBEAT_REFRESH_FACTOR", "DetectorHost", "FailureDetector"]
