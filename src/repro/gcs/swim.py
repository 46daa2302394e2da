"""SWIM-style gossip failure detector (``membership_mode="gossip"``).

Replaces the all-pairs heartbeat mesh with constant per-node probe work:
every ``probe_interval`` a daemon pings ONE pseudo-random peer; if the
direct ack misses ``probe_timeout`` it asks ``swim_fanout`` helpers to
probe the target indirectly, and only when the whole round stays silent
does the target become *suspected*.  A suspected member stays in the
membership estimate until the suspicion survives
``suspicion_multiplier * probe_interval * log10(n + 1)`` seconds — long
enough for the subject to hear its own suspicion through the gossip
stream and refute it — after which it is evicted (``on_change`` fires
and the membership engine reconfigures, exactly as when a mesh
heartbeat times out).

Dissemination is epidemic: every swim message piggybacks up to
``gossip_max_updates`` pending :class:`~repro.gcs.messages.SwimUpdate`
observations, each forwarded a bounded ``~swim_fanout * log10(n + 1)``
times per node.  Observations about one subject are ordered by the pair
``(incarnation, epoch)`` — the subject's process incarnation and its
refutation counter within it — with dead > suspect > alive breaking
ties at an equal point, so merging is monotone and idempotent.  A node
that hears itself suspected (or declared dead, e.g. after a partition
heals) bumps its epoch ONCE per superseding observation and gossips an
``alive`` that overrides it everywhere.  A periodic push-pull
anti-entropy digest exchange plus a low-rate "rejoin" probe of
currently-dead world members bound convergence after partitions heal.

The class implements the same :class:`~repro.gcs.detector.Detector`
protocol as :class:`~repro.gcs.failure_detector.FailureDetector`
(``check``, ``next_deadline``, ``forget``, ``alive_set``, ...), so
everything above the detector interface — view formation,
merge/reconciliation, divergence and restart detection — is unchanged.

Determinism: all draws come from one ``random.Random`` stream seeded
from the node id alone (SHA-256 derived, like ``sim/rng``), so a
simulation is bit-reproducible and sharded runs match serial ones.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.gcs.detector import DetectorHost
from repro.gcs.messages import (
    Heartbeat,
    SwimAck,
    SwimDigest,
    SwimPing,
    SwimPingReq,
    SwimUpdate,
)
from repro.gcs.view import ViewId
from repro.sim.topology import NodeId

#: SwimUpdate.status values, ordered so that a numerically larger status
#: wins at an equal (incarnation, epoch) point.
SWIM_ALIVE = 0
SWIM_SUSPECT = 1
SWIM_DEAD = 2

#: Probe one currently-dead/unknown world member every this many rounds
#: (boot discovery and partition-heal rediscovery; the cost is bounded at
#: one extra ping per window).
_REJOIN_EVERY = 4

#: Every this many anti-entropy turns, push the digest at a dead/unknown
#: world member instead of an alive peer (a second heal path).
_AE_REJOIN_EVERY = 4

#: Floor on per-update gossip retransmissions regardless of cluster size.
_MIN_GOSSIP_BUDGET = 3


def _swim_seed(node_id: NodeId) -> int:
    """A per-node 64-bit seed derived from the node id alone (stable
    across processes and runs, mirroring ``sim/rng`` derivation) so that
    sharded chaos runs draw identically to serial ones."""
    digest = hashlib.sha256(f"swim:{node_id}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(slots=True)
class _MemberState:
    status: int
    incarnation: int
    epoch: int
    last_direct: float
    suspect_since: float = 0.0
    config_view_id: ViewId | None = None
    # when the peer last *authored* a swim message we saw (carrying its
    # view id) — divergence detection compares against this, same rule as
    # the mesh detector's last_view_report.
    last_view_report: float = 0.0
    # DEAD via forget() is a *local hint* (a protocol reply timed out),
    # not an epidemic verdict: it must never be exported in digests, and
    # any alive evidence at the current point revives it.  Exporting
    # local forgets as dead-at-current-point verdicts would let a single
    # slow sync reply propagate a bogus eviction cluster-wide.
    local_death: bool = False


@dataclass(slots=True)
class _GossipEntry:
    update: SwimUpdate
    sent: int = 0


@dataclass(slots=True)
class _Probe:
    target: NodeId
    started: float
    indirect_sent: bool = False


class SwimDetector:
    """Drop-in alternative to ``FailureDetector`` speaking the SWIM wire
    vocabulary.

    It runs its probe rounds on a periodic timer of its own, armed in
    :meth:`start` at ``settings.probe_interval``; the host daemon pumps
    :meth:`check` (suspicion expiry: every protocol tick and at
    :meth:`next_deadline`) and offers it every received payload
    (:meth:`on_message`).  Clock, timers, sends and the liveness header
    all come from the :class:`~repro.gcs.detector.DetectorHost`, so the
    detector never touches the network or simulator directly.
    """

    def __init__(self, host: DetectorHost) -> None:
        self._host = host
        self.me = host.node_id
        self.settings = host.settings
        self._world: list[NodeId] = sorted(
            (node for node in host.world if node != self.me), key=str
        )
        self._now = host.now
        self._on_change = host.on_detector_change
        self._send = host.send_protocol
        self._local_state = host.liveness_header
        self._rng = random.Random(_swim_seed(self.me))
        self._members: dict[NodeId, _MemberState] = {}
        self._gossip: dict[NodeId, _GossipEntry] = {}
        self._probes: dict[int, _Probe] = {}
        self._probe_seq = 0
        self._probe_ring: list[NodeId] = []
        self._rejoin_ring: list[NodeId] = []
        self._round = 0
        self._ae_turn = 0
        self._next_anti_entropy = self._now() + self.settings.anti_entropy_interval
        self._next_expiry = math.inf
        self._my_epoch = 0
        self.max_view_counter_seen = 0
        # observability (read by the membership bench and the tests)
        self.suspicions_started = 0
        self.suspicions_refuted = 0
        self.refutations_sent = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # detector interface (mirrors FailureDetector)
    # ------------------------------------------------------------------
    def alive_peers(self) -> frozenset[NodeId]:
        """Peers currently in the estimate (alive or merely suspected —
        suspicion is not eviction; never includes ``me``)."""
        return frozenset(
            peer
            for peer, state in self._members.items()
            if state.status != SWIM_DEAD
        )

    def alive_set(self) -> frozenset[NodeId]:
        """Estimate members plus ``me`` — what the membership engine
        forms views from."""
        return frozenset(self.alive_peers() | {self.me})

    def incarnation_of(self, peer: NodeId) -> int | None:
        state = self._members.get(peer)
        return state.incarnation if state is not None else None

    def next_deadline(self) -> float:
        """The earliest instant a suspicion can run out (``inf`` with none
        pending).  A lower bound — a refuted suspicion leaves it standing
        until :meth:`check` passes it, which costs one idle firing."""
        return self._next_expiry

    def check(self) -> None:
        """Evict members whose suspicion outlived the refutation window.
        O(1) while no suspicion deadline has passed."""
        now = self._now()
        if now < self._next_expiry:
            return
        timeout = self._suspicion_timeout()
        expired: list[NodeId] = []
        next_expiry = math.inf
        for peer, state in self._members.items():
            if state.status != SWIM_SUSPECT:
                continue
            deadline = state.suspect_since + timeout
            if now >= deadline:
                expired.append(peer)
            else:
                next_expiry = min(next_expiry, deadline)
        self._next_expiry = next_expiry
        if not expired:
            return
        for peer in expired:
            state = self._members[peer]
            state.status = SWIM_DEAD
            state.local_death = False
            self.evictions += 1
            self._queue_gossip(
                SwimUpdate(peer, SWIM_DEAD, state.incarnation, state.epoch)
            )
        self._on_change()

    def forget(self, peer: NodeId) -> None:
        """Drop a peer immediately (a protocol reply timed out); local
        only, like the mesh detector — gossip will revive it if it is in
        fact alive."""
        state = self._members.get(peer)
        if state is not None and state.status != SWIM_DEAD:
            state.status = SWIM_DEAD
            state.local_death = True
            self._on_change()

    def reset(self) -> None:
        """Forget everything (process recovery).  The RNG stream is NOT
        reseeded: draw counts must stay deterministic across a run."""
        self._members.clear()
        self._gossip.clear()
        self._probes.clear()
        self._probe_ring = []
        self._rejoin_ring = []
        self._next_expiry = math.inf
        self._my_epoch = 0

    def observe_traffic(self, peer: NodeId) -> None:
        """Any delivered protocol message is direct liveness evidence for
        its sender (same piggyback rule as the mesh detector)."""
        state = self._members.get(peer)
        if state is None or peer == self.me:
            return
        state.last_direct = self._now()
        if state.status == SWIM_SUSPECT:
            state.status = SWIM_ALIVE
            self.suspicions_refuted += 1
        elif state.status == SWIM_DEAD:
            state.status = SWIM_ALIVE
            state.local_death = False
            self._on_change()

    def divergent_peers(
        self, my_config_view_id: ViewId, heard_after: float
    ) -> list[NodeId]:
        """Estimate members whose latest authored swim message (newer
        than ``heard_after``) reports a configuration different from
        mine — the zombie-view guard, identical to the mesh rule."""
        divergent: list[NodeId] = []
        for peer in sorted(self._members, key=str):
            state = self._members[peer]
            if state.status == SWIM_DEAD:
                continue
            if state.last_view_report < heard_after:
                continue
            if (
                state.config_view_id is not None
                and state.config_view_id != my_config_view_id
            ):
                divergent.append(peer)
        return divergent

    # ------------------------------------------------------------------
    # dispatch (the P201 site for the swim wire vocabulary)
    # ------------------------------------------------------------------
    def on_message(self, payload: Any, sender: NodeId) -> bool:
        """Dispatch one received liveness payload; returns False for
        anything else.  Mesh heartbeats are understood as plain direct
        evidence, so a mixed-mode cluster degrades gracefully instead of
        crashing."""
        if isinstance(payload, Heartbeat):
            self._hear_direct(
                payload.sender,
                payload.incarnation,
                payload.view_counter,
                payload.config_view_id,
            )
            return True
        if isinstance(payload, SwimPing):
            self._on_ping(payload)
        elif isinstance(payload, SwimAck):
            self._on_ack(payload)
        elif isinstance(payload, SwimPingReq):
            self._on_ping_req(payload)
        elif isinstance(payload, SwimDigest):
            self._on_digest(payload)
        else:
            return False
        if sender != self.me:
            # relayed messages (indirect acks) arrive from a helper, not
            # their author — the transport-level sender is alive too.
            self.observe_traffic(sender)
        return True

    # ------------------------------------------------------------------
    # probe rounds
    # ------------------------------------------------------------------
    def start(self, first_delay: float | None) -> None:
        """Arm the probe round: its own cadence, beside the host's protocol
        tick (which keeps driving :meth:`check`).  The handle is dropped —
        a crash stops it with every other timer of the host."""
        self._host.set_periodic_timer(
            self.settings.probe_interval,
            self.on_probe_tick,
            label=f"swim:{self.me}",
            first_delay=first_delay,
        )

    def on_tick(self) -> None:
        """Nothing rides the host's tick: probes have their own timer."""

    def _schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """One-shot timers for the probe state machine.  The handles are
        deliberately dropped: probe deadlines are keyed by sequence number
        (a late firing for an acked probe is a no-op), and a crash cancels
        them with every other timer of the host."""
        self._host.set_timer(delay, callback, label=f"swim:{self.me}")

    def on_probe_tick(self) -> None:
        """One SWIM round: probe the next ring peer, occasionally probe a
        dead/unknown world member (rejoin path), run anti-entropy."""
        now = self._now()
        self._round += 1
        self._probe_next(now)
        if self._round % _REJOIN_EVERY == 0:
            self._probe_rejoin()
        if now >= self._next_anti_entropy:
            self._next_anti_entropy = now + self.settings.anti_entropy_interval
            self._anti_entropy()

    def announce(self) -> None:
        """Push our view id at a few alive peers immediately (called
        after a resync-to-singleton, where the mesh would force-broadcast
        a heartbeat so peers spot the divergence quickly)."""
        peers = sorted(self.alive_peers(), key=str)
        if not peers:
            return
        fanout = min(self.settings.swim_fanout, len(peers))
        for peer in self._rng.sample(peers, fanout):
            self._send_digest(peer, reply_requested=True)

    def _probe_next(self, now: float) -> None:
        target = self._next_probe_target()
        if target is None:
            return
        seq = self._probe_seq
        self._probe_seq += 1
        self._probes[seq] = _Probe(target, now)
        self._send_ping(target, seq, origin=None)
        self._schedule(
            self.settings.probe_timeout, lambda: self._probe_deadline(seq)
        )

    def _next_probe_target(self) -> NodeId | None:
        """Randomized round-robin over the current estimate: every member
        is probed at least once per ring cycle (SWIM's time-bounded
        first-detection property).  At boot — before anything is known —
        the ring falls back to the whole world."""
        while self._probe_ring:
            candidate = self._probe_ring.pop()
            state = self._members.get(candidate)
            if state is None or state.status != SWIM_DEAD:
                return candidate
        ring = [
            peer
            for peer in self._world
            if peer in self._members
            and self._members[peer].status != SWIM_DEAD
        ]
        if not ring:
            ring = [peer for peer in self._world if peer not in self._members]
        if not ring:
            return None
        self._rng.shuffle(ring)
        self._probe_ring = ring
        return self._probe_ring.pop()

    def _probe_deadline(self, seq: int) -> None:
        """The direct ack window closed: fan the probe out through
        ``swim_fanout`` helpers, then give the round until its end."""
        probe = self._probes.get(seq)
        if probe is None:
            return  # acked in time
        probe.indirect_sent = True
        helpers = [
            peer
            for peer in sorted(self.alive_peers(), key=str)
            if peer != probe.target
        ]
        fanout = min(self.settings.swim_fanout, len(helpers))
        if fanout > 0:
            incarnation, view_counter, config_view_id, delivered = self._local_state()
            for helper in self._rng.sample(helpers, fanout):
                request = SwimPingReq(
                    self.me,
                    incarnation,
                    view_counter,
                    config_view_id,
                    probe.target,
                    seq,
                    self._take_gossip(),
                    delivered,
                )
                self._send(helper, request, "swim.ping_req", 1)
        remaining = max(
            self.settings.probe_interval - self.settings.probe_timeout,
            self.settings.probe_timeout,
        )
        self._schedule(remaining, lambda: self._probe_expire(seq))

    def _probe_expire(self, seq: int) -> None:
        probe = self._probes.pop(seq, None)
        if probe is None:
            return  # acked (directly or through a helper)
        self._suspect(probe.target)

    def _probe_rejoin(self) -> None:
        """Ping one currently-dead (or never-heard) world member: boot
        discovery and the first cross-partition contact after a heal.
        No probe record — an absent node must not trigger suspicion
        machinery, and an alive one answers with an ack that revives it."""
        while self._rejoin_ring:
            candidate = self._rejoin_ring.pop()
            state = self._members.get(candidate)
            if state is None or state.status == SWIM_DEAD:
                seq = self._probe_seq
                self._probe_seq += 1
                self._send_ping(candidate, seq, origin=None)
                return
        self._rejoin_ring = [
            peer
            for peer in self._world
            if peer not in self._members
            or self._members[peer].status == SWIM_DEAD
        ]
        self._rng.shuffle(self._rejoin_ring)

    def _suspect(self, target: NodeId) -> None:
        state = self._members.get(target)
        if state is None or state.status != SWIM_ALIVE:
            return  # unknown, already suspected, or already dead
        now = self._now()
        state.status = SWIM_SUSPECT
        state.suspect_since = now
        self.suspicions_started += 1
        self._next_expiry = min(
            self._next_expiry, now + self._suspicion_timeout()
        )
        self._queue_gossip(
            SwimUpdate(target, SWIM_SUSPECT, state.incarnation, state.epoch)
        )

    def _suspicion_timeout(self) -> float:
        population = len(self._members) + 1
        spread = max(1.0, math.log10(population + 1))
        return (
            self.settings.suspicion_multiplier
            * self.settings.probe_interval
            * spread
        )

    # ------------------------------------------------------------------
    # message handlers
    # ------------------------------------------------------------------
    def _on_ping(self, ping: SwimPing) -> None:
        self._hear_direct(
            ping.sender, ping.incarnation, ping.view_counter, ping.config_view_id
        )
        self._merge_updates(ping.updates)
        incarnation, view_counter, config_view_id, delivered = self._local_state()
        ack = SwimAck(
            self.me,
            incarnation,
            view_counter,
            config_view_id,
            ping.probe_seq,
            ping.origin,
            self._take_gossip(),
            delivered,
        )
        self._send(ping.sender, ack, "swim.ack", 1)

    def _on_ack(self, ack: SwimAck) -> None:
        self._hear_direct(
            ack.sender, ack.incarnation, ack.view_counter, ack.config_view_id
        )
        self._merge_updates(ack.updates)
        if ack.origin is not None and ack.origin != self.me:
            # we were the helper: relay the target's ack to the prober
            # (the frozen payload is forwarded verbatim, never mutated)
            self._send(ack.origin, ack, "swim.ack", 1)
            return
        self._probes.pop(ack.probe_seq, None)

    def _on_ping_req(self, request: SwimPingReq) -> None:
        self._hear_direct(
            request.sender,
            request.incarnation,
            request.view_counter,
            request.config_view_id,
        )
        self._merge_updates(request.updates)
        self._send_ping(request.target, request.probe_seq, origin=request.sender)

    def _on_digest(self, digest: SwimDigest) -> None:
        self._hear_direct(
            digest.sender,
            digest.incarnation,
            digest.view_counter,
            digest.config_view_id,
        )
        self._merge_updates(digest.entries)
        if digest.reply_requested:
            self._send_digest(digest.sender, reply_requested=False)

    def _send_ping(self, target: NodeId, seq: int, origin: NodeId | None) -> None:
        incarnation, view_counter, config_view_id, delivered = self._local_state()
        ping = SwimPing(
            self.me,
            incarnation,
            view_counter,
            config_view_id,
            seq,
            origin,
            self._take_gossip(),
            delivered,
        )
        self._send(target, ping, "swim.ping", 1)

    def _send_digest(self, target: NodeId, reply_requested: bool) -> None:
        incarnation, view_counter, config_view_id, delivered = self._local_state()
        entries = [SwimUpdate(self.me, SWIM_ALIVE, incarnation, self._my_epoch)]
        for peer in sorted(self._members, key=str):
            state = self._members[peer]
            if state.local_death:
                continue  # a forget() hint is not ours to assert
            entries.append(
                SwimUpdate(peer, state.status, state.incarnation, state.epoch)
            )
        digest = SwimDigest(
            self.me,
            incarnation,
            view_counter,
            config_view_id,
            tuple(entries),
            reply_requested,
            delivered,
        )
        self._send(target, digest, "swim.digest", 1 + len(entries) // 8)

    def _anti_entropy(self) -> None:
        """Push-pull digest exchange with one peer — mostly an alive one,
        every ``_AE_REJOIN_EVERY``-th turn a dead/unknown world member so
        healed partitions re-converge even if rejoin pings were lost."""
        self._ae_turn += 1
        alive = sorted(self.alive_peers(), key=str)
        dead = [
            peer
            for peer in self._world
            if peer not in self._members
            or self._members[peer].status == SWIM_DEAD
        ]
        pool = alive
        if self._ae_turn % _AE_REJOIN_EVERY == 0 and dead:
            pool = dead
        if not pool:
            pool = dead
        if not pool:
            return
        target = pool[self._rng.randrange(len(pool))]
        self._send_digest(target, reply_requested=True)

    # ------------------------------------------------------------------
    # state merging
    # ------------------------------------------------------------------
    def _hear_direct(
        self,
        peer: NodeId,
        incarnation: int,
        view_counter: int,
        config_view_id: ViewId | None,
    ) -> None:
        """A message authored by ``peer`` arrived: the strongest possible
        aliveness evidence, overriding any gossiped suspicion or death
        locally (global refutation still needs the subject's epoch bump)."""
        if peer == self.me:
            return
        self.max_view_counter_seen = max(self.max_view_counter_seen, view_counter)
        now = self._now()
        state = self._members.get(peer)
        if state is None:
            self._members[peer] = _MemberState(
                SWIM_ALIVE,
                incarnation,
                0,
                last_direct=now,
                config_view_id=config_view_id,
                last_view_report=now,
            )
            self._on_change()
            return
        if incarnation < state.incarnation:
            # a stale pre-restart message must not resurrect old aliveness
            return
        changed = False
        if incarnation > state.incarnation:
            # the peer restarted: fresh incarnation, epoch restarts —
            # a membership change whether it was in the estimate or dead
            state.incarnation = incarnation
            state.epoch = 0
            state.status = SWIM_ALIVE
            changed = True
        elif state.status == SWIM_SUSPECT:
            state.status = SWIM_ALIVE
            self.suspicions_refuted += 1
        elif state.status == SWIM_DEAD:
            state.status = SWIM_ALIVE
            changed = True
        state.local_death = False
        state.last_direct = now
        state.config_view_id = config_view_id
        state.last_view_report = now
        if changed:
            self._on_change()

    def _merge_updates(self, updates: tuple[SwimUpdate, ...]) -> None:
        for update in updates:
            self._apply_update(update)

    def _apply_update(self, update: SwimUpdate) -> None:
        if update.subject == self.me:
            self._maybe_refute(update)
            return
        state = self._members.get(update.subject)
        if state is None:
            if update.subject not in set(self._world):
                return  # not part of this service's world
            self._members[update.subject] = _MemberState(
                update.status,
                update.incarnation,
                update.epoch,
                last_direct=self._now(),
            )
            if update.status == SWIM_SUSPECT:
                self._members[update.subject].suspect_since = self._now()
                self._arm_expiry()
            self._queue_gossip(update)
            if update.status != SWIM_DEAD:
                self._on_change()
            return
        point = (update.incarnation, update.epoch)
        current = (state.incarnation, state.epoch)
        if point < current:
            return
        if point == current and update.status <= state.status:
            # ...except that alive-at-current-point does revive a peer we
            # only forgot locally (the hint is weaker than any verdict)
            if not (state.local_death and update.status == SWIM_ALIVE):
                return
        was_member = state.status != SWIM_DEAD
        restarted = update.incarnation > state.incarnation
        state.incarnation = update.incarnation
        state.epoch = update.epoch
        previous_status = state.status
        state.status = update.status
        state.local_death = False
        if update.status == SWIM_SUSPECT and previous_status != SWIM_SUSPECT:
            state.suspect_since = self._now()
            self.suspicions_started += 1
            self._arm_expiry()
        if update.status == SWIM_ALIVE and previous_status == SWIM_SUSPECT:
            self.suspicions_refuted += 1
        self._queue_gossip(update)
        is_member = state.status != SWIM_DEAD
        if was_member != is_member or (restarted and is_member):
            if not is_member:
                self.evictions += 1
            self._on_change()

    def _maybe_refute(self, update: SwimUpdate) -> None:
        """Someone gossips that *we* are suspected or dead: override it
        with a higher epoch — exactly once per superseding observation."""
        if update.status == SWIM_ALIVE:
            return
        incarnation = self._local_state()[0]
        if update.incarnation < incarnation:
            return  # about a previous life of ours; already superseded
        if update.epoch < self._my_epoch:
            return  # an alive at our current epoch already overrides it
        self._my_epoch = update.epoch + 1
        self.refutations_sent += 1
        self._queue_gossip(
            SwimUpdate(self.me, SWIM_ALIVE, incarnation, self._my_epoch)
        )

    def _arm_expiry(self) -> None:
        self._next_expiry = min(
            self._next_expiry, self._now() + self._suspicion_timeout()
        )

    # ------------------------------------------------------------------
    # gossip buffer
    # ------------------------------------------------------------------
    def _gossip_budget(self) -> int:
        population = len(self._members) + 1
        spread = math.ceil(math.log10(population + 1))
        return max(
            _MIN_GOSSIP_BUDGET, self.settings.swim_fanout * int(spread)
        )

    def _queue_gossip(self, update: SwimUpdate) -> None:
        """Queue (or supersede) the pending observation about a subject;
        the transmission budget restarts with the new observation."""
        self._gossip[update.subject] = _GossipEntry(update)

    def _take_gossip(self) -> tuple[SwimUpdate, ...]:
        """Pending observations for one outgoing message: least-sent
        first (deterministic tie-break), each charged one transmission,
        exhausted entries dropped."""
        if not self._gossip:
            return ()
        entries = sorted(
            self._gossip.values(),
            key=lambda entry: (entry.sent, str(entry.update.subject)),
        )
        picked = entries[: self.settings.gossip_max_updates]
        for entry in picked:
            entry.sent += 1
        budget = self._gossip_budget()
        exhausted = [
            subject
            for subject, entry in self._gossip.items()
            if entry.sent >= budget
        ]
        for subject in exhausted:
            del self._gossip[subject]
        return tuple(entry.update for entry in picked)


__all__ = [
    "SWIM_ALIVE",
    "SWIM_DEAD",
    "SWIM_SUSPECT",
    "SwimDetector",
]
