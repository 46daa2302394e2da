"""The GCS daemon: one process running the full protocol stack.

A :class:`GcsDaemon` combines

* the all-pairs heartbeat failure detector
  (:class:`~repro.gcs.failure_detector.FailureDetector`),
* the membership engine (view formation with flush),
* the sequencer-based total order of its current configuration, and
* the named-group layer (replicated group map, derived group views,
  open-group injection for clients),

and exposes the endpoint API the framework is written against: ``join`` /
``leave`` / ``mcast`` / ``send_ptp`` plus application callbacks for
delivered messages, group views and configuration changes
(:class:`~repro.gcs.endpoint.GcsApplication`).
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable

from repro.gcs.failure_detector import FailureDetector
from repro.gcs.groups import GroupMap, MEMBERSHIP_GROUP
from repro.gcs.membership import MembershipEngine
from repro.gcs.messages import (
    AttemptId,
    ClientAck,
    ClientMcast,
    Install,
    NackSeqs,
    OrderRequest,
    Propose,
    ProposeNack,
    PtpData,
    RequestId,
    ResyncRequired,
    Sequenced,
    SequencedBatch,
    SyncReply,
)
from repro.gcs.ordering import DuplicateFilter, HoldbackBuffer, PendingRequests
from repro.gcs.settings import GcsSettings
from repro.gcs.spec import SpecMonitor
from repro.gcs.view import Configuration, GroupView, ViewId
from repro.sim.engine import Event
from repro.sim.network import Message, Network
from repro.sim.process import Process
from repro.sim.topology import NodeId


# quiet ticks on which a sequencer repeats its highest Sequenced (tail
# repair, DESIGN.md §6 hazard 9); with independent loss p per link the
# tail stays unrepaired with probability p ** (_TAIL_REPEATS + 1)
_TAIL_REPEATS = 3


class GcsDaemon(Process):
    """A group-communication daemon (one per server machine).

    Args:
        node_id: this daemon's address.
        network: the transport injection point — a simulated
            :class:`~repro.sim.network.Network` in experiments, or a
            :class:`repro.net.runtime.LiveNetwork` (same interface, real
            sockets underneath) in live deployments.  The daemon never
            learns which one it got.
        world: all daemon ids that may ever exist (heartbeat targets; the
            paper likewise assumes a-priori knowledge of the service).
        app: optional :class:`~repro.gcs.endpoint.GcsApplication` receiving
            deliveries and views.
        settings: protocol timing constants.
        monitor: optional spec monitor receiving protocol-level events
            (used by the property tests).
    """

    def __init__(
        self,
        node_id: NodeId,
        network: Network,
        world: Iterable[NodeId],
        app: Any = None,
        settings: GcsSettings | None = None,
        monitor: SpecMonitor | None = None,
    ) -> None:
        super().__init__(node_id, network)
        self.world: list[NodeId] = [n for n in world]
        if node_id not in self.world:
            self.world.append(node_id)
        self.app = app
        self.settings = settings or GcsSettings()
        self.monitor = monitor
        self.fd = FailureDetector(self)
        self.membership = MembershipEngine(self)
        # The fields below survive a crash (DESIGN §6, "What a recovered
        # daemon keeps"); what a crash erases is built by _reset_volatile.
        # observability (holdback_stats): the stable point of the last tick,
        # and the most holdback entries any tick left retained
        self.stable_floor = 0
        self.holdback_retained_max = 0
        self._req_counter = itertools.count()
        self._member_incarnations: dict[NodeId, int] = {}
        self._hb_timer = None
        # the tick is the coarse wheel; a protocol deadline that falls
        # between two ticks gets this one-shot (see _arm_deadline)
        self._next_tick = 0.0
        self._deadline_timer: Event | None = None
        self._batch_timer: Event | None = None  # read by _discard_batch
        self._reset_volatile(Configuration.make(ViewId(0, node_id), [node_id]))

    def _reset_volatile(self, config: Configuration) -> None:
        """Build everything a crash erases (construction and recovery):
        the configuration state of :meth:`_enter`, plus the group map, the
        duplicate filter, our pending requests, group intents and views,
        the clients awaiting an end-to-end ack and the event guard."""
        self._enter(config)
        self.group_map = GroupMap()
        self.dup_filter = DuplicateFilter()
        self.pending = PendingRequests()
        self._pending_since: dict[RequestId, float] = {}
        self._my_groups_intent: set[str] = set()
        self._last_group_view: dict[str, GroupView] = {}
        self._client_acks_pending: dict[RequestId, NodeId] = {}
        self._membership_event_guard: dict[tuple, int] = {}

    def _enter(self, config: Configuration, next_seq: int = 0) -> None:
        """Make ``config`` the current configuration — the one way into a
        configuration (construction, recovery, resync and install): its
        install time, a fresh holdback, no liveness reports yet, the next
        seq to stamp, and an empty batch."""
        self.config = config
        self._config_installed_at = self.sim.now
        self.holdback = HoldbackBuffer()
        # each configuration member's latest liveness report:
        # (its config view id, its delivered_upto there) — the stable point
        # below which the holdback is pruned (_stable_point)
        self._reports: dict[NodeId, tuple[ViewId | None, int]] = {}
        self._next_seq = next_seq
        self._discard_batch()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self._boot()

    def on_crash(self) -> None:
        self._disarm_deadline()

    def on_recover(self) -> None:
        """After a crash, come back as a fresh singleton configuration; the
        heartbeat exchange merges us back into the component.  All group
        memberships are gone — the application re-joins what it needs."""
        self._disarm_deadline()
        self.fd.reset()
        self.membership.reset()
        self.membership.view_counter += 1
        self._reset_volatile(
            Configuration.make(
                ViewId(self.membership.view_counter, self.node_id), [self.node_id]
            )
        )
        self._boot()
        if self.app is not None and hasattr(self.app, "on_daemon_recovered"):
            self.app.on_daemon_recovered()

    def _boot(self) -> None:
        self._config_installed_at = self.sim.now  # may start after it was built
        self._emit_config_view()
        first_delay = 0.0 if self.sim.now == 0 else None
        # process-lifetime timer: crash() cancels every timer of this node
        self._hb_timer = self.set_periodic_timer(  # repro-lint: allow(P202)
            self.settings.heartbeat_interval,
            self._tick,
            label=f"hb:{self.node_id}",
            first_delay=first_delay,
        )

    def _tick(self) -> None:
        self._next_tick = self.sim.now + self.settings.heartbeat_interval
        self.fd.on_tick()
        self.fd.check()
        self.membership.on_tick()
        if self.config_divergence_detected():
            self.membership.reconfigure()
        self._resubmit_stale()
        self._nack_gaps()
        self._reannounce_tail()
        self._prune_holdback()
        self._arm_deadline()

    def _arm_deadline(self) -> None:
        """A suspicion, sync, install or proposal wait that runs out before
        the next tick is noticed *at* its deadline, by one one-shot timer,
        rather than up to a heartbeat interval later.  While every peer is
        heard each interval no deadline is that close and nothing is armed
        — steady state runs the tick's events and no others."""
        self._disarm_deadline()
        deadline = min(self.fd.next_deadline(), self.membership.next_deadline())
        if self.sim.now < deadline < self._next_tick:
            self._deadline_timer = self.set_timer_at(
                deadline, self._on_deadline, label=f"deadline:{self.node_id}"
            )

    def _on_deadline(self) -> None:
        self.fd.check()
        self.membership.on_tick()
        self._arm_deadline()

    def _disarm_deadline(self) -> None:
        if self._deadline_timer is not None:
            self._deadline_timer.cancel()
            self._deadline_timer = None

    # ------------------------------------------------------------------
    # what the failure detector may use of us (failure_detector.DetectorHost)
    # ------------------------------------------------------------------
    def now(self) -> float:
        return self.sim.now

    def liveness_header(self) -> tuple[int, int, ViewId, int]:
        return (
            self.incarnation,
            self.membership.view_counter,
            self.config.view_id,
            self.holdback.delivered_upto,
        )

    def send_protocol(
        self, dest: NodeId, payload: Any, kind: str, size: int = 1
    ) -> None:
        self.send(dest, payload, kind, size)

    def quiet_since(self, peer: NodeId) -> float:
        return self.network.last_sent_at(self.node_id, peer)

    def on_detector_change(self) -> None:
        self.membership.reconfigure()

    # ------------------------------------------------------------------
    # public endpoint API
    # ------------------------------------------------------------------
    def join(self, group: str) -> None:
        """Join a named group (takes effect when the event is ordered)."""
        if group == MEMBERSHIP_GROUP:
            raise ValueError(f"{MEMBERSHIP_GROUP} is reserved")
        if group in self._my_groups_intent:
            return
        self._my_groups_intent.add(group)
        self._submit(MEMBERSHIP_GROUP, ("join", group, self.node_id))

    def leave(self, group: str) -> None:
        """Leave a named group."""
        if group not in self._my_groups_intent:
            return
        self._my_groups_intent.discard(group)
        self._submit(MEMBERSHIP_GROUP, ("leave", group, self.node_id))

    def mcast(self, group: str, payload: Any) -> RequestId:
        """Reliable, totally ordered multicast to ``group`` (open-group:
        the sender need not be a member)."""
        return self._submit(group, payload)

    def send_ptp(self, dest: NodeId, payload: Any, size: int = 1) -> None:
        """Plain point-to-point send, outside the total order."""
        self.send(dest, PtpData(payload), kind="gcs.ptp", size=size)

    def my_groups(self) -> frozenset[str]:
        return frozenset(self._my_groups_intent)

    def member_incarnations(self) -> dict[NodeId, int]:
        """The incarnation of each current configuration member, as
        recorded at install time.  A change between two views of the same
        member set means that member restarted (and lost its volatile
        state) — the framework uses this to trigger a state exchange even
        for restart-without-membership-change events."""
        return dict(self._member_incarnations)

    def group_view(self, group: str) -> GroupView:
        """The group's current view as derived from local agreed state."""
        return self.group_map.view(group, self.config, self.holdback.delivered_upto)

    def members_of(self, group: str) -> frozenset[NodeId]:
        members = self.group_map.members(group)
        return members.intersection(self.config.members)

    # ------------------------------------------------------------------
    # submission / total order
    # ------------------------------------------------------------------
    def _submit(
        self, group: str, payload: Any, request: OrderRequest | None = None
    ) -> RequestId:
        if request is None:
            request = OrderRequest(
                request_id=RequestId(
                    self.node_id, self.incarnation, next(self._req_counter)
                ),
                group=group,
                payload=payload,
            )
        self.pending.add(request)
        self._pending_since[request.request_id] = self.sim.now
        self._send_order_request(request)
        return request.request_id

    def _send_order_request(self, request: OrderRequest) -> None:
        if self.membership.forming:
            return  # resubmitted on install
        self.send(self.config.sequencer, request, kind="gcs.order_req")

    def _resubmit_stale(self) -> None:
        """Requests can be lost when their order request or its sequencing
        raced a view change; retry ones that have been pending too long
        (the duplicate filter makes retries idempotent)."""
        if self.membership.forming or not self.pending:
            return  # idle: nothing of ours awaits sequencing
        threshold = self.sim.now - 2 * self.settings.suspect_timeout
        for request in self.pending.outstanding():
            if self._pending_since.get(request.request_id, 0.0) <= threshold:
                self._pending_since[request.request_id] = self.sim.now
                self._send_order_request(request)

    def _on_order_request(self, request: OrderRequest) -> None:
        if self.membership.forming or self.config.sequencer != self.node_id:
            return
        sequenced = Sequenced(
            config_view_id=self.config.view_id, seq=self._next_seq, request=request
        )
        self._next_seq += 1
        if len(self.config.members) > 1:
            # Leading edge + spacing: batch_window is the least distance
            # between two batches, not a wait on every first message.  A
            # message that finds the window since the last flush already
            # over leaves in this event; one that arrives inside it waits,
            # with whatever else arrives, for the window's end — so nothing
            # is held longer than batch_window and no more than
            # 1/batch_window batches leave per second.  (A window of 0.0 is
            # always over: every message leaves alone, in its own event.)
            self._batch.append(sequenced)
            if (
                self.sim.now >= self._next_flush_at
                or len(self._batch) >= self.settings.batch_max
            ):
                self._flush_batch()
            elif self._batch_timer is None:
                self._batch_timer = self.set_timer_at(
                    self._next_flush_at,
                    self._flush_batch,
                    label=f"batch:{self.node_id}",
                )
        # The sequencer takes its own copy synchronously: a message it has
        # sequenced must be visible to any sync reply it builds from this
        # instant on, or a racing view formation could install a view
        # whose flush union silently misses the message.  (With batching
        # this also covers messages buffered but never flushed: they are in
        # the holdback, hence in the sync reply, hence in the flush union.)
        self._on_sequenced(sequenced)

    def _flush_batch(self) -> None:
        """Disseminate the buffer as one SequencedBatch per configuration
        member; the next batch may leave one ``batch_window`` from now."""
        if self._batch_timer is not None:
            self._batch_timer.cancel()
            self._batch_timer = None
        if not self._batch:
            return
        batch = SequencedBatch(
            # every buffered entry was stamped in the current configuration
            # (the buffer is discarded on install/resync/recovery)
            config_view_id=self._batch[0].config_view_id,
            messages=tuple(self._batch),
        )
        self._batch = []
        self._next_flush_at = self.sim.now + self.settings.batch_window
        self._quiet_ticks = 0
        self._send_to_members(batch)

    def _send_to_members(self, batch: SequencedBatch) -> None:
        """The sequencer's dissemination step (its own copy is inserted
        synchronously, never sent)."""
        for member in self.config.members:
            if member != self.node_id:
                self.send(member, batch, kind="gcs.sequenced_batch")

    def _discard_batch(self) -> None:
        """Drop buffered-but-unsent sequenced messages (configuration died;
        survivors obtain them from the flush union instead) and forget the
        old configuration's batch spacing and tail."""
        if self._batch_timer is not None:
            self._batch_timer.cancel()
            self._batch_timer = None
        # sequencer batching: messages stamped but not yet disseminated,
        # and the earliest instant the next batch may leave (the previous
        # flush + batch_window; a message that finds it passed is not held)
        self._batch: list[Sequenced] = []
        self._next_flush_at = 0.0
        # tail repair: ticks since the sequencer last disseminated anything
        # (past _TAIL_REPEATS: nothing sent yet, or the repeats are used up)
        self._quiet_ticks = _TAIL_REPEATS + 1

    def _reannounce_tail(self) -> None:
        """A receiver learns of a lost Sequenced only from a later one (the
        NACK reports holes *below* the highest seq it holds), so the last
        dissemination before a quiet period is the one loss nothing
        repairs.  The sequencer therefore repeats its highest Sequenced on
        each of the first ``_TAIL_REPEATS`` ticks that follow a whole tick
        interval without a dissemination: a receiver that has it drops the
        duplicate, one that missed it — or anything below it — now holds
        the evidence its NACK needs.  While traffic flows (a dissemination
        per tick) nothing is added."""
        if self._quiet_ticks > _TAIL_REPEATS or self._batch:
            return  # nothing to repeat, or a flush is about to say more
        self._quiet_ticks += 1
        if (
            self._quiet_ticks == 1  # disseminated since the previous tick
            or self.membership.forming
            or self.config.sequencer != self.node_id
        ):
            return
        tail = self.holdback.get(self._next_seq - 1)
        if tail is None:
            return
        self._send_to_members(
            SequencedBatch(config_view_id=tail.config_view_id, messages=(tail,))
        )

    def _on_sequenced(self, sequenced: Sequenced) -> None:
        stamped, view_id = sequenced.config_view_id, self.config.view_id
        if stamped is not view_id and stamped != view_id:
            return
        self.holdback.insert(sequenced)
        if not self.membership.forming:
            self.flush_ready()

    def _on_sequenced_batch(self, batch: SequencedBatch) -> None:
        """Unpack a batch into the holdback buffer.  Entries are filtered
        per message, so a batch whose window straddled a view change (or a
        duplicate retransmission) contributes only its live entries."""
        view_id = self.config.view_id
        messages = batch.messages
        for message in messages:
            # identity first: in the simulator a batch of this view carries
            # the ViewId object every member installed
            stamped = message.config_view_id
            if stamped is not view_id and stamped != view_id:
                messages = tuple(m for m in messages if m.config_view_id == view_id)
                break
        if not messages:
            return
        self.holdback.insert_batch(messages)
        if not self.membership.forming:
            self.flush_ready()

    def flush_ready(self) -> None:
        """Deliver everything now contiguous in the holdback buffer."""
        for message in self.holdback.take_ready():
            self._deliver(message)

    def _prune_holdback(self) -> None:
        """Retain only what a member can still ask for: the holdback is
        cut at the stable point (DESIGN §5 item 4, "what the holdback keeps"),
        ``holdback_keep`` delivered messages back at most."""
        self.stable_floor = self._stable_point()
        self.holdback.prune(self.settings.holdback_keep, self.stable_floor)
        retained = len(self.holdback)
        if retained > self.holdback_retained_max:
            self.holdback_retained_max = retained

    def holdback_stats(self) -> dict[str, int]:
        """The holdback block of ``--stats-json``: entries retained now,
        the most any tick left retained, the last stable point, and the
        cap — a ``retained_max`` at the cap means the stable point stalled."""
        return {
            "retained": len(self.holdback),
            "retained_max": self.holdback_retained_max,
            "stable_floor": self.stable_floor,
            "keep": self.settings.holdback_keep,
        }

    def _stable_point(self) -> int:
        """The least delivery point among this daemon and the latest
        reports of the other configuration members, 0 while one of them
        has not reported in this configuration.  Reports only lag their
        sender's delivery, so every message at or above the stable point
        is kept: any NACK (it names seqs at or above its sender's delivery
        point) can be answered, and any flush union rebuilt."""
        view_id = self.config.view_id
        stable = self.holdback.delivered_upto
        for member in self.config.members:
            if member == self.node_id:
                continue
            report = self._reports.get(member)
            if report is None:
                return 0
            if report[0] is not view_id and report[0] != view_id:
                return 0
            if report[1] < stable:
                stable = report[1]
        return stable

    def _nack_gaps(self) -> None:
        """Lossy links can drop a Sequenced message, leaving a holdback
        gap that would otherwise stall delivery until the next view
        change; ask the sequencer to retransmit the missing range."""
        if (
            self.membership.forming
            or self.config.sequencer == self.node_id
            or self.holdback.gapless()
        ):
            return
        missing = self.holdback.missing_seqs()
        if missing:
            self.send(
                self.config.sequencer,
                NackSeqs(config_view_id=self.config.view_id, seqs=tuple(missing)),
                kind="gcs.nack_seq",
            )

    def _on_nack_seqs(self, nack: NackSeqs, sender: NodeId) -> None:
        if (
            nack.config_view_id != self.config.view_id
            or self.config.sequencer != self.node_id
        ):
            return
        resend: list[Sequenced] = []
        unfillable = False
        # a seq below the peer's own latest report is one it has delivered
        # since: the NACK is a late duplicate, and its pruned seqs are moot
        report = self._reports.get(sender)
        reported = report[1] if report is not None and report[0] == nack.config_view_id else 0
        for seq in nack.seqs:
            message = self.holdback.get(seq)
            if message is not None:
                resend.append(message)
            elif reported <= seq < self.holdback.pruned_below:
                # The peer lags beyond the retransmission horizon: this gap
                # can never be filled in place.  Silently ignoring it (the
                # pre-fix behaviour) stalled the peer forever — heartbeats
                # kept flowing, so no view change ever repaired it.
                unfillable = True
        if unfillable:
            self.trace("gcs.nack_unfillable", peer=str(sender))
            self.send(
                sender,
                ResyncRequired(config_view_id=self.config.view_id),
                kind="gcs.resync",
            )
            return
        if not resend:
            return
        batch = SequencedBatch(
            config_view_id=self.config.view_id, messages=tuple(resend)
        )
        self.send(sender, batch, kind="gcs.sequenced_batch")

    def _on_resync_required(self, resync: ResyncRequired) -> None:
        """The sequencer told us our holdback gap is beyond repair: abandon
        the configuration like a freshly recovered daemon (fresh singleton
        view) — but keep our identity: incarnation, group intents, pending
        requests and the duplicate filter all survive, so re-merging is an
        ordinary join and retransmissions stay idempotent.  The messages we
        missed are lost to us, which is sound precisely because we do *not*
        transition to the next view together with the daemons that
        delivered them (virtual synchrony binds only joint transitions)."""
        if resync.config_view_id != self.config.view_id:
            return
        if len(self.config.members) == 1:
            return
        self.trace("gcs.resync_to_singleton", abandoned=str(self.config.view_id))
        counter = self.membership.restart_as_singleton()
        self._enter(Configuration.make(ViewId(counter, self.node_id), [self.node_id]))
        self._record_member_incarnations()
        self._emit_config_view()
        for group in sorted(set(self.group_map.groups()) | set(self._last_group_view)):
            self._emit_group_view(group, change_seq=0)
        # Announce the new view immediately, so peers spot the divergence
        # and pull us back in.
        self.fd.announce()
        self.membership.reconfigure()

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def _deliver(self, sequenced: Sequenced) -> None:
        request = sequenced.request
        request_id = request.request_id
        if self.dup_filter.is_duplicate(request_id):
            self._settle_request(request_id)
            return
        group = request.group
        members = self.group_map.members(group)
        if group != MEMBERSHIP_GROUP and members.isdisjoint(self.config.members):
            # Nobody can apply this message: treating it as delivered
            # would silently lose it (and poison the duplicate filter
            # across a later merge).  Leave it pending — the origin
            # retransmits until the group has members again, or the
            # client gives up visibly.
            return
        self._settle_request(request_id)
        self.dup_filter.mark_delivered(request_id)
        if self.monitor is not None:
            self.monitor.record_delivery(
                self.node_id, self.config.view_id, sequenced.seq, request
            )
        if group == MEMBERSHIP_GROUP:
            self._apply_membership_event(
                request.payload, sequenced.seq, request_id
            )
            return
        if self.node_id in members and self.app is not None:
            self.app.on_group_message(
                group, request_id, request.payload, sequenced.seq
            )

    def _settle_request(self, request_id: RequestId) -> None:
        """The request is (now known to be) delivered: stop retransmitting
        it and release any client waiting for an end-to-end ack."""
        self.pending.resolve(request_id)
        self._pending_since.pop(request_id, None)
        waiting_client = self._client_acks_pending.pop(request_id, None)
        if waiting_client is not None:
            self.send(waiting_client, ClientAck(request_id), kind="gcs.client_ack")

    def _apply_membership_event(
        self, event: tuple, change_seq: int, request_id: RequestId
    ) -> None:
        action, group, node = event
        # Delivery is not FIFO per origin (a lost join/leave can be
        # retransmitted after newer events): apply an event only if it is
        # the newest we have seen for this (group, node), so a late
        # retransmitted 'join' can never undo a subsequent 'leave'.
        guard_key = (group, str(node), request_id.incarnation)
        if self._membership_event_guard.get(guard_key, -1) >= request_id.counter:
            return
        self._membership_event_guard[guard_key] = request_id.counter
        if action == "join":
            changed = self.group_map.join(group, node)
        else:
            changed = self.group_map.leave(group, node)
        if changed:
            self._emit_group_view(group, change_seq)

    # ------------------------------------------------------------------
    # membership engine plumbing
    # ------------------------------------------------------------------
    def config_divergence_detected(self) -> bool:
        """True when a reachable peer persistently reports a different
        installed configuration — this daemon may be a 'zombie': dropped
        from a reformation it never heard about, still happily serving.
        A grace of two heartbeat intervals filters the ordinary window in
        which peers simply have not heartbeated their new view yet."""
        if not self.settings.detect_divergence:
            return False
        grace = 2 * self.settings.heartbeat_interval
        if self.sim.now - self._config_installed_at < grace:
            return False
        return self.fd.any_divergent(
            self.config.view_id, heard_after=self._config_installed_at + grace
        )

    def incarnations_stale(self) -> bool:
        """True when a current member restarted since the view was
        installed (its heartbeats carry a new incarnation).  A restart is a
        membership change even when the estimate set looks unchanged —
        the restarted peer lost all its state and sits in a singleton
        view, so a new view must be formed to reabsorb it."""
        for member in self.config.members:
            if member == self.node_id:
                continue
            incarnation = self.fd.incarnation_of(member)
            if incarnation is None:
                continue
            if incarnation != self._member_incarnations.get(member, incarnation):
                return True
        return False

    def _record_member_incarnations(self) -> None:
        self._member_incarnations = {}
        for member in self.config.members:
            if member == self.node_id:
                self._member_incarnations[member] = self.incarnation
            else:
                incarnation = self.fd.incarnation_of(member)
                if incarnation is not None:
                    self._member_incarnations[member] = incarnation

    def build_sync_reply(self, attempt: AttemptId, view_counter: int) -> SyncReply:
        return SyncReply(
            attempt=attempt,
            sender=self.node_id,
            config_view_id=self.config.view_id,
            sequenced=self.holdback.all_received(),
            unsequenced=tuple(self.pending.outstanding()),
            my_groups=tuple(sorted(self._my_groups_intent)),
            delivered_counters=self.dup_filter.snapshot(),
            view_counter=view_counter,
            incarnation=self.incarnation,
        )

    def apply_install(self, install: Install) -> None:
        # 1. Finish the old configuration: deliver the agreed tail suffix.
        tail = install.per_config_tail.get(self.config.view_id, ())
        for message in tail:
            if message.seq >= self.holdback.delivered_upto:
                self._deliver(message)
        # 2. Switch to the new configuration.
        self._enter(
            Configuration.make(install.view_id, install.members),
            next_seq=len(install.orphans),
        )
        # Incarnations come from the members' own sync replies — the only
        # authoritative source (the failure detector may not have heard a
        # restarted member's first new-incarnation heartbeat yet).
        if install.member_incarnations:
            self._member_incarnations = dict(install.member_incarnations)
        else:
            self._record_member_incarnations()
        self.group_map = GroupMap.from_snapshot(install.group_map)
        self.dup_filter.merge(install.delivered_counters)
        # Requests orphaned by the old configuration's death are delivered
        # at the head of the new configuration (never re-using old
        # sequence numbers, which may have been bound to other requests by
        # the dead sequencer).  Every member seeds the same list, so the
        # new configuration starts with an agreed prefix.
        for seq, request in enumerate(install.orphans):
            self.holdback.insert(
                Sequenced(
                    config_view_id=self.config.view_id,
                    seq=seq,
                    request=request,
                )
            )
        self.trace(
            "gcs.view_installed",
            view=str(install.view_id),
            members=install.members,
        )
        self._emit_config_view()
        groups_to_emit = set(self.group_map.groups()) | set(self._last_group_view)
        for group in sorted(groups_to_emit):
            self._emit_group_view(group, change_seq=0)
        # 3. Deliver the seeded orphan prefix, then re-drive any still
        # interrupted requests into the new configuration.
        self.flush_ready()
        for request in self.pending.outstanding():
            self._pending_since[request.request_id] = self.sim.now
            self._send_order_request(request)

    def _emit_config_view(self) -> None:
        if self.monitor is not None:
            self.monitor.record_config_view(self.node_id, self.config)
        if self.app is not None:
            self.app.on_config_view(self.config)

    def _emit_group_view(self, group: str, change_seq: int) -> None:
        view = self.group_map.view(group, self.config, change_seq)
        previous = self._last_group_view.get(group)
        if self.node_id in view.members:
            self._last_group_view[group] = view
        elif previous is not None:
            del self._last_group_view[group]
        else:
            return  # never was a member; nothing to tell the app
        if self.monitor is not None:
            self.monitor.record_group_view(self.node_id, view)
        if self.app is not None:
            self.app.on_group_view(view)

    # ------------------------------------------------------------------
    # client injection (open groups)
    # ------------------------------------------------------------------
    def _on_client_mcast(self, mcast: ClientMcast, sender: NodeId) -> None:
        if self.dup_filter.is_duplicate(mcast.request_id):
            # Already delivered (e.g. the client retried through us after
            # another contact succeeded): acknowledge straight away.
            self.send(sender, ClientAck(mcast.request_id), kind="gcs.client_ack")
            return
        if not self.members_of(mcast.group):
            # No member of the target group is reachable in this daemon's
            # configuration — e.g. it just recovered into a transient
            # singleton view with a fresh group map.  Accepting the
            # injection would "deliver" the message to nobody while the
            # duplicate filter (merged into the next configuration)
            # permanently suppresses any redelivery: an acknowledged
            # update would vanish.  Stay silent instead; the client's ack
            # timeout rotates it to a contact that can actually deliver.
            self.trace("gcs.client_mcast_refused", group=mcast.group)
            return
        if self.settings.end_to_end_client_acks:
            # End-to-end acknowledgement: ack only when the request is
            # actually *delivered* in the total order (see _deliver).  If
            # we crash first, the client times out and retries through
            # another contact; the duplicate filter keeps delivery
            # exactly-once.
            self._client_acks_pending[mcast.request_id] = sender
        else:
            # Ablation: acknowledge on receipt (fire-and-forget handoff to
            # the ordering layer) — a contact crash can now silently drop
            # an acknowledged update.
            self.send(sender, ClientAck(mcast.request_id), kind="gcs.client_ack")
        request = OrderRequest(
            request_id=mcast.request_id, group=mcast.group, payload=mcast.payload
        )
        self._submit(mcast.group, mcast.payload, request=request)

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        payload = message.payload
        if self.fd.on_message(payload, message.sender):
            # a heartbeat: it reports its author's delivery point
            # (compared with the view id at the tick)
            if payload.sender in self.config.members:
                self._reports[payload.sender] = (
                    payload.config_view_id,
                    payload.delivered_upto,
                )
            return
        if self.settings.piggyback_liveness:
            # Any protocol message is liveness evidence for its sender
            # (delivery metadata carries the sender), which is what lets
            # the sender suppress explicit heartbeats on busy links.
            self.fd.observe_traffic(message.sender)
        if isinstance(payload, SequencedBatch):
            self._on_sequenced_batch(payload)
        elif isinstance(payload, OrderRequest):
            self._on_order_request(payload)
        elif isinstance(payload, ResyncRequired):
            self._on_resync_required(payload)
        elif isinstance(payload, Propose):
            self.membership.on_propose(payload, message.sender)
        elif isinstance(payload, SyncReply):
            self.membership.on_sync_reply(payload)
        elif isinstance(payload, Install):
            self.membership.on_install(payload)
        elif isinstance(payload, ProposeNack):
            self.membership.on_propose_nack(payload)
        elif isinstance(payload, NackSeqs):
            self._on_nack_seqs(payload, message.sender)
        elif isinstance(payload, ClientMcast):
            self._on_client_mcast(payload, message.sender)
        elif isinstance(payload, PtpData):
            if self.app is not None:
                self.app.on_ptp(message.sender, payload.payload)
        else:  # pragma: no cover - defensive
            self.trace("gcs.unknown_payload", type=type(payload).__name__)


__all__ = ["GcsDaemon"]
