"""View formation: coordinator-driven membership agreement with a flush
round (virtual synchrony).

The protocol, per formation attempt:

1. A daemon whose failure detector's estimate changed — and which is the
   smallest id in its estimate — becomes *coordinator* and sends
   ``PROPOSE(attempt, members)`` to the estimate.
2. Each recipient that finds itself in the proposal *accepts* (if the
   attempt id is the largest it has seen), stops delivering messages of its
   current configuration (it keeps receiving and recording them), and sends
   the coordinator a ``SYNC`` reply carrying everything it received in that
   configuration plus its own not-yet-sequenced requests.
3. When the coordinator holds replies from every proposed member it computes,
   for each *prior configuration* represented among the replies, the union
   of that configuration's messages (re-sequencing orphaned requests), picks
   a new view id larger than anything reported, merges the group map from
   the members' self-reports, and sends ``INSTALL``.
4. Each member delivers the not-yet-delivered suffix of its own prior
   configuration's union — so members that move together deliver the same
   set — and then switches to the new configuration.

Failures during formation are handled by restarting with a larger attempt
id: the coordinator restarts when a reply times out (dropping the silent
member from its estimate) or when it is NACKed by a member with a higher
view counter; participants fall back to reconfiguration when the INSTALL
does not arrive in time.  Concurrent coordinators in one component resolve
by attempt-id order; coordinators in different components form separate
views, which is precisely the partitionable behaviour the paper builds on.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

from repro.gcs.messages import (
    AttemptId,
    Install,
    Propose,
    ProposeNack,
    SyncReply,
)
from repro.gcs.groups import GroupMap
from repro.gcs.ordering import DuplicateFilter, collect_orphans, flush_union
from repro.gcs.view import ViewId
from repro.sim.topology import NodeId

if TYPE_CHECKING:  # pragma: no cover
    from repro.gcs.daemon import GcsDaemon


class MembershipEngine:
    """The view-formation state machine of one daemon.

    The engine owns both roles: *participant* (accepting proposals,
    answering syncs, awaiting installs) and *coordinator* (driving an
    attempt).  A daemon may play both at once — every coordinator is also a
    participant in its own attempt.
    """

    def __init__(self, daemon: "GcsDaemon") -> None:
        self.daemon = daemon
        self.me: NodeId = daemon.node_id
        self.settings = daemon.settings
        self.view_counter = 0  # survives a crash: view ids only grow
        self.reset()

    # ------------------------------------------------------------------
    # triggers
    # ------------------------------------------------------------------
    def reconfigure(self) -> None:
        """React to a failure-detector change (or a stuck-state timeout)."""
        estimate = self.daemon.fd.alive_set()
        current = set(self.daemon.config.members)
        if (
            estimate == current
            and not self.forming
            and self._attempt is None
            and not self.daemon.incarnations_stale()
            and not self.daemon.config_divergence_detected()
        ):
            self._awaited = None
            return
        coordinator = min(estimate, key=str)
        if coordinator == self.me:
            self._start_attempt(estimate)
        else:
            # Someone else should coordinate; remember who and since when,
            # so a silent coordinator can be abandoned (asymmetric links).
            if self._attempt is not None:
                self._abandon_coordination()
            if self._awaited is None or self._awaited[0] != coordinator:
                self._awaited = (coordinator, self.daemon.sim.now)

    def next_deadline(self) -> float:
        """The earliest instant :meth:`on_tick` has a wait to expire:
        sync replies (coordinator), the install (participant), or a
        proposal from the expected coordinator; ``inf`` when idle."""
        return min(
            self._sync_deadline, self._install_deadline, self._proposal_deadline()
        )

    def _proposal_deadline(self) -> float:
        if self._awaited is None or self.forming or self._attempt is not None:
            return math.inf
        return self._awaited[1] + self.settings.install_timeout

    def on_tick(self) -> None:
        """Expire the sync/install/proposal waits that have run out (the
        daemon calls this every tick and at :meth:`next_deadline`)."""
        now = self.daemon.sim.now
        if now >= self._sync_deadline:
            self._on_sync_timeout()
        if now >= self._install_deadline:
            self._on_install_timeout()
        if now >= self._proposal_deadline():
            # The expected coordinator never proposed to us (it may not be
            # able to hear us).  Drop it from the estimate and retry.
            silent, _since = self._awaited
            self._awaited = None
            self.daemon.trace("gcs.coordinator_silent", coordinator=silent)
            self.daemon.fd.forget(silent)
            self.reconfigure()

    def reset(self) -> None:
        """Forget all formation state (construction, process recovery and
        resync); only ``view_counter`` is kept."""
        # participant state
        self.accepted_attempt: AttemptId | None = None
        self.forming = False
        self._install_deadline = math.inf  # inf: not awaiting an install
        # (expected coordinator, since when) — set and cleared as one
        self._awaited: tuple[NodeId, float] | None = None
        self._abandon_coordination()

    def restart_as_singleton(self) -> int:
        """Abandon the current configuration (used when the sequencer
        reports an unfillable holdback gap): drop all formation state and
        return a fresh view counter — strictly above everything seen — for
        the singleton view the daemon falls back to before re-merging."""
        self.reset()
        self.view_counter = (
            max(self.view_counter, self.daemon.fd.max_view_counter_seen) + 1
        )
        return self.view_counter

    # ------------------------------------------------------------------
    # coordinator role
    # ------------------------------------------------------------------
    def _start_attempt(self, members: Iterable[NodeId]) -> None:
        self.view_counter = max(
            self.view_counter, self.daemon.fd.max_view_counter_seen
        )
        self.view_counter += 1
        attempt = AttemptId(counter=self.view_counter, coordinator=self.me)
        self._attempt = attempt
        self._attempt_members = tuple(sorted(members, key=str))
        self._replies = {}
        self._sync_deadline = self.daemon.sim.now + self.settings.sync_timeout
        self._awaited = None
        self.daemon.trace(
            "gcs.propose", attempt=str(attempt.counter), members=self._attempt_members
        )
        proposal = Propose(attempt=attempt, members=self._attempt_members)
        for member in self._attempt_members:
            self.daemon.send_protocol(member, proposal, kind="gcs.propose")

    def _abandon_coordination(self) -> None:
        """Drop the coordinator state (no attempt of ours running)."""
        self._attempt: AttemptId | None = None
        self._attempt_members: tuple[NodeId, ...] = ()
        self._replies: dict[NodeId, SyncReply] = {}
        self._sync_deadline = math.inf  # inf: no attempt of ours running

    def _on_sync_timeout(self) -> None:
        """Some proposed members never replied: drop them and retry."""
        missing = [m for m in self._attempt_members if m not in self._replies]
        self.daemon.trace("gcs.sync_timeout", missing=missing)
        for member in missing:
            if member != self.me:
                self.daemon.fd.forget(member)
        responders = set(self._replies) | {self.me}
        self._abandon_coordination()
        self._start_attempt(responders)

    def on_sync_reply(self, reply: SyncReply) -> None:
        if self._attempt is None or reply.attempt != self._attempt:
            return
        self._replies[reply.sender] = reply
        self.view_counter = max(self.view_counter, reply.view_counter)
        if all(member in self._replies for member in self._attempt_members):
            self._finish_attempt()

    def _finish_attempt(self) -> None:
        attempt = self._attempt
        assert attempt is not None
        replies = dict(self._replies)
        members = self._attempt_members

        highest = max(
            [self.view_counter]
            + [r.view_counter for r in replies.values()]
            + [r.config_view_id.counter for r in replies.values()]
        )
        new_counter = highest + 1
        self.view_counter = new_counter
        view_id = ViewId(counter=new_counter, coordinator=self.me)

        # Flush: one definitive tail per prior configuration.
        by_config: dict[ViewId, list[SyncReply]] = {}
        for reply in replies.values():
            by_config.setdefault(reply.config_view_id, []).append(reply)
        per_config_tail = {}
        for config_view_id, config_replies in by_config.items():
            tail = flush_union([r.sequenced for r in config_replies])
            per_config_tail[config_view_id] = tuple(tail)
        orphans = collect_orphans(
            [list(tail) for tail in per_config_tail.values()],
            [r.unsequenced for r in replies.values()],
        )

        # Each member is authoritative for its own group memberships.
        group_map = GroupMap.from_reports(
            {sender: reply.my_groups for sender, reply in replies.items()}
        )
        delivered = DuplicateFilter.merge_snapshots(
            [r.delivered_counters for r in replies.values()]
        )
        member_incarnations = {
            sender: reply.incarnation for sender, reply in replies.items()
        }

        install = Install(
            attempt=attempt,
            view_id=view_id,
            members=members,
            per_config_tail=per_config_tail,
            group_map=group_map.snapshot(),
            delivered_counters=delivered,
            member_incarnations=member_incarnations,
            orphans=tuple(orphans),
        )
        self.daemon.trace(
            "gcs.install_sent", view=str(view_id), members=members
        )
        self._abandon_coordination()
        for member in members:
            self.daemon.send_protocol(
                member,
                install,
                kind="gcs.install",
                size=20 + sum(len(t) for t in per_config_tail.values()),
            )

    # ------------------------------------------------------------------
    # participant role
    # ------------------------------------------------------------------
    def on_propose(self, proposal: Propose, sender: NodeId) -> None:
        if self.me not in proposal.members:
            return
        if proposal.attempt.counter <= self.daemon.config.view_id.counter:
            # Stale coordinator (e.g. the small-id side of a healed
            # partition): tell it how far the world has moved.
            self.daemon.send_protocol(
                proposal.attempt.coordinator,
                ProposeNack(attempt=proposal.attempt, view_counter=self.view_counter),
                kind="gcs.nack",
            )
            return
        if self.accepted_attempt is not None and proposal.attempt <= self.accepted_attempt:
            return
        self.view_counter = max(self.view_counter, proposal.attempt.counter)
        if self._attempt is not None and self._attempt < proposal.attempt:
            self._abandon_coordination()
        self.accepted_attempt = proposal.attempt
        self.forming = True
        self._install_deadline = self.daemon.sim.now + self.settings.install_timeout
        self._awaited = None
        reply = self.daemon.build_sync_reply(proposal.attempt, self.view_counter)
        self.daemon.send_protocol(
            proposal.attempt.coordinator,
            reply,
            kind="gcs.sync",
            size=20 + len(reply.sequenced) + len(reply.unsequenced),
        )

    def on_propose_nack(self, nack: ProposeNack) -> None:
        if self._attempt is None or nack.attempt != self._attempt:
            return
        self.view_counter = max(self.view_counter, nack.view_counter)
        members = set(self._attempt_members)
        self._abandon_coordination()
        self._start_attempt(members)

    def on_install(self, install: Install) -> None:
        if install.attempt != self.accepted_attempt:
            return
        self.view_counter = max(self.view_counter, install.view_id.counter)
        self.accepted_attempt = None
        self.forming = False
        self._install_deadline = math.inf
        # A wait for a coordinator begun before this install (the estimate
        # changed while we were forming) is answered or obsolete: left
        # standing, it would declare the coordinator of this very view
        # silent ``install_timeout`` from now.
        self._awaited = None
        self.daemon.apply_install(install)

    def _on_install_timeout(self) -> None:
        """The coordinator we synced with went silent: resume and retry."""
        attempt = self.accepted_attempt
        self.accepted_attempt = None
        self.forming = False
        self._install_deadline = math.inf
        if attempt is not None and attempt.coordinator != self.me:
            self.daemon.trace("gcs.install_timeout", coordinator=attempt.coordinator)
            self.daemon.fd.forget(attempt.coordinator)
        # Delivery was withheld while forming; release what is ready.
        self.daemon.flush_ready()
        self.reconfigure()


__all__ = ["MembershipEngine"]
