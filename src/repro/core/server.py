"""The framework server (Sections 3.3–3.4).

A :class:`FrameworkServer` owns a GCS daemon and implements the paper's
server-side logic:

* joins the **service group** and one **content group** per hosted unit;
* answers client discovery requests;
* on a ``start-session`` multicast, every content-group member updates its
  unit database and runs the same deterministic selection function; the
  chosen primary and backups join the session group, and the primary
  notifies the client;
* the primary streams responses point-to-point, applies client context
  updates, and periodically propagates context snapshots to the content
  group; backups record the client updates they see;
* on a **failure-type** content view change, members reallocate
  immediately without exchanging messages (virtual synchrony guarantees
  identical unit databases); on a **join-type** change they first run a
  state exchange, merge deterministically, then rebalance;
* controlled migrations hand off the exact context old-primary to
  new-primary; failure takeovers resolve the response-uncertainty window
  through the configured :class:`~repro.core.responses.UncertaintyPolicy`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Iterable

from repro.core.application import ResponseBody, ServiceApplication
from repro.core.config import AvailabilityPolicy
from repro.core.context import BackupContext, ContextSnapshot, PrimaryContext
from repro.core.selection import allocate_sessions, select_for_session
from repro.core.unit_db import UnitDatabase
from repro.core.wire import (
    ContextUpdate,
    EndSession,
    Handoff,
    ListUnitsRequest,
    Propagate,
    RebalanceRequest,
    ResponseMsg,
    SessionEnded,
    SessionStarted,
    StartSession,
    StateExchange,
    UnitList,
    content_group,
    service_group,
    session_group,
)
from repro.faults.schedule import CRASH_HOOKS
from repro.gcs.daemon import GcsDaemon
from repro.gcs.settings import GcsSettings
from repro.gcs.spec import SpecMonitor
from repro.gcs.view import Configuration, GroupView
from repro.net.codec import frame_size
from repro.sim.network import Network
from repro.sim.topology import NodeId

#: A primary sends a full snapshot at least every this-many propagations,
#: even where deltas are smaller: it bounds how long a receiver at an
#: epoch gap (one that missed a delta's base) stays stale.
FULL_PROPAGATION_EVERY = 8

#: How long a server stays in a session group after losing its role
#: there, so replacements join before it leaves (the paper's
#: join-first-then-leave rule).
LEAVE_GRACE = 0.5


@dataclass
class _PrimaryRuntime:
    """Live state of a session this server is currently primary for."""

    session_id: str
    unit_id: str
    client_id: NodeId
    ctx: PrimaryContext
    awaiting_handoff: bool = False
    pending_updates: list[tuple[int, Any]] = field(default_factory=list)
    finished: bool = False
    timer_armed: bool = False
    response_event = None
    propagation_timer = None
    # delta propagation bookkeeping: how many deltas since the last full
    # snapshot, and the content view the receivers of that full saw (None:
    # the next propagation must be full)
    deltas_since_full: int = 0
    propagated_view_key: tuple | None = None


@dataclass
class _LingeringPrimary:
    """A demoted-but-alive primary: keeps absorbing client updates during
    the leave-grace window and forwards them to the successor in fresh
    handoffs, so a controlled migration loses nothing."""

    session_id: str
    unit_id: str
    ctx: PrimaryContext
    successor: NodeId


class FrameworkServer:
    """One service server: GCS daemon + the framework's availability logic.

    Args:
        server_id: the server's node id.
        network: simulated network.
        world: all server ids (GCS heartbeat world).
        hosted_units: content units this server replicates.
        applications: ``unit_id -> ServiceApplication`` for hosted units.
        catalog: full ``unit_id -> content group name`` map of the service
            (static placement knowledge; every server can answer client
            discovery with the whole catalog).
        policy: the availability policy (backups, propagation period, ...).
        settings: GCS timing settings.
        monitor: optional GCS spec monitor.
    """

    def __init__(
        self,
        server_id: NodeId,
        network: Network,
        world: Iterable[NodeId],
        hosted_units: Iterable[str],
        applications: dict[str, ServiceApplication],
        catalog: dict[str, str],
        policy: AvailabilityPolicy | None = None,
        settings: GcsSettings | None = None,
        monitor: SpecMonitor | None = None,
    ) -> None:
        self.server_id = server_id
        self.policy = policy or AvailabilityPolicy()
        self.hosted_units = sorted(hosted_units)
        self.applications = dict(applications)
        self.catalog = dict(catalog)
        self.daemon = GcsDaemon(
            server_id,
            network,
            world=world,
            app=self,
            settings=settings,
            monitor=monitor,
        )
        self.sim = self.daemon.sim
        self.counters: Counter = Counter()
        # chaos instrumentation: armed crash-at-step traps.  Deliberately
        # NOT part of the volatile state — a trap armed while the server is
        # down survives recovery (the fault, not the server, owns it).
        self._crash_hooks: Counter = Counter()
        self._reset_volatile()

    def _reset_volatile(self) -> None:
        self.unit_dbs: dict[str, UnitDatabase] = {
            unit: UnitDatabase(unit) for unit in self.hosted_units
        }
        self.primaries: dict[str, _PrimaryRuntime] = {}
        self.backups: dict[str, BackupContext] = {}
        self._backup_units: dict[str, str] = {}
        self._lingering: dict[str, _LingeringPrimary] = {}
        self._content_views: dict[str, GroupView] = {}
        self._content_incarnations: dict[str, dict[NodeId, int]] = {}
        self._exchanges: dict[str, dict] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.daemon.start()
        self._join_groups()

    def _join_groups(self) -> None:
        """Join the service group and each hosted unit's content group."""
        self.daemon.join(service_group())
        for unit in self.hosted_units:
            self.daemon.join(content_group(unit))

    def crash(self) -> None:
        self.daemon.crash()

    def recover(self) -> None:
        self.daemon.recover()

    def is_up(self) -> bool:
        return self.daemon.is_up()

    def on_daemon_recovered(self) -> None:
        """After a restart the server re-joins its groups; a join-type
        view change then re-integrates it (state exchange + rebalance).

        Session *roles* and live contexts are always volatile.  The unit
        database is volatile too in the paper's design; with
        ``policy.durable_unit_db`` it survives the restart (as if read
        back from disk), so even a whole-cluster crash only suspends
        sessions instead of erasing them."""
        preserved = self.unit_dbs if self.policy.durable_unit_db else None
        self._reset_volatile()
        if preserved is not None:
            self.unit_dbs = preserved
        self._join_groups()

    # ------------------------------------------------------------------
    # chaos crash hooks
    # ------------------------------------------------------------------
    def arm_crash_hook(self, hook: str, times: int = 1) -> None:
        """Arm a crash that fires the next ``times`` times this server
        enters the named protocol step (see :data:`CRASH_HOOKS`)."""
        if hook not in CRASH_HOOKS:
            raise ValueError(f"unknown crash hook {hook!r} (valid: {CRASH_HOOKS})")
        self._crash_hooks[hook] += times

    def disarm_crash_hooks(self) -> None:
        """Drop every armed-but-unfired trap (the chaos heal phase calls
        this so a leftover trap cannot crash the server during the
        convergence window the oracles treat as fault-free)."""
        self._crash_hooks.clear()

    def _chaos_hook(self, hook: str) -> None:
        if self._crash_hooks.get(hook, 0) <= 0:
            return
        self._crash_hooks[hook] -= 1
        self.daemon.trace("fw.crash_hook", hook=hook)
        # Die *at this instant* without dying inline: muting output makes
        # everything the current handler says after the hook point vanish
        # (the crash is semantically here), while the actual teardown runs
        # as a zero-delay event so the handler finishes without tripping
        # over set_timer-on-a-crashed-process.
        self.daemon.mute_sends()
        self.sim.schedule(0.0, self.crash, label=f"crash-hook:{self.server_id}")

    # ------------------------------------------------------------------
    # introspection used by experiments and tests
    # ------------------------------------------------------------------
    def primary_sessions(self) -> frozenset[str]:
        """Sessions this server currently holds the primary role for."""
        return frozenset(self.primaries)

    def serving_sessions(self) -> frozenset[str]:
        """Primary sessions actually responding (not awaiting a handoff)."""
        return frozenset(
            sid for sid, rt in self.primaries.items() if not rt.awaiting_handoff
        )

    def backup_sessions(self) -> frozenset[str]:
        return frozenset(self.backups)

    # ------------------------------------------------------------------
    # GcsApplication callbacks
    # ------------------------------------------------------------------
    def on_config_view(self, config: Configuration) -> None:
        self.counters["config_views"] += 1

    def on_group_view(self, view: GroupView) -> None:
        group = view.group
        if group.startswith("content:"):
            self._on_content_view(group.split(":", 1)[1], view)
        elif group.startswith("session:"):
            self.counters["session_views"] += 1
        elif group == service_group():
            self.counters["service_views"] += 1

    def on_group_message(
        self, group: str, origin: NodeId, payload: object, seq: int
    ) -> None:
        # propagations are most of what a content group delivers
        if isinstance(payload, Propagate):
            self._on_propagate(payload)
        elif isinstance(payload, StartSession):
            self._on_start_session(payload)
        elif isinstance(payload, ContextUpdate):
            self._on_context_update(payload)
        elif isinstance(payload, EndSession):
            self._on_end_session(payload)
        elif isinstance(payload, SessionEnded):
            self._on_session_ended(payload)
        elif isinstance(payload, StateExchange):
            self._on_state_exchange(payload)
        elif isinstance(payload, RebalanceRequest):
            self._on_rebalance_request(payload)
        elif isinstance(payload, ListUnitsRequest):
            self._on_list_units(payload)
        else:
            self.counters["unknown_group_msg"] += 1

    def on_ptp(self, sender: NodeId, payload: object) -> None:
        if isinstance(payload, Handoff):
            self._on_handoff(payload)
        else:
            self.counters["unknown_ptp"] += 1

    # ------------------------------------------------------------------
    # client discovery (service group)
    # ------------------------------------------------------------------
    def _on_list_units(self, request: ListUnitsRequest) -> None:
        members = self.daemon.members_of(service_group())
        if not members or min(members, key=str) != self.server_id:
            return  # exactly one member answers
        units = tuple(sorted(self.catalog.items()))
        self.daemon.send_ptp(request.client_id, UnitList(units=units))
        self.counters["catalog_replies"] += 1

    # ------------------------------------------------------------------
    # session establishment (content group)
    # ------------------------------------------------------------------
    def _on_start_session(self, message: StartSession) -> None:
        unit = message.unit_id
        db = self.unit_dbs.get(unit)
        if db is None:
            return
        if message.session_id in db:
            return  # duplicate start (client retry)
        app = self.applications[unit]
        initial = ContextSnapshot(
            app_state=app.initial_state(unit, message.params),
            stamped_at=self.sim.now,
        )
        record = db.add_session(
            message.session_id, message.client_id, message.params, initial
        )
        members = self._current_content_members(unit)
        loads = {member: db.load_of(member) for member in members}
        primary, backups = select_for_session(
            record,
            members,
            self.policy.num_backups,
            loads,
            prefer_backups=self.policy.prefer_backup_promotion,
        )
        db.set_allocation(message.session_id, primary, backups)
        self.counters["sessions_started"] += 1
        if primary == self.server_id:
            self._start_primary(
                message.session_id,
                unit,
                message.client_id,
                initial,
                uncertain=False,
                notify=True,
            )
        elif self.server_id in backups:
            self._start_backup(message.session_id, unit, initial)

    def _current_content_members(self, unit: str) -> tuple[NodeId, ...]:
        view = self._content_views.get(unit)
        if view is not None:
            return view.members
        return tuple(sorted(self.daemon.members_of(content_group(unit)), key=str))

    # ------------------------------------------------------------------
    # primary role
    # ------------------------------------------------------------------
    def _start_primary(
        self,
        session_id: str,
        unit: str,
        client_id: NodeId,
        snapshot: ContextSnapshot,
        uncertain: bool,
        notify: bool = False,
        await_handoff: bool = False,
    ) -> None:
        if session_id in self.primaries:
            return
        app = self.applications[unit]
        ctx = PrimaryContext.from_snapshot(snapshot)
        runtime = _PrimaryRuntime(
            session_id=session_id,
            unit_id=unit,
            client_id=client_id,
            ctx=ctx,
            awaiting_handoff=await_handoff,
        )
        self.primaries[session_id] = runtime
        self.daemon.join(session_group(session_id))
        self.daemon.trace(
            "fw.promote",
            session=session_id,
            unit=unit,
            uncertain=uncertain,
            await_handoff=await_handoff,
        )
        self.counters["promotions"] += 1

        if uncertain and not await_handoff:
            # The old primary may have kept sending from the snapshot's
            # capture until its crash; 'elapsed' is the only bound a
            # successor has (it includes detection latency, so skip-style
            # policies over-skip slightly — exactly the loss the paper's
            # tradeoff accepts).
            window = max(0.0, self.sim.now - snapshot.stamped_at)
            estimated = app.estimate_emitted(ctx.app_state, window)
            state, resend = self.policy.uncertainty_policy.resolve(
                app, ctx.app_state, estimated
            )
            ctx.app_state = state
            for response in resend:
                self._send_response(runtime, response, uncertain=True)
            self.counters["uncertain_windows"] += 1

        if notify:
            self.daemon.send_ptp(
                client_id,
                SessionStarted(
                    session_id=session_id,
                    session_group=session_group(session_id),
                    primary=self.server_id,
                ),
            )
        if await_handoff:
            self.daemon.set_timer(
                self.policy.handoff_timeout,
                lambda: self._handoff_timeout(session_id),
                label="handoff-timeout",
            )
        runtime.propagation_timer = self.daemon.set_periodic_timer(
            self.policy.propagation_period,
            lambda: self._propagate(session_id),
            label=f"propagate:{session_id}",
        )
        self._arm_response_timer(session_id)
        self._chaos_hook("post-promote")

    def _stop_primary(self, session_id: str, successor: NodeId | None) -> None:
        runtime = self.primaries.pop(session_id, None)
        if runtime is None:
            return
        if runtime.response_event is not None:
            runtime.response_event.cancel()
        if runtime.propagation_timer is not None:
            runtime.propagation_timer.stop()
        self.daemon.trace(
            "fw.demote", session=session_id, successor=successor
        )
        self.counters["demotions"] += 1
        if successor is not None and successor != self.server_id:
            lingering = _LingeringPrimary(
                session_id=session_id,
                unit_id=runtime.unit_id,
                ctx=runtime.ctx,
                successor=successor,
            )
            self._lingering[session_id] = lingering
            self._send_handoff(lingering)
            self.daemon.set_timer(
                LEAVE_GRACE,
                lambda: self._finish_lingering(session_id),
                label="leave-grace",
            )
        else:
            self._leave_session_group_later(session_id)

    def _finish_lingering(self, session_id: str) -> None:
        self._lingering.pop(session_id, None)
        if (
            session_id not in self.primaries
            and session_id not in self.backups
        ):
            self.daemon.leave(session_group(session_id))

    def _leave_session_group_later(self, session_id: str) -> None:
        def leave() -> None:
            if (
                session_id not in self.primaries
                and session_id not in self.backups
                and session_id not in self._lingering
            ):
                self.daemon.leave(session_group(session_id))

        self.daemon.set_timer(LEAVE_GRACE, leave, label="leave-grace")

    def _send_handoff(self, lingering: _LingeringPrimary) -> None:
        self._chaos_hook("pre-handoff")
        snapshot = lingering.ctx.snapshot(self.sim.now)
        self.daemon.send_ptp(
            lingering.successor,
            Handoff(
                session_id=lingering.session_id,
                unit_id=lingering.unit_id,
                snapshot=snapshot,
            ),
            size=4,
        )
        self.counters["handoffs_sent"] += 1

    def _adopt_snapshot(
        self, runtime: _PrimaryRuntime, snapshot: ContextSnapshot
    ) -> bool:
        """Replace the runtime context with a strictly more knowledgeable
        snapshot (replaying any pending updates it missed); returns
        whether an adoption happened.

        The epoch is deliberately NOT compared: epochs of concurrent
        primaries (a transient dual-primary during instability) are
        different lineages, and an epoch-fresher but update-poorer context
        must never overwrite updates this primary already applied."""
        incoming = (snapshot.update_counter, snapshot.response_counter)
        current = (runtime.ctx.update_counter, runtime.ctx.response_counter)
        if incoming <= current:
            return False
        app = self.applications[runtime.unit_id]
        ctx = PrimaryContext.from_snapshot(snapshot)
        for counter, update in sorted(runtime.pending_updates):
            if counter > ctx.update_counter:
                ctx.app_state = app.apply_update(ctx.app_state, update)
                ctx.update_counter = counter
        ctx.epoch = max(ctx.epoch, runtime.ctx.epoch)
        runtime.ctx = ctx
        return True

    def _on_handoff(self, handoff: Handoff) -> None:
        runtime = self.primaries.get(handoff.session_id)
        if runtime is None:
            return
        if runtime.awaiting_handoff:
            runtime.awaiting_handoff = False
            self.counters["handoffs_adopted"] += 1
        if self._adopt_snapshot(runtime, handoff.snapshot):
            self._chaos_hook("post-handoff")
        # the adopted context may have changed the streaming cadence
        # (e.g. a 'resume' the successor never saw): ensure a timer runs
        self._arm_response_timer(handoff.session_id)

    def _handoff_timeout(self, session_id: str) -> None:
        runtime = self.primaries.get(session_id)
        if runtime is None or not runtime.awaiting_handoff:
            return
        runtime.awaiting_handoff = False
        self.counters["handoff_timeouts"] += 1

    # ------------------------------------------------------------------
    # responses
    # ------------------------------------------------------------------
    def _arm_response_timer(self, session_id: str) -> None:
        runtime = self.primaries.get(session_id)
        if runtime is None or runtime.finished or runtime.timer_armed:
            return
        app = self.applications[runtime.unit_id]
        interval = app.response_interval(runtime.ctx.app_state)
        if interval is None:
            return  # paused or request/response service; updates re-arm
        runtime.timer_armed = True
        runtime.response_event = self.daemon.set_timer(
            interval,
            lambda: self._response_tick(session_id),
            label=f"respond:{session_id}",
        )

    def _response_tick(self, session_id: str) -> None:
        runtime = self.primaries.get(session_id)
        if runtime is None:
            return
        runtime.timer_armed = False
        app = self.applications[runtime.unit_id]
        if not runtime.awaiting_handoff:
            state, responses = app.next_responses(runtime.ctx.app_state)
            runtime.ctx.app_state = state
            for response in responses:
                self._send_response(runtime, response, uncertain=False)
            if app.is_finished(state):
                runtime.finished = True
                return
        self._arm_response_timer(session_id)

    def _send_response(
        self, runtime: _PrimaryRuntime, response: ResponseBody, uncertain: bool
    ) -> None:
        self.daemon.send_ptp(
            runtime.client_id,
            ResponseMsg(
                session_id=runtime.session_id,
                index=response.index,
                klass=response.klass,
                body=response.body,
                based_on_update=runtime.ctx.update_counter,
                uncertain=uncertain,
                size=response.size,
            ),
            size=response.size,
        )
        runtime.ctx.response_counter += 1
        self.counters["responses_sent"] += 1

    # ------------------------------------------------------------------
    # context updates (session group)
    # ------------------------------------------------------------------
    def _on_context_update(self, update: ContextUpdate) -> None:
        session_id = update.session_id
        runtime = self.primaries.get(session_id)
        if runtime is not None:
            app = self.applications[runtime.unit_id]
            if update.counter > runtime.ctx.update_counter:
                runtime.ctx.app_state = app.apply_update(
                    runtime.ctx.app_state, update.update
                )
                runtime.ctx.update_counter = update.counter
                runtime.pending_updates.append((update.counter, update.update))
                if len(runtime.pending_updates) > 64:
                    del runtime.pending_updates[:-64]
                self._chaos_hook("post-update")
                if not runtime.awaiting_handoff:
                    state, responses = app.respond_to_update(
                        runtime.ctx.app_state, update.update
                    )
                    runtime.ctx.app_state = state
                    for response in responses:
                        self._send_response(runtime, response, uncertain=False)
                    # the update may have changed the streaming cadence
                    # (e.g. a VoD 'resume'): make sure a timer is armed
                    self._arm_response_timer(session_id)
            self.counters["updates_primary"] += 1
            return
        lingering = self._lingering.get(session_id)
        if lingering is not None:
            app = self.applications[lingering.unit_id]
            if update.counter > lingering.ctx.update_counter:
                lingering.ctx.app_state = app.apply_update(
                    lingering.ctx.app_state, update.update
                )
                lingering.ctx.update_counter = update.counter
                self._send_handoff(lingering)
            return
        if session_id in self.backups:
            self.backups[session_id].apply_update(update.counter, update.update)
            self.counters["updates_backup"] += 1

    # ------------------------------------------------------------------
    # backup role
    # ------------------------------------------------------------------
    def _start_backup(self, session_id: str, unit: str, snapshot: ContextSnapshot) -> None:
        if session_id in self.backups or session_id in self.primaries:
            return
        self.backups[session_id] = BackupContext(base=snapshot)
        self._backup_units[session_id] = unit
        self.daemon.join(session_group(session_id))
        self.counters["backup_starts"] += 1

    def _stop_backup(self, session_id: str) -> None:
        if self.backups.pop(session_id, None) is None:
            return
        self._backup_units.pop(session_id, None)
        self._leave_session_group_later(session_id)
        self.counters["backup_stops"] += 1

    # ------------------------------------------------------------------
    # propagation (primary -> content group)
    # ------------------------------------------------------------------
    def _propagate(self, session_id: str) -> None:
        runtime = self.primaries.get(session_id)
        if runtime is None or runtime.awaiting_handoff:
            return
        self._chaos_hook("pre-propagate")
        unit = runtime.unit_id
        view = self._content_views.get(unit)
        view_key = view.view_key if view is not None else None
        own = self.unit_dbs[unit].get(session_id)
        # a delta only where every receiver holds its base: the last full
        # went to this view, and the last capture came back through the
        # total order here, so it is delivered before this one everywhere
        snapshot, delta = runtime.ctx.capture(
            self.sim.now,
            diff=runtime.propagated_view_key == view_key
            and own is not None
            and own.snapshot.epoch == runtime.ctx.epoch
            and runtime.deltas_since_full + 1 < FULL_PROPAGATION_EVERY,
        )
        # the codec prices both contexts (a state it cannot encode fails
        # here, before anything is sent): the two frames differ only there,
        # and the delta ships only when it is strictly smaller
        if delta is not None and frame_size(delta) < frame_size(snapshot):
            message = Propagate(session_id, unit, delta=delta)
        else:
            message = Propagate(session_id, unit, snapshot=snapshot)
        size = message.wire_size
        if message.delta is not None:
            runtime.deltas_since_full += 1
            self.counters["propagations_delta"] += 1
        else:
            runtime.deltas_since_full = 0
            runtime.propagated_view_key = view_key
            self.counters["propagations_full"] += 1
        self.counters["propagation_bytes_sent"] += size
        self.daemon.mcast(content_group(unit), message)
        self.counters["propagations_sent"] += 1

    def _on_propagate(self, message: Propagate) -> None:
        db = self.unit_dbs.get(message.unit_id)
        if db is None:
            return
        snapshot = message.snapshot
        if snapshot is None:
            # incremental propagation: reconstruct the full snapshot from
            # our current record — possible only when we sit exactly at
            # the delta's base epoch (totally ordered propagations make
            # that the common case; joiners wait for the next full)
            record = db.get(message.session_id)
            if record is None or record.snapshot.epoch != message.delta.base_epoch:
                self.counters["propagation_delta_gaps"] += 1
                return
            snapshot = message.delta.apply_to(record.snapshot)
        db.apply_propagation(message.session_id, snapshot)
        if message.session_id in self.backups:
            self.backups[message.session_id].rebase(snapshot)
        self.counters["propagations_processed"] += 1
        self.counters["propagation_bytes_processed"] += message.wire_size

    # ------------------------------------------------------------------
    # session teardown
    # ------------------------------------------------------------------
    def _on_end_session(self, message: EndSession) -> None:
        session_id = message.session_id
        runtime = self.primaries.get(session_id)
        if runtime is not None:
            self.daemon.mcast(
                content_group(runtime.unit_id),
                SessionEnded(session_id=session_id, unit_id=runtime.unit_id),
            )
            self._stop_primary(session_id, successor=None)
        if session_id in self.backups:
            self._stop_backup(session_id)
        self._lingering.pop(session_id, None)

    def _on_session_ended(self, message: SessionEnded) -> None:
        db = self.unit_dbs.get(message.unit_id)
        if db is not None:
            db.remove_session(message.session_id)
        self.counters["sessions_ended"] += 1

    # ------------------------------------------------------------------
    # preemptive load balancing (Section 3.1: migration "preemptively for
    # load balancing purposes")
    # ------------------------------------------------------------------
    def request_rebalance(self, unit: str) -> None:
        """Ask the whole content group to re-run the deterministic
        rebalance.  Safe to call from any member at any time; the request
        is totally ordered, so all members recompute the same allocation
        at the same logical instant."""
        if unit not in self.unit_dbs:
            raise ValueError(f"{self.server_id} does not host {unit!r}")
        self.daemon.mcast(content_group(unit), RebalanceRequest(unit_id=unit))

    def _on_rebalance_request(self, message: RebalanceRequest) -> None:
        """Run the full exchange-merge-rebalance pipeline on demand.

        The exchange makes the operation safe even when members' databases
        have diverged (e.g. a joiner that was never integrated)."""
        unit = message.unit_id
        db = self.unit_dbs.get(unit)
        view = self._content_views.get(unit)
        if db is None or view is None:
            return
        if len(view.members) < 2:
            return  # nothing to balance against
        self._begin_exchange(unit, view)
        self.counters["preemptive_rebalances"] += 1

    # ------------------------------------------------------------------
    # content-group view changes (Section 3.4)
    # ------------------------------------------------------------------
    def _on_content_view(self, unit: str, view: GroupView) -> None:
        previous = self._content_views.get(unit)
        self._content_views[unit] = view
        db = self.unit_dbs.get(unit)
        if db is None:
            return
        incarnations = self.daemon.member_incarnations()
        previous_incarnations = self._content_incarnations.get(unit, {})
        self._content_incarnations[unit] = {
            m: incarnations[m] for m in view.members if m in incarnations
        }
        if previous is None:
            joiners = set(view.members) - {self.server_id}
            leavers: set[NodeId] = set()
        else:
            joiners = set(view.members) - set(previous.members)
            leavers = set(previous.members) - set(view.members)
            # A member that restarted between views (new incarnation) lost
            # all its volatile state: treat it as a joiner even though the
            # member *set* looks unchanged, so the state exchange rebuilds
            # it (mirrors the GCS-level incarnation handling).
            for member in view.members:
                old_inc = previous_incarnations.get(member)
                new_inc = incarnations.get(member)
                if old_inc is not None and new_inc is not None and old_inc != new_inc:
                    joiners.add(member)
        exchange_pending = unit in self._exchanges

        if (joiners or exchange_pending) and len(view.members) > 1:
            self._begin_exchange(unit, view)
            return
        if previous is None and len(view.members) == 1 and len(db) > 0:
            # A lone restart with a durable database: nobody to exchange
            # with, but the surviving records deserve primaries again.
            allocation = allocate_sessions(
                db,
                view.members,
                self.policy.num_backups,
                rebalance=False,
                prefer_backups=self.policy.prefer_backup_promotion,
            )
            self._apply_allocation(unit, view, allocation, cause="failure")
            self.counters["solo_restarts"] += 1
            return
        if leavers:
            allocation = allocate_sessions(
                db,
                view.members,
                self.policy.num_backups,
                rebalance=False,
                prefer_backups=self.policy.prefer_backup_promotion,
            )
            self._apply_allocation(unit, view, allocation, cause="failure")
            self.counters["failure_reallocations"] += 1

    def freshest_context(self, unit: str, session_id: str) -> ContextSnapshot | None:
        """The freshest context of the session this server can rebuild;
        ``None`` when it holds none.

        The server's own knowledge comes first: its live primary context
        (stamped now, epoch unchanged), or its backup's base with the
        update log since replayed.  The unit database's record (the last
        propagation, or what a state-exchange merge adopted) replaces it
        only when strictly fresher, so on a tie the server keeps the
        context it applied itself (DESIGN §6)."""
        own = None
        runtime = self.primaries.get(session_id)
        backup = self.backups.get(session_id)
        if runtime is not None and runtime.unit_id == unit:
            ctx = runtime.ctx
            own = ContextSnapshot(
                app_state=ctx.app_state,
                update_counter=ctx.update_counter,
                response_counter=ctx.response_counter,
                stamped_at=self.sim.now,
                epoch=ctx.epoch,
            )
        elif backup is not None and self._backup_units.get(session_id) == unit:
            own = backup.effective(self.applications[unit].apply_update)
        db = self.unit_dbs.get(unit)
        record = db.get(session_id) if db is not None else None
        if record is not None and (
            own is None or record.snapshot.freshness_key() > own.freshness_key()
        ):
            return record.snapshot
        return own

    def _exchange_snapshot(self, unit: str) -> dict:
        """The unit database dump this member contributes to an exchange,
        each record upgraded to the member's :meth:`freshest_context`.

        Views can briefly exclude a live member (a merge racing the
        failure detector), and updates delivered only inside the excluded
        member's configuration would otherwise be silently forgotten by
        the merge — the exchange must offer the freshest context each
        member can actually reconstruct, not just the last propagation."""
        dump = self.unit_dbs[unit].snapshot_for_exchange()
        for session_id, record in list(dump.items()):
            best = self.freshest_context(unit, session_id)
            if best is not record.snapshot:
                dump[session_id] = replace(record, snapshot=best)
        return dump

    def _begin_exchange(self, unit: str, view: GroupView) -> None:
        self._exchanges[unit] = {"key": view.view_key, "received": {}}
        self.daemon.mcast(
            content_group(unit),
            StateExchange(
                unit_id=unit,
                view_key=view.view_key,
                sender=self.server_id,
                db_snapshot=self._exchange_snapshot(unit),
            ),
        )
        self.counters["exchanges_started"] += 1
        self._chaos_hook("mid-exchange")

    def _on_state_exchange(self, message: StateExchange) -> None:
        unit = message.unit_id
        exchange = self._exchanges.get(unit)
        view = self._content_views.get(unit)
        if view is None:
            return
        if message.view_key == view.view_key and (
            exchange is None or exchange["key"] != message.view_key
        ):
            # Another member decided this view needs an exchange (members
            # that took different view paths to the same configuration can
            # disagree about joiners): participation is contagious, so the
            # exchange always completes rather than hanging on the members
            # that saw no reason to start one.
            self._begin_exchange(unit, view)
            exchange = self._exchanges[unit]
        if exchange is None or message.view_key != exchange["key"]:
            return
        exchange["received"][message.sender] = message.db_snapshot
        if not set(view.members) <= set(exchange["received"]):
            return
        dumps = [exchange["received"][m] for m in sorted(view.members, key=str)]
        merged = UnitDatabase.merge(unit, dumps)
        self.unit_dbs[unit] = merged
        del self._exchanges[unit]
        # the merge rewrote every member's records of this unit, so a
        # primary that keeps its role has no delta base left at the
        # receivers: its next propagation must be full
        for runtime in self.primaries.values():
            if runtime.unit_id == unit:
                runtime.propagated_view_key = None
        allocation = allocate_sessions(
            merged,
            view.members,
            self.policy.num_backups,
            rebalance=True,
            prefer_backups=self.policy.prefer_backup_promotion,
        )
        self._apply_allocation(unit, view, allocation, cause="join")
        self.counters["join_rebalances"] += 1

    def _apply_allocation(
        self, unit: str, view: GroupView, allocation: dict, cause: str
    ) -> None:
        db = self.unit_dbs[unit]
        members = set(view.members)
        for session_id, (primary, backups) in allocation.items():
            record = db.get(session_id)
            if record is None:
                continue
            old_primary = record.primary
            db.set_allocation(session_id, primary, backups)

            if primary == self.server_id and session_id not in self.primaries:
                controlled = (
                    old_primary is not None
                    and old_primary in members
                    and old_primary != self.server_id
                )
                # a backup's own log, unless a state-exchange merge knows
                # strictly more (another member's updates)
                snapshot = self.freshest_context(unit, session_id)
                self.backups.pop(session_id, None)
                self._backup_units.pop(session_id, None)
                self._start_primary(
                    session_id,
                    unit,
                    record.client_id,
                    snapshot,
                    uncertain=not controlled,
                    await_handoff=controlled,
                )
            elif primary == self.server_id and session_id in self.primaries:
                # Kept the role through a view change — but the merged
                # record may carry updates this primary never saw (they
                # were delivered only inside a configuration a view
                # briefly excluded this member from).  The freshest
                # context wins the merge, so adopt it; the session would
                # otherwise silently lose an acknowledged update.
                runtime = self.primaries[session_id]
                if self._adopt_snapshot(runtime, record.snapshot):
                    self.counters["merge_adoptions"] += 1
                    self._arm_response_timer(session_id)
            elif primary != self.server_id and session_id in self.primaries:
                self._stop_primary(session_id, successor=primary)

            if (
                self.server_id in backups
                and session_id not in self.backups
                and primary != self.server_id
            ):
                self._start_backup(session_id, unit, record.snapshot)
            elif (
                self.server_id in backups
                and session_id in self.backups
                and primary != self.server_id
            ):
                # freshness-guarded: a no-op unless the merge knew more
                self.backups[session_id].rebase(record.snapshot)
            elif self.server_id not in backups and session_id in self.backups:
                self._stop_backup(session_id)


__all__ = ["FrameworkServer"]
