"""Session context with the paper's three freshness levels.

* The **primary** holds the live application state, exact update counter
  and exact response counter.
* A **backup** holds the last propagated snapshot *plus* every client
  context update it has seen since (client updates go to the session
  group, so backups never miss them while alive) — but not the responses,
  which are point-to-point.
* The **unit database** holds only the last propagated snapshot.

The invariant the paper states — "client context updates [known to the
session group] are at least as current as information in the unit
database" — is checkable: a backup's effective update counter is always
``>=`` the snapshot's.

Application states are **immutable by contract**: every
:class:`~repro.core.application.ServiceApplication` method is functional
(state in, state out), which is what lets this module snapshot and ship
contexts *by reference* instead of deep-copying, and compute **deltas**
between successive propagations.  A :class:`ContextDelta` carries only
the app-state fields that changed since the previous propagation epoch —
FRAPPE-style incremental state shipping.  One capture yields both forms
at one epoch, and the primary ships whichever the codec prices smaller:
a delta pays where a large field stays put, a full snapshot where every
field is small (a one-field delta outweighs a small snapshot).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.wiretypes import wire

# ---------------------------------------------------------------------------
# state diffing (copy-on-write propagation)
# ---------------------------------------------------------------------------


def state_delta(old: Any, new: Any) -> tuple[tuple[str, Any], ...] | None:
    """Field-level diff between two application states.

    Returns a tuple of ``(field_name, new_value)`` pairs, or ``None`` when
    the states cannot be diffed (not dataclasses of the same type).  An
    empty tuple means "unchanged" — cheap to detect because functional
    applications return the *same object* when an update is a no-op.
    """
    if old is new:
        return ()
    if (
        not dataclasses.is_dataclass(old)
        or not dataclasses.is_dataclass(new)
        or type(old) is not type(new)
        or isinstance(old, type)
    ):
        return None
    changed = []
    for f in dataclasses.fields(new):
        old_value = getattr(old, f.name)
        new_value = getattr(new, f.name)
        if old_value is not new_value and old_value != new_value:
            changed.append((f.name, new_value))
    return tuple(changed)


def apply_state_delta(state: Any, changes: tuple) -> Any:
    """Apply a :func:`state_delta` result to a base state."""
    if not changes:
        return state
    return replace(state, **dict(changes))


@wire(17)
@dataclass(frozen=True, slots=True)
class ContextSnapshot:
    """An immutable picture of one session's context at a moment.

    Attributes:
        app_state: the application-defined session state.  States are
            immutable by the application contract, so the snapshot shares
            the reference instead of deep-copying.
        update_counter: highest client context-update counter reflected.
        response_counter: number of responses the primary had sent.
        stamped_at: simulation time of capture (lets a takeover primary
            bound the uncertainty window).
        epoch: the primary's propagation sequence number for the session;
            state-exchange merges keep the record with the largest epoch.
    """

    app_state: Any
    update_counter: int = 0
    response_counter: int = 0
    stamped_at: float = 0.0
    epoch: int = 0

    def freshness_key(self) -> tuple:
        """Orders snapshots of one session by how current they are.

        Client-update progress dominates: update counters are assigned by
        the client, so they are comparable across *any* two snapshots of a
        session — including snapshots produced by concurrent primaries
        during a transient dual-primary episode.  The propagation epoch is
        only a tiebreak (it is a per-primary-lineage counter, so an
        epoch-richer but update-poorer snapshot must never win)."""
        return (self.update_counter, self.response_counter, self.epoch)


@wire(18)
@dataclass(frozen=True, slots=True)
class ContextDelta:
    """The incremental form of one propagation: only what changed.

    ``changes`` is the :func:`state_delta` of the app state between the
    propagation at ``base_epoch`` and this one (``epoch``); the counters
    carry the same meaning as on :class:`ContextSnapshot`.  A receiver can
    reconstruct the full snapshot iff its current record for the session
    sits exactly at ``base_epoch`` — otherwise it must wait for the next
    full snapshot (epoch gap: a joiner, or a member that missed the
    lineage's earlier propagations).
    """

    base_epoch: int
    epoch: int
    update_counter: int
    response_counter: int
    stamped_at: float
    changes: tuple

    def apply_to(self, base: ContextSnapshot) -> ContextSnapshot:
        """Reconstruct the full snapshot this delta encodes.

        ``base`` must be the receiver's snapshot at exactly
        ``base_epoch`` (raises ``ValueError`` otherwise — callers check
        and count the gap instead of letting it propagate)."""
        if base.epoch != self.base_epoch:
            raise ValueError(
                f"delta base epoch {self.base_epoch} != snapshot epoch {base.epoch}"
            )
        return ContextSnapshot(
            app_state=apply_state_delta(base.app_state, self.changes),
            update_counter=self.update_counter,
            response_counter=self.response_counter,
            stamped_at=self.stamped_at,
            epoch=self.epoch,
        )


@dataclass(slots=True)
class PrimaryContext:
    """The live context held by the session's primary server."""

    app_state: Any
    update_counter: int = 0
    response_counter: int = 0
    epoch: int = 0
    # the app state as of the last capture — the copy-on-write base the
    # next delta is diffed against
    _delta_base: Any = field(default=None, repr=False, compare=False)

    def snapshot(self, now: float) -> ContextSnapshot:
        """Capture a full snapshot (epoch advances): what a handoff ships."""
        return self.capture(now, diff=False)[0]

    def capture(
        self, now: float, diff: bool = True
    ) -> tuple[ContextSnapshot, ContextDelta | None]:
        """Advance the epoch once and return both forms of the context at
        it: the full snapshot, and the delta against the previous capture.

        The delta is ``None`` when ``diff`` is off, no capture exists yet,
        or the state does not support field-level diffing; either form
        rebuilds the same snapshot, so the caller ships whichever it likes.
        States are immutable by the application contract, so the snapshot
        shares the state reference — capture is O(1), not a deep copy."""
        changes = None
        if diff and self._delta_base is not None:
            changes = state_delta(self._delta_base, self.app_state)
        base_epoch = self.epoch
        self.epoch += 1
        self._delta_base = self.app_state
        snapshot = ContextSnapshot(
            app_state=self.app_state,
            update_counter=self.update_counter,
            response_counter=self.response_counter,
            stamped_at=now,
            epoch=self.epoch,
        )
        if changes is None:
            return snapshot, None
        return snapshot, ContextDelta(
            base_epoch=base_epoch,
            epoch=self.epoch,
            update_counter=self.update_counter,
            response_counter=self.response_counter,
            stamped_at=now,
            changes=changes,
        )

    @staticmethod
    def from_snapshot(snapshot: ContextSnapshot) -> "PrimaryContext":
        return PrimaryContext(
            app_state=snapshot.app_state,
            update_counter=snapshot.update_counter,
            response_counter=snapshot.response_counter,
            epoch=snapshot.epoch,
        )


@dataclass(slots=True)
class BackupContext:
    """A backup's context: base snapshot plus the update log since.

    ``apply_update`` appends; ``rebase`` adopts a newer propagation and
    prunes the log; ``effective`` reconstructs the freshest state the
    backup can offer on takeover.
    """

    base: ContextSnapshot
    update_log: list = field(default_factory=list)

    def apply_update(self, counter: int, update: Any) -> None:
        if counter > self.base.update_counter:
            self.update_log.append((counter, update))

    def rebase(self, snapshot: ContextSnapshot) -> None:
        """Adopt a newer propagated snapshot, keeping updates it missed."""
        if snapshot.freshness_key() <= self.base.freshness_key():
            return
        self.base = snapshot
        self.update_log = [
            (counter, update)
            for counter, update in self.update_log
            if counter > snapshot.update_counter
        ]

    def effective(self, apply_update_fn: Callable[[Any, Any], Any]) -> ContextSnapshot:
        """The snapshot a takeover would start from: base plus logged
        updates, replayed through the application's update function.

        With an empty log this is the base itself — no copy, no replay.
        The replay sorts by counter only: update payloads are opaque
        application values and need not be orderable, so tying counters
        must never fall through to comparing the payloads."""
        if not self.update_log:
            return self.base
        state = self.base.app_state
        counter = self.base.update_counter
        for update_counter, update in sorted(
            self.update_log, key=lambda item: item[0]
        ):
            state = apply_update_fn(state, update)
            counter = max(counter, update_counter)
        return replace(
            self.base, app_state=state, update_counter=counter
        )

    @property
    def effective_update_counter(self) -> int:
        if not self.update_log:
            return self.base.update_counter
        return max(self.base.update_counter, max(c for c, _ in self.update_log))


__all__ = [
    "BackupContext",
    "ContextDelta",
    "ContextSnapshot",
    "PrimaryContext",
    "apply_state_delta",
    "state_delta",
]
