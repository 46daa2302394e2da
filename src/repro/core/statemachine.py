"""Replicated state machine for shared content updates.

The paper's conclusion names this extension explicitly: "integrate into
the design a mechanism for consistently updating the state that is shared
between clients, using the well-known replicated state machine technique
[Schneider 1990]".

Implementation: a :class:`ReplicatedStateMachine` rides on the content
group's totally ordered multicast.  Commands multicast to the group are
applied by every replica in the same (total) order to a deterministic
``apply`` function, so replicas stay identical; virtual synchrony plus a
state transfer on join-type view changes re-synchronizes newcomers.  This
is exactly the classical construction of state machine replication over
view-synchronous group communication.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable

from repro.gcs.daemon import GcsDaemon
from repro.gcs.view import GroupView


@dataclass(frozen=True)
class Command:
    """One state-machine command (opaque to the framework)."""

    op: Any


@dataclass(frozen=True)
class _RsmTransfer:
    """State transfer for members that joined the group mid-life."""

    group: str
    view_key: tuple
    applied: int
    state: Any


class ReplicatedStateMachine:
    """A deterministic state machine replicated over one group.

    Args:
        daemon: the hosting GCS daemon (the machine joins ``group`` on it).
        group: the group carrying commands (e.g. the content group).
        initial: initial state (deep-copied per replica).
        apply_fn: ``(state, op) -> state`` — MUST be deterministic.

    Use :meth:`submit` to issue a command; read :attr:`state` (do not
    mutate it).  ``applied_count`` counts commands applied, which together
    with determinism makes replica equality checkable in tests.

    The machine multiplexes on the daemon's group traffic: the hosting
    application forwards relevant callbacks via :meth:`on_group_message`
    and :meth:`on_group_view`.
    """

    def __init__(
        self,
        daemon: GcsDaemon,
        group: str,
        initial: Any,
        apply_fn: Callable[[Any, Any], Any],
    ) -> None:
        self.daemon = daemon
        self.group = group
        self.state = copy.deepcopy(initial)
        self.apply_fn = apply_fn
        self.applied_count = 0
        self._last_view: GroupView | None = None
        self._synced = True

    # ------------------------------------------------------------------
    # issuing commands
    # ------------------------------------------------------------------
    def submit(self, op: Any) -> None:
        """Multicast a command; it applies everywhere in total order
        (including here, when delivered)."""
        self.daemon.mcast(self.group, Command(op=op))

    # ------------------------------------------------------------------
    # plumbing: the host forwards group events here
    # ------------------------------------------------------------------
    def on_group_message(self, payload: Any) -> bool:
        """Returns True when the payload belonged to the state machine."""
        if isinstance(payload, Command):
            if self._synced:
                self.state = self.apply_fn(self.state, payload.op)
                self.applied_count += 1
            return True
        if isinstance(payload, _RsmTransfer):
            self._on_transfer(payload)
            return True
        return False

    def on_group_view(self, view: GroupView) -> None:
        previous = self._last_view
        self._last_view = view
        if previous is None and len(view.members) > 1:
            # We just joined an existing group: wait for a state transfer.
            self._synced = False
        joiners = (
            set(view.members) - set(previous.members) if previous is not None else set()
        )
        if joiners and self._synced:
            # The senior member ships the state to everyone (totally
            # ordered, so all replicas adopt the same transfer point).
            senior = min(
                (m for m in view.members if m not in joiners),
                default=None,
                key=str,
            )
            if senior == self.daemon.node_id:
                self.daemon.mcast(
                    self.group,
                    _RsmTransfer(
                        group=self.group,
                        view_key=view.view_key,
                        applied=self.applied_count,
                        state=copy.deepcopy(self.state),
                    ),
                )

    def _on_transfer(self, transfer: _RsmTransfer) -> None:
        if transfer.applied >= self.applied_count or not self._synced:
            self.state = copy.deepcopy(transfer.state)
            self.applied_count = transfer.applied
            self._synced = True


__all__ = ["Command", "ReplicatedStateMachine"]
