"""Named groups: the replicated group-membership map and derived views.

Joins and leaves travel through the configuration's total order (in the
reserved ``__membership__`` group), so every daemon applies them to its
copy of the map in the same order.  A group's *view* is the intersection of
the map entry with the current configuration; because both inputs are agreed,
all members derive identical group views — the paper's requirement that a
process's failure be reflected consistently in all its groups.
"""

from __future__ import annotations

from repro.gcs.view import Configuration, GroupView
from repro.sim.topology import NodeId

MEMBERSHIP_GROUP = "__membership__"

_NOBODY: frozenset[NodeId] = frozenset()


class GroupMap:
    """group name -> set of daemons that have joined it.

    The map may list daemons outside the current configuration (they joined
    in some component and are currently unreachable); such entries are kept
    so a future merge restores them, but they are filtered out of views.
    """

    def __init__(self) -> None:
        # frozen: every delivery reads a group's members, joins and leaves
        # are rare, so a change builds the new set and a read hands it out
        self._members: dict[str, frozenset[NodeId]] = {}

    def join(self, group: str, node: NodeId) -> bool:
        """Apply a join; returns True if the map changed."""
        members = self._members.get(group, _NOBODY)
        if node in members:
            return False
        self._members[group] = members | {node}
        return True

    def leave(self, group: str, node: NodeId) -> bool:
        """Apply a leave; returns True if the map changed."""
        members = self._members.get(group)
        if not members or node not in members:
            return False
        members = members - {node}
        if members:
            self._members[group] = members
        else:
            del self._members[group]
        return True

    def drop_node(self, node: NodeId) -> list[str]:
        """Remove ``node`` from every group; returns the affected groups."""
        affected = []
        for group in list(self._members):
            if self.leave(group, node):
                affected.append(group)
        return affected

    def members(self, group: str) -> frozenset[NodeId]:
        return self._members.get(group, _NOBODY)

    def groups_of(self, node: NodeId) -> tuple[str, ...]:
        """All groups ``node`` belongs to, sorted (used in sync replies)."""
        return tuple(
            sorted(g for g, members in self._members.items() if node in members)
        )

    def groups(self) -> tuple[str, ...]:
        return tuple(sorted(self._members))

    def view(
        self, group: str, config: Configuration, change_seq: int
    ) -> GroupView:
        """Derive the group's view in ``config``."""
        visible = [m for m in self.members(group) if m in config]
        return GroupView.make(group, config.view_id, change_seq, visible)

    def snapshot(self) -> dict[str, tuple[NodeId, ...]]:
        return {
            group: tuple(sorted(members, key=str))
            for group, members in self._members.items()
        }

    @staticmethod
    def from_reports(
        reports: dict[NodeId, tuple[str, ...]],
    ) -> "GroupMap":
        """Rebuild the map at a view merge.

        Each daemon is authoritative for its *own* memberships, so the
        merged map is exactly the union of every surviving daemon's
        self-reported group list.  Daemons outside the new view are dropped
        (if they are alive elsewhere, their own component keeps them)."""
        merged = GroupMap()
        for node, groups in reports.items():
            for group in groups:
                merged.join(group, node)
        return merged

    @staticmethod
    def from_snapshot(snapshot: dict[str, tuple[NodeId, ...]]) -> "GroupMap":
        restored = GroupMap()
        for group, members in snapshot.items():
            for member in members:
                restored.join(group, member)
        return restored


__all__ = ["GroupMap", "MEMBERSHIP_GROUP"]
