"""View and configuration identifiers.

A *configuration* is the daemon-level membership agreed by one partition
component; every configuration has a unique, totally ordered
:class:`ViewId`.  A *group view* is the slice of a configuration visible to
one named group; it changes when the configuration changes or when members
join or leave the group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Iterable

from repro.sim.topology import NodeId
from repro.wiretypes import wire


@wire(1, 18, "counter:u32 coordinator:str8")
@total_ordering
@dataclass(frozen=True, slots=True)
class ViewId:
    """A totally ordered view identifier: ``(counter, coordinator)``.

    Counters only grow (each new view's counter exceeds every counter known
    to any of its members), so comparing :class:`ViewId` lexicographically
    orders views consistently across the system.
    """

    counter: int
    coordinator: NodeId

    def _key(self) -> tuple:
        return (self.counter, str(self.coordinator))

    def __lt__(self, other: "ViewId") -> bool:
        return self._key() < other._key()

    def __str__(self) -> str:
        return f"v{self.counter}@{self.coordinator}"


@dataclass(frozen=True)
class Configuration:
    """An installed daemon-level membership.

    ``members`` is stored as a sorted tuple so that every holder of the
    configuration iterates it in the same order — several framework
    decisions (sequencer choice, primary selection) rely on this shared
    determinism.
    """

    view_id: ViewId
    members: tuple[NodeId, ...]

    @staticmethod
    def make(view_id: ViewId, members: Iterable[NodeId]) -> "Configuration":
        return Configuration(view_id=view_id, members=tuple(sorted(members, key=str)))

    @property
    def sequencer(self) -> NodeId:
        """The member that assigns the configuration's total order: the
        smallest member id (deterministic and agreed)."""
        return self.members[0]

    def __contains__(self, node: NodeId) -> bool:
        return node in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __str__(self) -> str:
        return f"Config({self.view_id}, {list(self.members)})"


@dataclass(frozen=True)
class GroupView:
    """The membership of one named group as seen in one configuration.

    ``change_seq`` is the total-order sequence number of the join/leave
    event (or configuration installation) that produced this view, making
    group views totally ordered per configuration and identical at all
    members — the paper's "consistent reflection across groups".
    """

    group: str
    config_view_id: ViewId
    change_seq: int
    members: tuple[NodeId, ...]

    @staticmethod
    def make(
        group: str, config_view_id: ViewId, change_seq: int, members: Iterable[NodeId]
    ) -> "GroupView":
        return GroupView(
            group=group,
            config_view_id=config_view_id,
            change_seq=change_seq,
            members=tuple(sorted(members, key=str)),
        )

    @property
    def view_key(self) -> tuple:
        """A totally ordered key identifying this group view."""
        return (self.config_view_id, self.change_seq)

    def __contains__(self, node: NodeId) -> bool:
        return node in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __str__(self) -> str:
        return (
            f"GroupView({self.group}, {self.config_view_id}/{self.change_seq}, "
            f"{list(self.members)})"
        )


__all__ = ["Configuration", "GroupView", "ViewId"]
