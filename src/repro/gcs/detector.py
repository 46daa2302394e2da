"""The failure-detector contract: what :class:`~repro.gcs.daemon.GcsDaemon`
and :class:`~repro.gcs.membership.MembershipEngine` ask of a detector.

Two implementations: the heartbeat mesh
(:class:`~repro.gcs.failure_detector.FailureDetector`) and SWIM
(:class:`~repro.gcs.swim.SwimDetector`).  Both call the ``on_change``
they were constructed with whenever :meth:`Detector.alive_set` — or the
incarnation of one of its members — changes.
"""

from __future__ import annotations

from typing import Protocol

from repro.gcs.messages import Heartbeat
from repro.gcs.view import ViewId
from repro.sim.topology import NodeId


class Detector(Protocol):
    #: highest view counter any peer has reported
    max_view_counter_seen: int

    def on_heartbeat(self, heartbeat: Heartbeat) -> None:
        """A heartbeat arrived."""

    def observe_traffic(self, peer: NodeId) -> None:
        """Some other protocol message from ``peer`` arrived."""

    def next_deadline(self) -> float:
        """When :meth:`check` next has a peer to expire (``inf``: never as
        things stand).  May be early, never late; hearing from peers only
        moves it later.  Silence shorter than the timeout never expires a
        peer; silence that reaches it does so at this instant."""

    def check(self) -> None:
        """Expire every peer whose deadline has been reached."""

    def forget(self, peer: NodeId) -> None:
        """Drop ``peer`` from the estimate now (a reply timed out)."""

    def reset(self) -> None:
        """Forget everything (process recovery)."""

    def alive_peers(self) -> frozenset[NodeId]:
        """The membership estimate without this daemon."""

    def alive_set(self) -> frozenset[NodeId]:
        """The membership estimate, this daemon included."""

    def incarnation_of(self, peer: NodeId) -> int | None:
        """The latest incarnation ``peer`` reported, if it ever did."""

    def divergent_peers(
        self, my_config_view_id: ViewId, heard_after: float
    ) -> list[NodeId]:
        """Estimate members that since ``heard_after`` reported an
        installed view other than ``my_config_view_id``."""


__all__ = ["Detector"]
