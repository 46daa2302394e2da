"""The failure-detector contract: what :class:`~repro.gcs.daemon.GcsDaemon`
and :class:`~repro.gcs.membership.MembershipEngine` ask of a detector
(:class:`Detector`), and the slice of the daemon a detector may touch in
return (:class:`DetectorHost`).

Two implementations, both constructed as ``Cls(host)``: the heartbeat
mesh (:class:`~repro.gcs.failure_detector.FailureDetector`) and SWIM
(:class:`~repro.gcs.swim.SwimDetector`).  A detector owns its wire
vocabulary and its timers — the daemon offers it every received payload
first (:meth:`Detector.on_message`) and never asks which kind it runs —
and calls ``host.on_detector_change()`` whenever
:meth:`Detector.alive_set`, or the incarnation of one of its members,
changes.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol

from repro.gcs.settings import GcsSettings
from repro.gcs.view import ViewId
from repro.sim.topology import NodeId


class DetectorHost(Protocol):
    """What a detector may use of the daemon that runs it."""

    node_id: NodeId
    #: every daemon id that may ever exist; the daemon appends to it when
    #: a server is spawned (SwimDetector snapshots it at construction —
    #: enough today because a newcomer probes everyone and is learned from
    #: its first message; a live view is ROADMAP item 5)
    world: list[NodeId]
    settings: GcsSettings

    def now(self) -> float:
        """The protocol clock."""

    def liveness_header(self) -> tuple[int, int, ViewId]:
        """``(incarnation, view_counter, config_view_id)``: what every
        liveness message a detector authors reports about this daemon."""

    def send_protocol(
        self, dest: NodeId, payload: Any, kind: str, size: int = 1
    ) -> None:
        """Send one protocol message."""

    def quiet_since(self, peer: NodeId) -> float:
        """When this daemon last sent ``peer`` anything at all (``-inf``:
        never) — traffic newer than a heartbeat interval stands in for a
        heartbeat (piggybacking)."""

    def set_timer(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> object:
        """One-shot timer, cancelled with the process when it crashes."""

    def set_periodic_timer(
        self,
        period: float,
        callback: Callable[[], None],
        label: str = "",
        first_delay: float | None = None,
    ) -> object:
        """Repeating timer, stopped with the process when it crashes."""

    def on_detector_change(self) -> None:
        """The estimate (or a member's incarnation) changed."""


class Detector(Protocol):
    #: highest view counter any peer has reported
    max_view_counter_seen: int

    def start(self, first_delay: float | None) -> None:
        """The daemon booted (start or recovery; a crash cancelled every
        timer): arm whatever periodic timers this detector runs on its own
        cadence, first firing after ``first_delay`` (``None``: one period)."""

    def on_tick(self) -> None:
        """The daemon's protocol tick, once per ``heartbeat_interval``,
        before :meth:`check`."""

    def announce(self) -> None:
        """This daemon's installed view just changed outside a view
        formation (resync to singleton): report the liveness header to
        peers now rather than at the next scheduled opportunity."""

    def on_message(self, payload: Any, sender: NodeId) -> bool:
        """Offered every received payload before the daemon dispatches it;
        True when it was liveness vocabulary and is consumed."""

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


__all__ = ["Detector", "DetectorHost"]
