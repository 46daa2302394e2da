"""Process abstraction: a node with an inbox, timers and a crash lifecycle.

A :class:`Process` is the unit of failure in the reproduction.  Crashing a
process cancels all of its timers and makes the network drop messages
addressed to it; recovering gives it a fresh *incarnation number* so that
higher layers (the GCS membership) can distinguish a restarted process from
the old one.
"""

from __future__ import annotations

import enum
from typing import Any, Callable

from repro.sim.engine import Event, PeriodicTimer, Simulator
from repro.sim.network import Message, Network
from repro.sim.topology import NodeId


class ProcessState(enum.Enum):
    UP = "up"
    CRASHED = "crashed"


_UP = ProcessState.UP


class Process:
    """Base class for simulated nodes.

    Subclasses override :meth:`on_message` (and optionally :meth:`on_start`,
    :meth:`on_crash`, :meth:`on_recover`).  All interaction with the world
    goes through :meth:`send`, :meth:`set_timer` and
    :meth:`set_periodic_timer`, which are automatically neutered while the
    process is crashed.
    """

    # Slotted: the base attributes are touched on every message delivery
    # and timer fire.  Subclasses without __slots__ still get a __dict__
    # for their own attributes; the hot base fields stay slot-backed.
    __slots__ = (
        "node_id",
        "network",
        "sim",
        "state",
        "incarnation",
        "dispatch_delay",
        "_muted",
        "_timers",
        "_periodic",
    )

    def __init__(self, node_id: NodeId, network: Network) -> None:
        self.node_id = node_id
        self.network = network
        self.sim: Simulator = network.sim
        self.state = ProcessState.UP
        self.incarnation = 0
        self.dispatch_delay = 0.0
        self._muted = False
        self._timers: list[Event] = []
        self._periodic: list[PeriodicTimer] = []
        network.attach(node_id, self._receive, self.is_up)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def is_up(self) -> bool:
        return self.state is _UP

    def start(self) -> None:
        """Run the subclass start hook (call once after construction)."""
        self.on_start()

    def crash(self) -> None:
        """Fail-stop: all timers die, future deliveries are dropped."""
        if self.state is ProcessState.CRASHED:
            return
        self.state = ProcessState.CRASHED
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        for periodic in self._periodic:
            periodic.stop()
        self._periodic.clear()
        self._muted = False
        self.network.trace.record(self.sim.now, self.node_id, "process.crash")
        self.on_crash()

    def mute_sends(self) -> None:
        """Suppress all outgoing traffic until the process crashes.

        Used by crash-at-hook fault injection: the hook wants the process
        dead *at this instant*, but tearing it down inline would make the
        rest of the currently-running handler blow up on ``set_timer``.
        Instead the hook mutes output and schedules the real crash as a
        zero-delay event — the handler finishes harmlessly, and nothing it
        tried to say after the hook point ever reaches the wire."""
        self._muted = True

    def recover(self) -> None:
        """Restart with a new incarnation; volatile state is the subclass's
        responsibility to reset in :meth:`on_recover`."""
        if self.state is ProcessState.UP:
            return
        self.state = ProcessState.UP
        self.incarnation += 1
        self.network.trace.record(
            self.sim.now, self.node_id, "process.recover", incarnation=self.incarnation
        )
        self.on_recover()

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def send(
        self, receiver: NodeId, payload: Any, kind: str = "msg", size: int = 1
    ) -> None:
        """Send a point-to-point message (silently ignored while crashed)."""
        if self.state is _UP and not self._muted:
            self.network.send(self.node_id, receiver, payload, kind, size)

    def multicast(
        self,
        receivers: list[NodeId],
        payload: Any,
        kind: str = "msg",
        size: int = 1,
        include_self: bool = True,
    ) -> None:
        if not self.is_up() or self._muted:
            return
        self.network.multicast(
            self.node_id,
            receivers,
            payload,
            kind=kind,
            size=size,
            include_self=include_self,
        )

    def _receive(self, message: Message) -> None:
        # the network hands a message only to a receiver it has just read
        # up (Network._deliver, on both runtimes): no second read here
        if self.dispatch_delay > 0.0:
            self._defer(lambda: self.on_message(message))
            return
        self.on_message(message)

    # ------------------------------------------------------------------
    # gray failure: slowed dispatch
    # ------------------------------------------------------------------
    def set_dispatch_delay(self, delay: float) -> None:
        """Model a gray failure: the process is alive but slow — every
        message handler and timer callback runs ``delay`` seconds after it
        normally would.  ``0.0`` restores normal speed."""
        if delay < 0.0:
            raise ValueError("dispatch delay must be >= 0")
        self.dispatch_delay = delay
        if delay > 0.0:
            self.network.trace.record(
                self.sim.now, self.node_id, "process.slowdown", delay=delay
            )
        else:
            self.network.trace.record(self.sim.now, self.node_id, "process.speed_restored")

    def _defer(self, callback: Callable[[], None]) -> None:
        self.sim.schedule(
            self.dispatch_delay,
            lambda: self.is_up() and callback(),
            label=f"slow:{self.node_id}",
        )

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def set_timer(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """One-shot timer; auto-cancelled if the process crashes first."""
        return self._one_shot(self.sim.schedule, delay, callback, label)

    def set_timer_at(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """One-shot timer at the absolute instant ``time``.  For a stored
        deadline this is exact where ``set_timer(deadline - now)`` is not:
        ``now + (deadline - now)`` may round one ulp short of ``deadline``
        and the firing would find it not yet reached."""
        return self._one_shot(self.sim.schedule_at, time, callback, label)

    def _one_shot(
        self,
        schedule: Callable[[float, Callable[[], None], str], Event],
        when: float,
        callback: Callable[[], None],
        label: str,
    ) -> Event:
        if not self.is_up():
            raise RuntimeError(f"{self.node_id} is crashed; cannot set timer")

        def guarded() -> None:
            if not self.is_up():
                return
            if self.dispatch_delay > 0.0:
                self._defer(callback)
                return
            callback()

        event = schedule(when, guarded, label or f"{self.node_id}")
        self._timers.append(event)
        if len(self._timers) > 256:
            # Evict timers that can never fire again — both cancelled ones
            # and already-fired one-shots (``executed`` is stamped by the
            # engine).  Filtering on ``cancelled`` alone kept every fired
            # event forever, an unbounded leak on request-heavy long runs.
            self._timers = [t for t in self._timers if not t.finished]
        return event

    def set_periodic_timer(
        self,
        period: float,
        callback: Callable[[], None],
        label: str = "",
        first_delay: float | None = None,
    ) -> PeriodicTimer:
        """Repeating timer; stops when the process crashes."""
        if not self.is_up():
            raise RuntimeError(f"{self.node_id} is crashed; cannot set timer")

        def guarded() -> None:
            if not self.is_up():
                return
            if self.dispatch_delay > 0.0:
                self._defer(callback)
                return
            callback()

        timer = PeriodicTimer(
            sim=self.sim,
            period=period,
            callback=guarded,
            label=label or f"{self.node_id}",
        )
        timer.start(first_delay=first_delay)
        self._periodic.append(timer)
        return timer

    def trace(self, category: str, **detail: Any) -> None:
        """Record a trace event attributed to this process."""
        self.network.trace.record_detail(self.sim.now, self.node_id, category, detail)

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Called once when the process is started."""

    def on_message(self, message: Message) -> None:
        """Called for every delivered message while the process is up."""
        raise NotImplementedError

    def on_crash(self) -> None:
        """Called when the process crashes (after timers are cancelled)."""

    def on_recover(self) -> None:
        """Called when the process recovers (new incarnation)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.node_id} {self.state.value}>"


__all__ = ["Process", "ProcessState"]
