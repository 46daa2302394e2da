"""Discrete-event simulation engine.

The engine is a classic calendar loop: a binary heap of ``(time, seq,
event)`` tuples, and of ``(time, seq, fn, a, b)`` *call entries*
(:meth:`Simulator.call_at`).  The monotonically increasing sequence
number, one counter for both shapes, breaks ties deterministically in
insertion order, which makes every simulation run exactly reproducible
for a given seed and schedule of calls.

Performance notes (this is the hottest loop in the repository — every
benchmark, experiment, and chaos run funnels through it):

* Heap entries are plain tuples, so ``heapq`` comparisons run entirely in
  C on ``(float, int)`` prefixes instead of calling a generated dataclass
  ``__lt__`` that builds two tuples per comparison.
* :class:`Event` is a ``__slots__`` handle — no instance ``__dict__`` to
  allocate or walk.
* A call entry is the whole of a callback that nobody will cancel — a
  message delivery, two thirds of a chaos seed's events: the heap tuple
  carries the function and its two arguments, so scheduling one builds
  neither an :class:`Event` nor a ``functools.partial`` (≈ 0.5 µs of a
  ≈ 4 µs simulated message, DESIGN §9).  The loop tells the shapes apart
  by length; both count in ``pending_events`` and ``executed_events``
  alike, and only an :class:`Event` can be cancelled.
* ``pending_events`` is an O(1) read of a live counter maintained on
  schedule/cancel/pop (it used to scan the whole queue per call).
* Cancellation stays O(1) (lazy deletion), but the engine now *compacts*
  the heap when cancelled entries exceed half the queue (above a small
  floor), so cancel-heavy workloads no longer drag dead weight through
  every subsequent heap operation.

Nothing in the engine knows about networks or processes; those layers are
built on top (see :mod:`repro.sim.network` and :mod:`repro.sim.process`).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

#: Compaction trigger: rebuild the heap once more than half of at least
#: this many entries are cancelled.  The floor keeps tiny queues from
#: compacting constantly; the fraction bounds amortized cost at O(1) per
#: cancellation.
_COMPACT_MIN_DEAD = 64


class SimulationError(RuntimeError):
    """Raised for misuse of the simulator (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback handle.

    The heap orders entries by ``(time, seq)`` tuple keys; the event
    object itself is never compared.  ``cancelled`` supports O(1)
    cancellation: the event stays in the heap but is skipped when popped.
    ``executed`` is set by the engine once the callback has run, so holders
    of an event reference (e.g. a process's timer list) can tell a fired
    one-shot from a still-pending one and release it.
    """

    __slots__ = ("time", "seq", "callback", "label", "cancelled", "executed", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        label: str = "",
        sim: "Simulator | None" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False
        self.executed = False
        self._sim = sim

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        if self.cancelled or self.executed:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancelled()

    @property
    def finished(self) -> bool:
        """True once the event can never fire (again): cancelled or run."""
        return self.cancelled or self.executed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "executed" if self.executed else "pending"
        return f"<Event t={self.time} seq={self.seq} {self.label!r} {state}>"


class Simulator:
    """A deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, lambda: print("hello at t=1"))
        sim.run_until(10.0)

    The simulator clock starts at ``0.0`` and only advances when events are
    executed.  Callbacks may schedule further events (at or after the
    current time).
    """

    __slots__ = ("_queue", "_seq", "_now", "_executed", "_running", "_live", "_dead")

    def __init__(self) -> None:
        # (time, seq, event) or a call entry (time, seq, fn, a, b)
        self._queue: list[tuple] = []
        self._seq: Iterator[int] = itertools.count()
        self._now = 0.0
        self._executed = 0
        self._running = False
        self._live = 0  # scheduled, not cancelled, not yet popped
        self._dead = 0  # cancelled entries still sitting in the heap

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued — O(1)."""
        return self._live

    @property
    def executed_events(self) -> int:
        """Number of events executed so far."""
        return self._executed

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which can be cancelled.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self._now + delay
        seq = next(self._seq)
        event = Event(time, seq, callback, label, self)
        heapq.heappush(self._queue, (time, seq, event))
        self._live += 1
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        seq = next(self._seq)
        event = Event(time, seq, callback, label, self)
        heapq.heappush(self._queue, (time, seq, event))
        self._live += 1
        return event

    def call_at(
        self, time: float, fn: Callable[[Any, Any], None], a: Any, b: Any
    ) -> None:
        """Run ``fn(a, b)`` at absolute simulation time ``time``.

        An uncancellable :meth:`schedule_at` that returns no handle: the
        heap entry ``(time, seq, fn, a, b)`` is all there is, its seq drawn
        from the same counter as every event's.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        heapq.heappush(self._queue, (time, next(self._seq), fn, a, b))
        self._live += 1

    def inject_at(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at ``time`` with an *explicit* sequence
        number instead of the next counter value.

        This is the replay primitive of the live runtime: a recorded run
        logs the ``(time, seq)`` of every ingress frame event, and replay
        re-injects each frame at its recorded coordinates (after
        :meth:`reserve_seqs` has fenced those numbers off from normal
        allocation), reproducing the exact heap order of the original
        execution.  The caller owns seq uniqueness — colliding with a
        live event's seq at the same time would make heap order compare
        the Event objects themselves.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot inject at t={time} before now={self._now}"
            )
        event = Event(time, seq, callback, label, self)
        heapq.heappush(self._queue, (time, seq, event))
        self._live += 1
        return event

    def reserve_seqs(self, seqs: Iterable[int]) -> None:
        """Fence the given sequence numbers off from normal allocation.

        After this call, :meth:`schedule`, :meth:`schedule_at` and
        :meth:`call_at` skip every reserved value, leaving them for
        :meth:`inject_at`.  Must be called before any events are scheduled
        past the smallest reserved value — reserving an already-issued seq
        raises.
        """
        reserved = frozenset(seqs)
        if not reserved:
            return
        counter = self._seq
        probe = next(counter)
        if any(seq < probe for seq in reserved):
            raise SimulationError(
                f"cannot reserve already-issued seqs (next={probe})"
            )

        def skipping(first: int) -> Iterator[int]:
            value = first
            while True:
                if value not in reserved:
                    yield value
                value = next(counter)

        self._seq = skipping(probe)

    def _note_cancelled(self) -> None:
        """Account for one cancellation; compact when dead weight piles up."""
        self._live -= 1
        self._dead += 1
        if self._dead > _COMPACT_MIN_DEAD and self._dead * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (lazy-deletion cleanup)."""
        self._queue = [
            entry
            for entry in self._queue
            if len(entry) == 5 or not entry[2].cancelled
        ]
        heapq.heapify(self._queue)
        self._dead = 0

    def next_event_time(self) -> float | None:
        """Timestamp of the earliest live event, or ``None`` when the queue
        holds nothing that can still fire.

        Cancelled entries encountered at the head are popped eagerly (they
        are dead weight anyway), so the peek stays amortized O(1).  The
        live runtime's pacer uses this to sleep exactly until the next
        protocol deadline instead of polling."""
        queue = self._queue
        while queue and len(queue[0]) == 3 and queue[0][2].cancelled:
            heapq.heappop(queue)
            self._dead -= 1
        return queue[0][0] if queue else None

    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event was executed, ``False`` if the queue
        was empty.
        """
        queue = self._queue
        pop = heapq.heappop
        while queue:
            entry = pop(queue)
            if len(entry) == 5:
                when, _, fn, a, b = entry
                self._live -= 1
                self._now = when
                self._executed += 1
                fn(a, b)
                return True
            event = entry[2]
            if event.cancelled:
                self._dead -= 1
                continue
            self._live -= 1
            self._now = event.time
            self._executed += 1
            event.executed = True
            event.callback()
            return True
        return False

    def run_until(self, time: float, max_events: int | None = None) -> None:
        """Run events with timestamps ``<= time``.

        The clock is advanced to exactly ``time`` when the queue drains or
        only later events remain.  ``max_events`` bounds the number of
        executed events (a safety valve for runaway protocols in tests).
        """
        if time < self._now:
            raise SimulationError(f"cannot run backwards to t={time}")
        if self._running:
            raise SimulationError("run_until is not reentrant")
        self._running = True
        pop = heapq.heappop
        try:
            executed = 0
            queue = self._queue
            while queue:
                if queue[0][0] > time:
                    break
                entry = pop(queue)
                if len(entry) == 5:
                    when, _, fn, a, b = entry
                    self._live -= 1
                    self._now = when
                    self._executed += 1
                    fn(a, b)
                else:
                    event = entry[2]
                    if event.cancelled:
                        self._dead -= 1
                        continue
                    self._live -= 1
                    self._now = event.time
                    self._executed += 1
                    event.executed = True
                    event.callback()
                executed += 1
                if max_events is not None and executed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} before t={time}"
                    )
                queue = self._queue  # compaction may have rebound the list
            self._now = time
        finally:
            self._running = False

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until the event queue is exhausted."""
        executed = 0
        while self.step():
            executed += 1
            if executed >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")

    def clear(self) -> None:
        """Drop all pending events (the clock is left unchanged)."""
        for entry in self._queue:
            # detach so a later cancel() of a dropped handle cannot skew
            # the live/dead accounting of events no longer in the heap
            if len(entry) == 3:
                entry[2]._sim = None
        self._queue.clear()
        self._live = 0
        self._dead = 0


@dataclass(slots=True)
class PeriodicTimer:
    """A repeating timer built on a :class:`Simulator`.

    The callback fires every ``period`` seconds starting ``period`` (or
    ``first_delay``) from :meth:`start`.  The timer stops rescheduling once
    :meth:`stop` is called.
    """

    sim: Simulator
    period: float
    callback: Callable[[], None]
    label: str = ""
    _event: Event | None = field(default=None, repr=False)
    _active: bool = field(default=False, repr=False)

    def start(self, first_delay: float | None = None) -> None:
        """Arm the timer; the first firing is after ``first_delay`` (default:
        one full period)."""
        if self.period <= 0:
            raise SimulationError(f"period must be positive (got {self.period})")
        self._active = True
        delay = self.period if first_delay is None else first_delay
        self._event = self.sim.schedule(delay, self._fire, label=self.label)

    def stop(self) -> None:
        """Disarm the timer; a pending firing is cancelled."""
        self._active = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def active(self) -> bool:
        return self._active

    def _fire(self) -> None:
        if not self._active:
            return
        self.callback()
        if self._active:
            self._event = self.sim.schedule(self.period, self._fire, label=self.label)


__all__ = [
    "Event",
    "PeriodicTimer",
    "SimulationError",
    "Simulator",
]
