"""Structured trace log.

Every interesting action in the stack (message delivery, view installation,
primary takeover, ...) can be recorded as a :class:`TraceEvent`.  Traces are
the raw material for the experiment metrics and make failed property tests
debuggable: a test can dump the interleaving that broke an invariant.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event: time, originating node, category, and details."""

    time: float
    node: Any
    category: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        details = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time:10.4f}s] {self.node} {self.category} {details}"


class TraceLog:
    """An append-only log of :class:`TraceEvent` with simple querying.

    Recording can be disabled wholesale (``enabled=False``) or filtered to a
    set of categories, which keeps long benchmark runs cheap.  Reads by
    category (:meth:`select`, :meth:`count`, :meth:`in_categories`) go
    through a per-category index and cost O(matches), not O(log length).
    """

    def __init__(
        self,
        enabled: bool = True,
        categories: Iterable[str] | None = None,
        capacity: int | None = None,
    ) -> None:
        self.enabled = enabled
        self._categories = set(categories) if categories is not None else None
        self._capacity = capacity
        self._events: list[TraceEvent] = []
        # category -> serial numbers of its events, ascending (packed: a
        # run's log is mostly one category, and the index should not
        # double its footprint); the event with serial ``n`` sits at
        # ``_events[n - _first]``
        self._index: dict[str, array[int]] = {}
        self._first = 0
        self._subscribers: list[Callable[[TraceEvent], None]] = []

    def record(self, time: float, node: Any, category: str, **detail: Any) -> None:
        """Append an event (no-op when disabled or category filtered out)."""
        self.record_detail(time, node, category, detail)

    def record_detail(
        self, time: float, node: Any, category: str, detail: dict[str, Any]
    ) -> None:
        """:meth:`record` with the detail as a dict the log takes over as
        is — the entry for hot paths, and for details whose keys could
        collide with the positional parameters."""
        if not self.enabled:
            return
        if self._categories is not None and category not in self._categories:
            return
        event = TraceEvent(time, node, category, detail)
        events = self._events
        serials = self._index.get(category)
        if serials is None:
            serials = self._index[category] = array("q")
        serials.append(self._first + len(events))
        events.append(event)
        if self._capacity is not None and len(events) > self._capacity:
            self._drop_oldest(len(events) - self._capacity)
        if self._subscribers:
            for subscriber in self._subscribers:
                subscriber(event)

    def _drop_oldest(self, count: int) -> None:
        # the oldest event overall is the oldest of its category
        for event in self._events[:count]:
            del self._index[event.category][0]
        del self._events[:count]
        self._first += count

    def subscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Invoke ``callback`` synchronously for every future event."""
        self._subscribers.append(callback)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def events(self) -> list[TraceEvent]:
        """A copy of the log; iterate the log itself to read in place."""
        return list(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def in_categories(self, *categories: str) -> list[TraceEvent]:
        """Events of any of the given categories, in log order."""
        serials = sorted(
            serial
            for category in set(categories)
            for serial in self._index.get(category, ())
        )
        events, first = self._events, self._first
        return [events[serial - first] for serial in serials]

    def select(
        self,
        category: str | None = None,
        node: Any | None = None,
        since: float | None = None,
        until: float | None = None,
    ) -> list[TraceEvent]:
        """Return events matching all given filters."""
        candidates = self._events if category is None else self.in_categories(category)
        return [
            event
            for event in candidates
            if (node is None or event.node == node)
            and (since is None or event.time >= since)
            and (until is None or event.time <= until)
        ]

    def count(self, category: str) -> int:
        return len(self._index.get(category, ()))

    def clear(self) -> None:
        self._events.clear()
        self._index.clear()
        self._first = 0

    def dump(self, limit: int | None = None) -> str:  # pragma: no cover
        """Render the (tail of the) trace for debugging."""
        events = self._events if limit is None else self._events[-limit:]
        return "\n".join(str(event) for event in events)


__all__ = ["TraceEvent", "TraceLog"]
