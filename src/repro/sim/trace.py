"""Structured trace log.

Every interesting action in the stack (message delivery, view installation,
primary takeover, ...) can be recorded in a :class:`TraceLog`.  Traces are
the raw material for the experiment metrics and make failed property tests
debuggable: a test can dump the interleaving that broke an invariant.

A record is stored as one entry in each of four columns (time, node,
category, detail), not as an object: a chaos seed records one
``net.deliver`` per message, and one long-lived GC-tracked object per
record was a third of what a seed left for the cyclic collector.  Readers get a
:class:`TraceEvent` (a named tuple) built on demand; the digest reads the
columns through :meth:`TraceLog.columns`.  A detail dict is stored as
given and may be shared between records (``Network`` hands every delivery
of one sender and kind the same dict), so details are read-only once
recorded.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Iterable, Iterator, NamedTuple


class TraceEvent(NamedTuple):
    """One recorded event: time, originating node, category, and details."""

    time: float
    node: Any
    category: str
    detail: dict[str, Any]

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        details = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time:10.4f}s] {self.node} {self.category} {details}"


class TraceLog:
    """An append-only log of trace records with simple querying.

    Recording can be disabled wholesale (``enabled=False``) or filtered to a
    set of categories, which keeps long benchmark runs cheap.  Reads by
    category (:meth:`select`, :meth:`count`, :meth:`in_categories`) go
    through a per-category index and cost O(matches), not O(log length).
    """

    def __init__(
        self,
        enabled: bool = True,
        categories: Iterable[str] | None = None,
    ) -> None:
        self.enabled = enabled
        self._filter = set(categories) if categories is not None else None
        # one column per field; the record with serial ``n`` is entry ``n``
        # of each.  Times stay the objects given (an ``int`` prints as an
        # ``int`` in the digest), so a list and not an ``array('d')``.
        self._times: list[Any] = []
        self._nodes: list[Any] = []
        self._categories: list[str] = []
        self._details: list[dict[str, Any]] = []
        # category -> serial numbers of its records, ascending (packed: a
        # run's log is mostly one category, and the index should not
        # double its footprint)
        self._index: dict[str, array[int]] = {}
        self._subscribers: list[Callable[[TraceEvent], None]] = []

    def record(self, time: float, node: Any, category: str, **detail: Any) -> None:
        """Append an event (no-op when disabled or category filtered out)."""
        self.record_detail(time, node, category, detail)

    def record_detail(
        self, time: float, node: Any, category: str, detail: dict[str, Any]
    ) -> None:
        """:meth:`record` with the detail as a dict the log keeps as is and
        never copies — the entry for hot paths, and for details whose keys
        could collide with the positional parameters.  The caller must not
        mutate ``detail`` afterwards; it may hand the same dict again."""
        if not self.enabled:
            return
        if self._filter is not None and category not in self._filter:
            return
        serials = self._index.get(category)
        if serials is None:
            serials = self._index[category] = array("q")
        serials.append(len(self._times))
        self._times.append(time)
        self._nodes.append(node)
        self._categories.append(category)
        self._details.append(detail)
        if self._subscribers:
            event = TraceEvent(time, node, category, detail)
            for subscriber in self._subscribers:
                subscriber(event)

    def subscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Invoke ``callback`` synchronously for every future event."""
        self._subscribers.append(callback)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def columns(
        self,
    ) -> tuple[list[Any], list[Any], list[str], list[dict[str, Any]]]:
        """The live ``(times, nodes, categories, details)`` columns, for
        readers that want every record without building events; read
        them, never mutate them."""
        return self._times, self._nodes, self._categories, self._details

    def _event(self, serial: int) -> TraceEvent:
        return TraceEvent(
            self._times[serial],
            self._nodes[serial],
            self._categories[serial],
            self._details[serial],
        )

    @property
    def events(self) -> list[TraceEvent]:
        """A copy of the log; iterate the log itself to read in place."""
        return list(self)

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(TraceEvent, self._times, self._nodes, self._categories, self._details)

    def __len__(self) -> int:
        return len(self._times)

    def _serials(self, *categories: str) -> list[int]:
        return sorted(
            serial
            for category in set(categories)
            for serial in self._index.get(category, ())
        )

    def in_categories(self, *categories: str) -> list[TraceEvent]:
        """Events of any of the given categories, in log order."""
        return [self._event(serial) for serial in self._serials(*categories)]

    def select(
        self,
        category: str | None = None,
        node: Any | None = None,
        since: float | None = None,
        until: float | None = None,
    ) -> list[TraceEvent]:
        """Return events matching all given filters."""
        times, nodes = self._times, self._nodes
        serials: Iterable[int] = (
            range(len(times)) if category is None else self._serials(category)
        )
        return [
            self._event(serial)
            for serial in serials
            if (node is None or nodes[serial] == node)
            and (since is None or times[serial] >= since)
            and (until is None or times[serial] <= until)
        ]

    def count(self, category: str) -> int:
        return len(self._index.get(category, ()))

    def clear(self) -> None:
        self._times.clear()
        self._nodes.clear()
        self._categories.clear()
        self._details.clear()
        self._index.clear()

    def dump(self, limit: int | None = None) -> str:  # pragma: no cover
        """Render the (tail of the) trace for debugging."""
        events = self.events if limit is None else self.events[-limit:]
        return "\n".join(str(event) for event in events)


__all__ = ["TraceEvent", "TraceLog"]
