"""Vector clocks — for checking causal delivery across groups.

The GCS itself does not need vector clocks at run time: one sequencer
orders all groups of a configuration into a single total order, so any
message causally after another (within the component) is also sequenced
after it.  That claim is argued, not yet checked: the spec monitor does
not use these clocks (ROADMAP item 10(a)).
"""

from __future__ import annotations

from typing import Hashable, Iterable


class VectorClock:
    """A mapping from node id to event counter with the usual partial order."""

    def __init__(self, entries: dict | None = None) -> None:
        self._entries: dict[Hashable, int] = dict(entries or {})

    def copy(self) -> "VectorClock":
        return VectorClock(self._entries)

    def get(self, node: Hashable) -> int:
        return self._entries.get(node, 0)

    def increment(self, node: Hashable) -> "VectorClock":
        """Return a new clock with ``node``'s component advanced by one."""
        clock = self.copy()
        clock._entries[node] = clock.get(node) + 1
        return clock

    def merge(self, other: "VectorClock") -> "VectorClock":
        """Component-wise maximum (the receive rule)."""
        merged = dict(self._entries)
        for node, count in other._entries.items():
            if merged.get(node, 0) < count:
                merged[node] = count
        return VectorClock(merged)

    # ------------------------------------------------------------------
    # ordering
    # ------------------------------------------------------------------
    def __le__(self, other: "VectorClock") -> bool:
        return all(count <= other.get(node) for node, count in self._entries.items())

    def __lt__(self, other: "VectorClock") -> bool:
        return self <= other and self != other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        nodes = set(self._entries) | set(other._entries)
        return all(self.get(n) == other.get(n) for n in nodes)

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash(frozenset((n, c) for n, c in self._entries.items() if c))

    def concurrent_with(self, other: "VectorClock") -> bool:
        return not (self <= other) and not (other <= self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{n}:{c}" for n, c in sorted(self._entries.items(), key=lambda kv: str(kv[0])))
        return f"VC({inner})"

    @staticmethod
    def zero(nodes: Iterable[Hashable] = ()) -> "VectorClock":
        return VectorClock({node: 0 for node in nodes})


__all__ = ["VectorClock"]
