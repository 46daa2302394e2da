"""A frozen reference load: what this host's speed is *right now*.

The host the benchmark runs on is shared.  Other tenants slow it down in
bursts of seconds and in levels that last minutes, by up to a half, and the
same code then reads that much more CPU per operation (README, "Harness
policy").  A register-only loop does not feel it — what slows down is code
that misses the cache, as an interpreter walking dictionaries and heaps does.
So the yardstick is a small program of that kind, which no change to
``src/repro`` can touch: a toy discrete-event loop (heap scheduler, a frozen
dataclass allocated per event, per-node dictionaries).  CPU time is reported
as "what it cost, over what the yardstick cost at the same moment":
:func:`normalise`.

Nothing here may change once results have been recorded against it; a
different yardstick makes a different unit.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

#: CPU seconds one :meth:`RefLoad.cost` takes on the sizing box (2 vCPU Xeon
#: 2.1 GHz, Python 3.11) when nobody else is using the host: normalised
#: times are in seconds *of that machine*
NOMINAL_COST = 0.00165

_NODES = 64
_KEYS = 1024
_IN_FLIGHT = 256
_EVENTS = 1000


@dataclass(frozen=True)
class _Event:
    src: int
    dst: int
    seq: int
    sent: float


class RefLoad:
    """The yardstick.  Its state has a fixed size (every table is full from
    the start) and holds integers plus 256 heap entries, so running it
    inside a measuring window leaves next to nothing behind for the cyclic
    collector to walk."""

    def __init__(self) -> None:
        self._tables: list[dict[int, int]] = [
            {key: node * _KEYS + key for key in range(_KEYS)} for node in range(_NODES)
        ]
        self._heap = [(i * 0.001, i, i % _NODES) for i in range(_IN_FLIGHT)]
        heapq.heapify(self._heap)
        self._seq = _IN_FLIGHT
        self._run(10 * _EVENTS)  # reach the steady state of the heap

    def _run(self, events: int) -> None:
        heap, tables, seq = self._heap, self._tables, self._seq
        pop, push = heapq.heappop, heapq.heappush
        for _ in range(events):
            when, number, node = pop(heap)
            event = _Event(node, (node * 7 + number) % _NODES, number, when)
            table = tables[event.dst]
            key = (number // _NODES) % _KEYS
            table[key] = table[key] // 2 + event.seq
            seq += 1
            push(heap, (when + 0.001 * (number * 31 % 17 + 1), seq, event.dst))
        self._seq = seq

    def cost(self) -> float:
        """CPU seconds one fixed chunk of the yardstick takes now."""
        started = time.process_time()
        self._run(_EVENTS)
        return time.process_time() - started


def normalise(seconds: float, reference_cost: float) -> float:
    """``seconds`` of CPU, measured while one yardstick chunk cost
    ``reference_cost``, as seconds of the sizing box at its own speed."""
    return seconds * NOMINAL_COST / reference_cost
