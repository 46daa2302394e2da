"""Open-loop load: seeded Poisson arrivals and due-time latency matching.

Arrivals are generated from the seed before the pacer starts and scheduled
as simulator events; each request is timed on the wall clock *from the
instant it was due*, so a stall in the system (or in the generator — its
own lateness is reported separately) is charged to every request it delays
instead of silently thinning the load.
"""

from __future__ import annotations

import random
from collections import deque


def poisson_arrivals(
    rng: random.Random, rate: float, start: float, duration: float
) -> list[float]:
    """Arrival instants of a Poisson process of ``rate``/s on
    ``[start, start + duration)``."""
    arrivals: list[float] = []
    t = start + rng.expovariate(rate)
    end = start + duration
    while t < end:
        arrivals.append(t)
        t += rng.expovariate(rate)
    return arrivals


class SessionMatcher:
    """Pairs one session's requests with the responses that answer them.

    A request with update counter ``c`` completes at the first response
    whose ``based_on_update >= c``.  Matching on the response *index* is
    wrong: after a takeover the successor's indices restart from its own
    context, so an index-keyed matcher reads a constant phantom backlog.
    """

    __slots__ = ("_open",)

    def __init__(self) -> None:
        self._open: deque[tuple[int, float, int]] = deque()

    def sent(self, counter: int, due: float, tag: int = 0) -> None:
        self._open.append((counter, due, tag))

    def response(self, based_on_update: int, now: float) -> list[tuple[int, float]]:
        """Record a response; returns ``(tag, latency)`` of every request it
        completes (oldest first)."""
        done: list[tuple[int, float]] = []
        pending = self._open
        while pending and pending[0][0] <= based_on_update:
            _counter, due, tag = pending.popleft()
            done.append((tag, now - due))
        return done

    @property
    def outstanding(self) -> int:
        return len(self._open)

    def unanswered(self) -> list[tuple[int, float, int]]:
        """``(counter, due, tag)`` of every request still waiting."""
        return list(self._open)
