"""Drives open-loop requests at the ``RrApplication`` and times the answers."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro.core.wire import ResponseMsg

from bench import stats
from bench.live import LiveHarness
from bench.loadgen import SessionMatcher
from bench.rrapp import fold

SLO_MS = 25.0
#: tag of the harness's own flush probes (never counted as attempted)
FLUSH = -1
#: seconds the drain waits for answers before it flushes the tail again
FLUSH_EVERY = 0.25
#: a run whose generator fired later than this at the *median* is marked
#: invalid.  The arrivals are cluster events, so their lateness is the
#: pacer's lag: its sleeps go through the selector, whose timeout is rounded
#: up to whole milliseconds (p50 0.5 ms, p99 1.1-1.2 ms on an idle cluster,
#: so the sizing note's "p99 <= 1 ms" cannot be met by construction).
LATE_LIMIT_MS = 1.0


def judge_lateness(out: Any, late: list[float]) -> None:
    """Report how late the generator fired each request (seconds) and mark
    the run invalid when it ran late: its latencies still count from the due
    instant, but the offered load was not the one intended.

    Judged at the median.  Generator and cluster share one thread, so the
    tail of the lateness is the system itself holding the thread (a
    takeover, a rejoin, a stall) — already charged to the requests it
    delayed, and a rule that threw those runs out would throw out the
    evidence of the stalls.  A late median means the loop was behind its
    schedule most of the time: the host, not the stack, set the numbers."""
    ordered = sorted(late)
    p50 = stats.percentile(ordered, 0.50) * 1e3
    out.put("loadgen_late_p99_ms", stats.percentile(ordered, 0.99) * 1e3, "ms",
            n=len(ordered), p50_ms=p50)
    out.info["loadgen_invalid"] = p50 > LATE_LIMIT_MS
    if p50 > LATE_LIMIT_MS:
        out.notes.append(
            f"INVALID: load generator {p50:.2f} ms late at the median "
            f"(limit {LATE_LIMIT_MS} ms)"
        )


@dataclass
class AnswerTally:
    """What the load generator saw, as the correctness checks need it."""

    attempted: int
    outstanding: int
    responses: int
    #: updates actually sent: the attempted requests plus any flush probes
    updates_sent: int
    wrong_answers: int = 0
    malformed_answers: int = 0
    never_applied: int = 0


class RequestDriver:
    """Pre-schedules requests as cluster events and matches every response.

    Each request carries a ``tag`` (the phase it belongs to); completed
    latencies are kept per tag in seconds, measured from the request's due
    instant.  Every response's digest is checked against the digest the
    generator computes itself from the updates it sent.
    """

    def __init__(self, harness: LiveHarness) -> None:
        self.harness = harness
        self.handles = list(harness.handles)
        self._matchers = {h.session_id: SessionMatcher() for h in self.handles}
        #: expected digest after update counter c, per session
        self._digests = {h.session_id: [0] for h in self.handles}
        self.latencies: dict[int, list[float]] = {}
        #: per phase tag, the wall-clock due instant of every answered
        #: request, parallel to ``latencies``
        self.due_walls: dict[int, list[float]] = {}
        self.sent_by_tag: dict[int, int] = {}
        #: per phase tag, how late the generator itself fired each request
        self.generator_late: dict[int, list[float]] = {}
        self.wrong_answers = 0
        self.malformed_answers = 0
        #: per session, updates the answering context never applied (the
        #: response's update counter minus its applied count)
        self.never_applied: dict[str, int] = {}
        self.responses = 0
        self.flushes = 0
        #: per session, ``(wall, sender, based_on_update)`` of every response,
        #: in arrival order
        self.senders: dict[str, list[tuple[float, Any, int]]] = {
            h.session_id: [] for h in self.handles
        }
        self._events: dict[int, list[Any]] = {}
        harness.client.observer = self._on_response

    # ------------------------------------------------------------------
    def schedule(self, due: float, session: int, value: int, tag: int) -> None:
        """Schedule one request on session number ``session`` at cluster
        time ``due``."""
        handle = self.handles[session]
        event = self.harness.sim.schedule_at(
            due, lambda: self._fire(handle, due, value, tag), label="bench:request"
        )
        self._events.setdefault(tag, []).append(event)

    def cancel(self, tag: int) -> int:
        """Withdraw every not-yet-sent request of phase ``tag``."""
        events = self._events.pop(tag, [])
        for event in events:
            event.cancel()
        return len(events)

    def _fire(self, handle: Any, due: float, value: int, tag: int) -> None:
        due_wall = self.harness.wall_of(due)
        self.generator_late.setdefault(tag, []).append(time.monotonic() - due_wall)
        counter = self.harness.client.send_update(handle, {"op": "put", "v": value})
        digests = self._digests[handle.session_id]
        digests.append(fold(digests[-1], value))
        self._matchers[handle.session_id].sent(counter, due_wall, tag)
        self.sent_by_tag[tag] = self.sent_by_tag.get(tag, 0) + 1

    def _on_response(self, sender: Any, message: ResponseMsg) -> None:
        now = time.monotonic()
        session_id = message.session_id
        matcher = self._matchers.get(session_id)
        if matcher is None:
            return
        self.responses += 1
        digests = self._digests[session_id]
        based_on = message.based_on_update
        if based_on >= len(digests) or message.index > based_on:
            self.malformed_answers += 1
        elif message.body != digests[based_on]:
            self.wrong_answers += 1
        self.never_applied[session_id] = based_on - message.index
        self.senders[session_id].append((now, sender, based_on))
        for tag, latency in matcher.response(based_on, now):
            self.latencies.setdefault(tag, []).append(latency)
            self.due_walls.setdefault(tag, []).append(now - latency)

    def flush(self) -> int:
        """Send one extra update on every session that still has unanswered
        requests; returns how many were sent.

        The stack answers an update only where a responding primary applies
        it.  Updates applied by a backup during an outage, or by a successor
        still awaiting its handoff, are reflected in the *next* response —
        which at the end of a run never comes unless something asks."""
        sent = 0
        now = time.monotonic()
        for handle in self.handles:
            matcher = self._matchers[handle.session_id]
            if any(tag != FLUSH for _c, _d, tag in matcher.unanswered()):
                counter = self.harness.client.send_update(handle, {"op": "put", "v": 0})
                digests = self._digests[handle.session_id]
                digests.append(fold(digests[-1], 0))
                matcher.sent(counter, now, FLUSH)
                sent += 1
        self.flushes += sent
        return sent

    async def drain(self, timeout: float) -> None:
        """Pace the cluster until every request is answered (flushing the
        tail as needed) or ``timeout`` seconds pass."""
        deadline = time.monotonic() + timeout
        while self.outstanding and time.monotonic() < deadline:
            if await self.harness.run_until(lambda: self.outstanding == 0, FLUSH_EVERY):
                break
            self.flush()

    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Requests (flush probes excluded) not yet answered."""
        return sum(
            1 for m in self._matchers.values() for _c, _d, tag in m.unanswered()
            if tag != FLUSH
        )

    def outstanding_of(self, tag: int) -> int:
        return sum(
            1 for m in self._matchers.values() for _c, _d, t in m.unanswered() if t == tag
        )

    @property
    def attempted(self) -> int:
        return sum(n for tag, n in self.sent_by_tag.items() if tag != FLUSH)

    def tally(self) -> AnswerTally:
        return AnswerTally(
            attempted=self.attempted,
            outstanding=self.outstanding,
            responses=self.responses,
            updates_sent=self.attempted + self.flushes,
            wrong_answers=self.wrong_answers,
            malformed_answers=self.malformed_answers,
            never_applied=sum(self.never_applied.values()),
        )
