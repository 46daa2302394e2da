"""Client-side session auditing: the paper's bad events, measured.

Section 2 names the failure modes a migrated session can expose: lost
requests, duplicate responses, unwanted (stale-context) responses, and
loss of service.  This module computes all of them from a
:class:`~repro.core.client.SessionHandle`'s logs plus the cluster trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.client import SessionHandle


@dataclass
class SessionAuditReport:
    """Everything the audit can say about one session."""

    session_id: str
    responses_received: int
    distinct_indices: int
    duplicate_count: int
    missing_count: int
    stale_count: int
    uncertain_resends: int
    max_gap: float
    updates_sent: int

    @property
    def duplicate_fraction(self) -> float:
        if self.responses_received == 0:
            return 0.0
        return self.duplicate_count / self.responses_received


def audit_session(
    handle: SessionHandle,
    stale_grace: float = 1.0,
    until: float | None = None,
) -> SessionAuditReport:
    """Audit a (typically streaming) session.

    * **duplicates** — responses whose application index was seen before;
    * **missing** — indices in ``[0, max_seen]`` never received (for VoD
      this is only meaningful when the client never skipped *forward*;
      experiments that skip use :func:`lost_updates` instead);
    * **stale** — responses generated under a context older than the
      newest update the client had sent at least ``stale_grace`` earlier
      (in-flight updates inside the grace window are not counted);
    * **max_gap** — the longest silence between consecutive responses.
    """
    received = [
        r for r in handle.received if until is None or r.time <= until
    ]
    seen: set[int] = set()
    duplicates = 0
    stale = 0
    uncertain = 0
    max_gap = 0.0
    last_time: float | None = None
    for response in received:
        if response.index in seen:
            duplicates += 1
        seen.add(response.index)
        if response.uncertain:
            uncertain += 1
        expected_counter = 0
        for sent_time, counter, _update in handle.updates_sent:
            if sent_time <= response.time - stale_grace:
                expected_counter = max(expected_counter, counter)
        if response.based_on_update < expected_counter:
            stale += 1
        if last_time is not None:
            max_gap = max(max_gap, response.time - last_time)
        last_time = response.time
    missing = (max(seen) + 1 - len(seen)) if seen else 0
    return SessionAuditReport(
        session_id=handle.session_id,
        responses_received=len(received),
        distinct_indices=len(seen),
        duplicate_count=duplicates,
        missing_count=missing,
        stale_count=stale,
        uncertain_resends=uncertain,
        max_gap=max_gap,
        updates_sent=len(handle.updates_sent),
    )


def _best_reflected_counter(cluster, session_id: str) -> int:
    """Freshest context-update counter any live server still holds for the
    session (primary runtime, backup replica, or unit-DB record); -1 when
    no trace of the session survives anywhere."""
    best = -1
    for server in cluster.servers.values():
        if not server.is_up():
            continue
        runtime = server.primaries.get(session_id)
        if runtime is not None:
            best = max(best, runtime.ctx.update_counter)
        backup = server.backups.get(session_id)
        if backup is not None:
            best = max(best, backup.effective_update_counter)
        for db in server.unit_dbs.values():
            record = db.get(session_id)
            if record is not None:
                best = max(best, record.snapshot.update_counter)
    return best


def lost_updates(cluster, handle: SessionHandle) -> int:
    """Updates the client sent that no live primary's context reflects.

    Call after quiescing (stop sending, let the cluster settle): the gap
    between the client's last counter and the current primary's applied
    counter is exactly the set of permanently lost updates.  If the
    session has no live primary the whole tail is at risk; we report the
    gap against the freshest surviving record (unit DB / backups).
    """
    best = _best_reflected_counter(cluster, handle.session_id)
    if best < 0:
        return handle.update_counter  # everything is gone
    return max(0, handle.update_counter - best)


def lost_acked_updates(cluster, handle: SessionHandle) -> int:
    """Acknowledged updates that no surviving server reflects.

    The strict durability bar for live failover runs: an update whose
    send the GCS layer acknowledged must survive the primary's crash.
    Counters the client itself saw fail (and reported to the caller) are
    excluded — they were never promised.
    """
    best = _best_reflected_counter(cluster, handle.session_id)
    failed = set(handle.failed_update_counters)
    return sum(
        1
        for counter in range(1, handle.update_counter + 1)
        if counter > best and counter not in failed
    )


def service_gaps(
    handle: SessionHandle, threshold: float, until: float | None = None
) -> list[tuple[float, float]]:
    """Intervals longer than ``threshold`` between consecutive responses
    (after the first response).  The client-visible outage windows."""
    times = [
        r.time for r in handle.received if until is None or r.time <= until
    ]
    gaps = []
    for earlier, later in zip(times, times[1:]):
        if later - earlier > threshold:
            gaps.append((earlier, later))
    return gaps


def max_concurrent_senders(handle: SessionHandle, window: float = 1.0) -> int:
    """Largest number of distinct servers from which the client received
    responses within any time window — the *client-visible* form of the
    unique-primary goal (2+ means two servers were serving it at once)."""
    best = 0
    received = handle.received
    for start_index, first in enumerate(received):
        senders = {first.sender}
        for later in received[start_index + 1 :]:
            if later.time - first.time > window:
                break
            senders.add(later.sender)
        best = max(best, len(senders))
    return best


def dual_sender_time(handle: SessionHandle, max_dt: float = 0.3) -> float:
    """Total time covered by *adjacent* responses from different servers
    arriving within ``max_dt`` of each other.

    A clean handover produces at most one cross-sender pair separated by
    the takeover gap (> ``max_dt``), so it contributes ~0; two servers
    concurrently streaming (the WAN non-transitive hazard) interleave
    continuously and accumulate the overlap duration."""
    total = 0.0
    received = handle.received
    for earlier, later in zip(received, received[1:]):
        dt = later.time - earlier.time
        if later.sender != earlier.sender and dt <= max_dt:
            total += dt
    return total


def primary_intervals(cluster, session_id: str) -> dict[str, list[tuple[float, float]]]:
    """Per-server intervals during which it held the primary role,
    reconstructed from the trace (``fw.promote`` / ``fw.demote`` /
    ``process.crash``)."""
    trace = cluster.trace_log()
    open_at: dict[str, float] = {}
    intervals: dict[str, list[tuple[float, float]]] = {}
    for event in trace.in_categories("fw.promote", "fw.demote", "process.crash"):
        node = event.node
        if event.category == "fw.promote" and event.detail.get("session") == session_id:
            open_at[node] = event.time
        elif (
            event.category == "fw.demote" and event.detail.get("session") == session_id
        ):
            if node in open_at:
                intervals.setdefault(node, []).append((open_at.pop(node), event.time))
        elif event.category == "process.crash":
            if node in open_at:
                intervals.setdefault(node, []).append((open_at.pop(node), event.time))
    now = cluster.sim.now
    for node, started in open_at.items():
        intervals.setdefault(node, []).append((started, now))
    return intervals


__all__ = [
    "SessionAuditReport",
    "audit_session",
    "lost_acked_updates",
    "lost_updates",
    "max_concurrent_senders",
    "primary_intervals",
    "service_gaps",
]
