"""Correctness checks: a run whose outputs are wrong is not a measurement."""

from __future__ import annotations

from typing import Any

from repro.metrics.session_audit import lost_acked_updates, lost_updates
from repro.metrics.windows import multi_primary_time_within, subtract_intervals

from bench.live import LiveHarness
from bench.outcome import Outcome

Interval = tuple[float, float]


def cluster_checks(
    out: Outcome, harness: LiveHarness, kill_windows: list[Interval],
    overlap_tolerance: float = 0.0,
) -> None:
    """Role and membership invariants at the end of a live run.

    ``overlap_tolerance`` is the role-overlap time tolerated per session
    outside the kill windows: zero on fault-free workloads."""
    clean = subtract_intervals([(0.0, harness.sim.now)], kill_windows)
    overlaps = [
        multi_primary_time_within(harness, handle.session_id, clean)
        for handle in harness.handles
    ]
    out.info["multi_primary_time"] = sum(overlaps)
    out.info["multi_primary_time_worst_session"] = max(overlaps, default=0.0)
    out.check(
        "single_primary_outside_kill_windows",
        max(overlaps, default=0.0) <= overlap_tolerance,
        f"worst session {max(overlaps, default=0.0):.4f}s > {overlap_tolerance}s",
    )
    out.check("one_primary_per_session_at_end", harness.one_primary_each())
    out.check("one_agreed_view_at_end", harness.agreed_view())


def update_checks(out: Outcome, harness: LiveHarness) -> None:
    """Durability of what the clients sent."""
    lost_acked = sum(lost_acked_updates(harness, h) for h in harness.handles)
    lost = sum(lost_updates(harness, h) for h in harness.handles)
    failed_sends = sum(h.failed_sends for h in harness.handles)
    out.info.update(
        lost_acked_updates=lost_acked, lost_updates=lost, failed_sends=failed_sends
    )
    out.check("lost_acked_updates_zero", lost_acked == 0, str(lost_acked))
    out.check("every_update_reflected", lost == 0, f"{lost} updates in no context")


def answer_checks(out: Outcome, tally: Any, exact: bool) -> None:
    """Judge what the load generator saw (``requests.AnswerTally``) and set
    the run's attempted/failed counts.

    A request has failed when no response ever reflected it
    (``outstanding``).  The benchmark's workloads are chosen so that this
    never happens on the stack as it stands: any failed operation is news.

    ``exact``: a fault-free run.  Every response's digest must equal the
    digest of all updates up to its counter, and there is exactly one
    response per update (a missing one is a failed operation).  Under kills
    the successor re-answers on takeover and the stack discards some updates
    (README finding 7), which shifts every later digest, so there only
    well-formedness is required of the answers themselves.  The discarded
    updates (``never_applied``: the answering context's update counter ran
    ahead of its applied count) are not hidden: ``failover_cycle`` reports
    them as ``updates_unapplied_share``.  They are not counted in ``failed``
    because their number is timing, 60-460 of 4000 from run to run of the
    same code, and the driver requires two sets of runs to agree on it."""
    out.attempted = tally.attempted
    missing = max(tally.updates_sent - tally.responses, 0) if exact else 0
    out.failed = tally.outstanding + missing
    out.info["updates_never_applied"] = tally.never_applied
    out.check(
        "answers_well_formed", tally.malformed_answers == 0,
        f"{tally.malformed_answers} responses claim more than was sent",
    )
    out.check(
        "every_request_answered", tally.outstanding == 0,
        f"{tally.outstanding} requests never reflected in a response",
    )
    if exact:
        out.check(
            "answers_match_generator_digest", tally.wrong_answers == 0,
            f"{tally.wrong_answers} responses carried a wrong digest",
        )
        out.check(
            "one_response_per_update", tally.responses == tally.updates_sent,
            f"{tally.responses} responses to {tally.updates_sent} updates",
        )


def request_checks(
    out: Outcome, harness: LiveHarness, driver: Any, kill_windows: list[Interval],
    overlap_tolerance: float = 0.0, exact_answers: bool = True,
) -> None:
    answer_checks(out, driver.tally(), exact_answers)
    update_checks(out, harness)
    cluster_checks(out, harness, kill_windows, overlap_tolerance)


def view_changes_since(harness: LiveHarness, baseline: dict[str, int]) -> int:
    """Configuration views installed since ``baseline`` (see
    :func:`config_view_counts`), summed over servers."""
    return sum(
        server.counters["config_views"] - baseline.get(server_id, 0)
        for server_id, server in harness.servers.items()
    )


def config_view_counts(harness: LiveHarness) -> dict[str, int]:
    return {sid: server.counters["config_views"] for sid, server in harness.servers.items()}
