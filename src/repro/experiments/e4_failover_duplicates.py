"""E4 — duplicates and staleness after a failover vs propagation period.

Paper anecdote (Section 3.1): "In the VoD service of [2], such updates are
sent every half a second.  Thus, upon migration, a new primary may send
half a second of duplicate video frames to the client and the server may
be unaware of context updates sent by the client in the last half a
second."

Method: one VoD session streams; the primary is crashed mid-stream; under
the resend-all policy the client counts duplicated frames.  Sweeping the
propagation period shows duplicates growing linearly with it
(expectation: rate*T/2 plus a few detection-time frames, since the
successor resumes from the last snapshot).
"""

from __future__ import annotations

from repro.analysis.availability import expected_duplicate_responses
from repro.analysis.montecarlo import MonteCarlo
from repro.metrics.report import Table
from repro.metrics.session_audit import audit_session
from repro.experiments.common import vod_cluster

FRAME_RATE = 20.0


def _one_rep(seed: int, period: float) -> dict:
    cluster = vod_cluster(
        n_servers=3,
        num_backups=1,
        propagation_period=period,
        seed=seed,
        frame_rate=FRAME_RATE,
        movie_seconds=600,
        trace=False,
    )
    client = cluster.add_client("c0")
    handle = client.start_session("m0")
    cluster.run(4.0 + (seed % 7) * 0.13)  # vary the crash phase per rep
    victims = cluster.primaries_of(handle.session_id)
    if victims:
        cluster.crash_server(victims[0])
    cluster.run(8.0)
    report = audit_session(handle)
    return {
        "duplicates": report.duplicate_count,
        "missing": report.missing_count,
        "max_gap": report.max_gap,
    }


def run(seed: int = 0, fast: bool = False) -> list[Table]:
    periods = [0.25, 1.0] if fast else [0.1, 0.25, 0.5, 1.0, 2.0]
    reps = 2 if fast else 6
    table = Table(
        title="E4: failover duplicates vs propagation period (resend-all, "
        f"{FRAME_RATE:.0f} fps)",
        columns=[
            "period_s",
            "dup_frames_mean",
            "dup_seconds_mean",
            "expected_dup_frames",
            "missing_mean",
            "takeover_gap_s",
        ],
    )
    for period in periods:
        mc = MonteCarlo(
            fn=lambda s, p=period: _one_rep(s, p),
            n_reps=reps,
            base_seed=seed + int(period * 100),
        ).run()
        duplicates = mc.aggregate("duplicates").mean
        table.add_row(
            period,
            duplicates,
            duplicates / FRAME_RATE,
            expected_duplicate_responses(period, FRAME_RATE),
            mc.aggregate("missing").mean,
            mc.aggregate("max_gap").mean,
        )
    table.add_note(
        "paper (T=0.5 s): about half a second of duplicate frames on "
        "migration; duplicates should grow roughly linearly with T"
    )
    return [table]
