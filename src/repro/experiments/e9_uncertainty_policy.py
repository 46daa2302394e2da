"""E9 — the duplicate-vs-loss choice for uncertain responses.

Paper claim (Section 4): for responses possibly sent between the last
propagation and the crash, the successor "can either transmit the response
(risking the client seeing a duplicate ...) or it can not transmit
(risking that the client never sees the response).  The choice is
application specific.  For example, for MPEG-encoded video, one would
favor duplicate delivery for full image (I) frames over the risk of losing
them, but would risk missing some incremental (P or B) frames."

Method: identical failovers on an MPEG-like GOP stream under resend-all,
skip-uncertain, and the selective MPEG policy; duplicates and losses are
counted per frame class.
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.montecarlo import MonteCarlo
from repro.core.responses import ResendAll, SkipUncertain, mpeg_policy
from repro.metrics.report import Table
from repro.experiments.common import vod_cluster

FRAME_RATE = 24.0

POLICIES = {
    "resend-all": ResendAll,
    "skip-uncertain": SkipUncertain,
    "mpeg (I only)": mpeg_policy,
}


def _one_rep(seed: int, policy_factory) -> dict:
    cluster = vod_cluster(
        n_servers=3,
        num_backups=1,
        propagation_period=0.5,
        seed=seed,
        frame_rate=FRAME_RATE,
        movie_seconds=600,
        uncertainty_policy=policy_factory(),
        trace=False,
    )
    client = cluster.add_client("c0")
    handle = client.start_session("m0")
    cluster.run(4.0 + (seed % 5) * 0.11)
    victims = cluster.primaries_of(handle.session_id)
    if victims:
        cluster.crash_server(victims[0])
    cluster.run(6.0)

    app = cluster.servers[cluster.hosts_of("m0")[0]].applications["m0"]
    movie = app.movie("m0")
    seen = [r.index for r in handle.received]
    counts = Counter(seen)
    dup_by_class: Counter = Counter()
    for index, count in counts.items():
        if count > 1:
            dup_by_class[movie.frame_class(index)] += count - 1
    missing_by_class: Counter = Counter()
    for index in range(max(seen) + 1):
        if index not in counts:
            missing_by_class[movie.frame_class(index)] += 1
    return {
        "dup_I": dup_by_class["I"],
        "dup_PB": dup_by_class["P"] + dup_by_class["B"],
        "lost_I": missing_by_class["I"],
        "lost_PB": missing_by_class["P"] + missing_by_class["B"],
    }


def run(seed: int = 0, fast: bool = False) -> list[Table]:
    reps = 2 if fast else 6
    table = Table(
        title="E9: uncertainty policies on an MPEG-like stream "
        f"(GOP IBBPBBPBBPBB, {FRAME_RATE:.0f} fps, T=0.5 s)",
        columns=[
            "policy",
            "dup_I",
            "dup_P/B",
            "lost_I",
            "lost_P/B",
        ],
    )
    for name, factory in POLICIES.items():
        mc = MonteCarlo(
            fn=lambda s, f=factory: _one_rep(s, f),
            n_reps=reps,
            base_seed=seed,
        ).run()
        table.add_row(
            name,
            mc.aggregate("dup_I").mean,
            mc.aggregate("dup_PB").mean,
            mc.aggregate("lost_I").mean,
            mc.aggregate("lost_PB").mean,
        )
    table.add_note(
        "paper's recommendation is the third row: duplicate I frames "
        "(never lose one), accept losing some P/B frames"
    )
    return [table]
