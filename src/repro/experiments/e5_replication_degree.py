"""E5 — service outage vs the degree of content replication.

Paper claim (Section 4): "Every server which can provide this content may
have either crashed or disconnected from the client.  Clearly availability
is impossible in a scenario such as this.  The probability of this
scenario can be reduced by increasing the degree of replication."

Method: a VoD session streams while the unit's replicas crash and recover
as Poisson processes; we measure the fraction of time with no live
primary role for the session (service outage).  The analytic steady-state
model ``(lambda/(lambda+mu))**r`` is printed alongside.
"""

from __future__ import annotations

from repro.analysis.availability import total_outage_probability
from repro.analysis.markov import all_down_hitting_probability
from repro.analysis.montecarlo import MonteCarlo
from repro.faults.generators import poisson_crash_schedule
from repro.faults.injector import inject
from repro.metrics.report import Table
from repro.metrics.windows import no_primary_time
from repro.experiments.common import rng_for, vod_cluster

FAILURE_RATE = 0.1
MEAN_DOWNTIME = 3.0


def _one_rep(seed: int, replication: int, duration: float) -> dict:
    cluster = vod_cluster(
        n_servers=5,
        num_backups=1,
        propagation_period=0.5,
        seed=seed,
        frame_rate=10.0,
        movie_seconds=3600,
        replication=replication,
    )
    client = cluster.add_client("c0")
    handle = client.start_session("m0")
    cluster.run(3.0)
    hosts = cluster.hosts_of("m0")
    rng = rng_for(seed, "e5-faults")
    schedule = poisson_crash_schedule(
        rng,
        servers=hosts,
        duration=duration,
        failure_rate=FAILURE_RATE,
        mean_downtime=MEAN_DOWNTIME,
    )
    inject(cluster, schedule)
    start = cluster.sim.now
    # sample the all-hosts-down state as the run progresses
    samples = {"down": 0, "total": 0}

    def sample() -> None:
        samples["total"] += 1
        if all(not cluster.servers[h].is_up() for h in hosts):
            samples["down"] += 1
        if cluster.sim.now < start + duration - 0.2:
            cluster.sim.schedule(0.1, sample)

    cluster.sim.schedule(0.1, sample)
    cluster.run(duration)
    end = cluster.sim.now
    outage = no_primary_time(cluster, handle.session_id, start, end)
    # a session whose every replica was simultaneously down is gone for
    # good (all unit databases were volatile) unless the client restarts
    # it; detect that terminal state
    session_lost = not any(
        handle.session_id in db
        for server in cluster.servers.values()
        if server.is_up()
        for db in [server.unit_dbs.get("m0")]
        if db is not None
    )
    return {
        "outage_fraction": outage / (end - start),
        "all_down_fraction": samples["down"] / max(1, samples["total"]),
        "session_lost": 1.0 if session_lost else 0.0,
    }


def run(seed: int = 0, fast: bool = False) -> list[Table]:
    replication_grid = [1, 3] if fast else [1, 2, 3, 4, 5]
    duration = 15.0 if fast else 60.0
    reps = 2 if fast else 4
    table = Table(
        title="E5: service outage vs content replication degree",
        columns=[
            "replication",
            "all_down_fraction",
            "predicted_all_down",
            "sessions_lost_frac",
            "predicted_lost (Markov)",
            "no_primary_fraction",
        ],
    )
    for replication in replication_grid:
        mc = MonteCarlo(
            fn=lambda s, r=replication: _one_rep(s, r, duration),
            n_reps=reps,
            base_seed=seed + replication,
        ).run()
        table.add_row(
            replication,
            mc.aggregate("all_down_fraction").mean,
            total_outage_probability(
                FAILURE_RATE, 1.0 / MEAN_DOWNTIME, replication
            ),
            mc.aggregate("session_lost").mean,
            all_down_hitting_probability(
                replication, FAILURE_RATE, 1.0 / MEAN_DOWNTIME, duration
            ),
            mc.aggregate("outage_fraction").mean,
        )
    table.add_note(
        f"faults: lambda={FAILURE_RATE}/s/server, mttr={MEAN_DOWNTIME}s on the "
        "unit's replicas only.  all_down matches the steady-state model; "
        "sessions whose replicas were ever all down simultaneously are lost "
        "permanently (volatile databases), so no_primary_fraction includes "
        "the permanent tail — the cost of under-replication"
    )
    return [table]
