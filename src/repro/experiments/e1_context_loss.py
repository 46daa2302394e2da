"""E1 — probability of losing client context updates.

Paper claim (Section 4): "The probability of losing context updates sent
by the client is the chance of every session group member failing or
separating from the client during the period between propagations.  Thus
this probability decreases as either the propagation frequency or the size
of the session group rise."

Method: sessions run the ledger application (context = set of update
counters), clients send updates at a fixed rate, servers crash and recover
as independent Poisson processes (one spare server never crashes, keeping
the unit database alive so losses are attributable to session-group
failure windows rather than total service loss — that scenario is E5).
After the fault window ends and everything recovers, the set difference
between sent and surviving counters is the measured loss.  The analytic
model ``(1 - exp(-lambda*T))**(1+b)`` is printed alongside.
"""

from __future__ import annotations

from repro.analysis.availability import context_loss_probability
from repro.analysis.montecarlo import MonteCarlo
from repro.core import AvailabilityPolicy
from repro.metrics.report import Table
from repro.experiments.common import ledger_churn, ledger_cluster, rng_for

FAILURE_RATE = 0.04  # crashes / second / server (accelerated, see DESIGN.md)
MEAN_DOWNTIME = 3.0
UPDATE_PERIOD = 0.25
N_SERVERS = 5
N_SESSIONS = 4
SPARE = "s4"


def _one_rep(seed: int, num_backups: int, period: float, duration: float):
    cluster = ledger_cluster(
        n_servers=N_SERVERS,
        policy=AvailabilityPolicy(
            num_backups=num_backups, propagation_period=period
        ),
        seed=seed,
    )
    sent, lost, _ = ledger_churn(
        cluster,
        N_SESSIONS,
        rng_for(seed, "e1-faults"),
        duration,
        FAILURE_RATE,
        MEAN_DOWNTIME,
        UPDATE_PERIOD,
        spare=SPARE,
    )
    # the cost half of the tradeoff: codec bytes of the propagations each
    # server processed per second
    prop_bytes = sum(
        server.counters["propagation_bytes_processed"]
        for server in cluster.servers.values()
    ) / (len(cluster.servers) * max(cluster.sim.now, 1.0))
    return {
        "sent": sent,
        "lost": lost,
        "loss_fraction": lost / max(1, sent),
        "prop_bytes_s": prop_bytes,
    }


def run(seed: int = 0, fast: bool = False) -> list[Table]:
    backups_grid = [0, 1, 2] if fast else [0, 1, 2, 3]
    period_grid = [0.25, 1.0] if fast else [0.25, 0.5, 1.0, 2.0]
    duration = 12.0 if fast else 80.0
    reps = 2 if fast else 3

    table = Table(
        title="E1: context-update loss vs backups and propagation period",
        columns=[
            "backups",
            "period_s",
            "sent",
            "lost",
            "measured_loss",
            "predicted_loss",
            "prop_bytes_s",
        ],
    )
    for num_backups in backups_grid:
        for period in period_grid:
            mc = MonteCarlo(
                fn=lambda s, b=num_backups, p=period: _one_rep(s, b, p, duration),
                n_reps=reps,
                base_seed=seed + num_backups * 100 + int(period * 10),
            ).run()
            sent = sum(mc.values("sent"))
            lost = sum(mc.values("lost"))
            predicted = context_loss_probability(
                FAILURE_RATE, period, num_backups + 1
            )
            table.add_row(
                num_backups,
                period,
                sent,
                lost,
                lost / max(1, sent),
                predicted,
                sum(mc.values("prop_bytes_s")) / reps,
            )
    table.add_note(
        f"accelerated faults: lambda={FAILURE_RATE}/s/server, "
        f"mttr={MEAN_DOWNTIME}s, updates every {UPDATE_PERIOD}s"
    )
    table.add_note(
        "claim: loss falls as backups rise (down a column-group) and as the "
        "period shrinks (left within a group); prop_bytes_s is what that "
        "frequency costs: codec bytes of the propagations each server "
        "processed per second, tracking the propagation count"
    )
    return [table]
