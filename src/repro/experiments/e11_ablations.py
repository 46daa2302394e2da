"""E11 — ablations of the reproduction's design choices.

DESIGN.md §6 documents protocol/framework mechanisms that the paper's
design implies but does not spell out, each added because its absence
measurably lost client context updates under fault churn.  This ablation
turns each one off individually and re-runs the E1-style loss workload,
quantifying its contribution:

* ``no-divergence-detection`` — zombie views go unnoticed (daemons dropped
  from a reformation keep serving a private world);
* ``receipt-acks`` — client multicasts are acknowledged on receipt by the
  contact daemon rather than end-to-end on delivery;
* ``no-backup-preference`` — reallocation picks lightly-loaded servers
  instead of surviving former backups as new primaries;
* ``no-backups`` — the [2] configuration, for scale.
"""

from __future__ import annotations

from repro.analysis.montecarlo import MonteCarlo
from repro.core import AvailabilityPolicy
from repro.gcs.settings import GcsSettings
from repro.metrics.report import Table
from repro.experiments.common import ledger_churn, ledger_cluster, rng_for

FAILURE_RATE = 0.08
MEAN_DOWNTIME = 2.0
UPDATE_PERIOD = 0.3
N_SERVERS = 5
N_SESSIONS = 4

VARIANTS = {
    "full design": dict(),
    "no-divergence-detection": dict(detect_divergence=False),
    "receipt-acks": dict(end_to_end_client_acks=False),
    "no-backup-preference": dict(prefer_backup_promotion=False),
    "no-backups": dict(num_backups=0),
}


def _one_rep(seed: int, variant: dict, duration: float) -> dict:
    settings = GcsSettings(
        detect_divergence=variant.get("detect_divergence", True),
        end_to_end_client_acks=variant.get("end_to_end_client_acks", True),
    )
    policy = AvailabilityPolicy(
        num_backups=variant.get("num_backups", 2),
        propagation_period=0.5,
        prefer_backup_promotion=variant.get("prefer_backup_promotion", True),
    )
    cluster = ledger_cluster(
        n_servers=N_SERVERS, policy=policy, seed=seed, settings=settings
    )
    sent, lost, _ = ledger_churn(
        cluster,
        N_SESSIONS,
        rng_for(seed, "e11-faults"),
        duration,
        FAILURE_RATE,
        MEAN_DOWNTIME,
        UPDATE_PERIOD,
        spare="s4",
    )
    return {"sent": sent, "lost": lost}


def run(seed: int = 0, fast: bool = False) -> list[Table]:
    duration = 12.0 if fast else 40.0
    reps = 2 if fast else 4
    names = (
        ["full design", "no-divergence-detection", "no-backups"]
        if fast
        else list(VARIANTS)
    )
    table = Table(
        title="E11: design-choice ablations (context-update loss under churn)",
        columns=["variant", "updates_sent", "updates_lost", "loss_fraction"],
    )
    for name in names:
        variant = VARIANTS[name]
        mc = MonteCarlo(
            fn=lambda s, v=variant: _one_rep(s, v, duration),
            n_reps=reps,
            base_seed=seed,
        ).run()
        sent = sum(mc.values("sent"))
        lost = sum(mc.values("lost"))
        table.add_row(name, sent, lost, lost / max(1, sent))
    table.add_note(
        "each row disables exactly one mechanism relative to the full "
        "design (same seeds, same fault schedules); num_backups=2 except "
        "the no-backups row"
    )
    return [table]
