"""The experiment suite: one module per quantified paper claim.

Every experiment exposes ``run(seed=0, fast=False) -> list[Table]``;
``fast=True`` shrinks sweeps and durations for CI.  ``python -m repro
experiments`` (``runner.run_all``) executes everything and prints the full
report (the material EXPERIMENTS.md records).  Benchmarks in ``benchmarks/`` wrap each experiment for
``pytest-benchmark``.

Experiment modules are imported lazily (``get_experiments``) so that
importing one experiment never drags in the whole suite.
"""

import importlib

EXPERIMENT_MODULES = {
    "E1": "repro.experiments.e1_context_loss",
    "E2": "repro.experiments.e2_load_tradeoff",
    "E3": "repro.experiments.e3_primary_uniqueness",
    "E4": "repro.experiments.e4_failover_duplicates",
    "E5": "repro.experiments.e5_replication_degree",
    "E6": "repro.experiments.e6_takeover_latency",
    "E7": "repro.experiments.e7_baseline_comparison",
    "E8": "repro.experiments.e8_load_balance",
    "E9": "repro.experiments.e9_uncertainty_policy",
    "E10": "repro.experiments.e10_extensions",
    "E11": "repro.experiments.e11_ablations",
}


def get_experiment(name: str):
    """Import and return one experiment module by id (e.g. "E1")."""
    return importlib.import_module(EXPERIMENT_MODULES[name])


def get_experiments() -> dict:
    """Import and return all experiment modules keyed by id."""
    return {name: get_experiment(name) for name in EXPERIMENT_MODULES}


__all__ = ["EXPERIMENT_MODULES", "get_experiment", "get_experiments"]
