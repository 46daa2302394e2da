"""Run the whole experiment suite and print every table.

``python -m repro experiments`` is its command line::

    python -m repro experiments               # full suite
    python -m repro experiments --fast        # CI-sized sweeps
    python -m repro experiments E1 E4         # a subset
    python -m repro experiments --workers 4   # shard across cores

Experiments are independent (each builds its own simulated worlds from
its own seeds), so with ``--workers N`` they are sharded across worker
processes.  Output is merged **in experiment order**, not completion
order, so a parallel run prints exactly what a serial run prints.
"""

from __future__ import annotations

import time

from repro.experiments import EXPERIMENT_MODULES, get_experiment
from repro.parallel import map_sharded


def _run_one(task: tuple) -> tuple[str, list, float]:
    """Worker: run one experiment module; returns (name, tables, secs)."""
    name, seed, fast = task
    module = get_experiment(name)
    # Host-side progress accounting, never simulation state; perf_counter
    # is monotonic (time.time() can jump under NTP slew).
    started = time.perf_counter()  # repro-lint: allow(wall-clock)
    tables = module.run(seed=seed, fast=fast)
    return name, tables, time.perf_counter() - started  # repro-lint: allow(wall-clock)


def run_all(
    names: list[str] | None = None,
    seed: int = 0,
    fast: bool = False,
    workers: int = 1,
) -> dict[str, list]:
    """Run the selected experiments; returns ``{id: [Table, ...]}``.

    ``workers > 1`` runs experiments in parallel processes; tables are
    printed in experiment order regardless of completion order, followed
    by the sweep's total wall time (what the sharding bought).
    """
    started = time.perf_counter()  # repro-lint: allow(wall-clock)
    names = names or list(EXPERIMENT_MODULES)
    tasks = [(name, seed, fast) for name in names]
    results: dict[str, list] = {}
    if workers <= 1:
        outcomes = (_run_one(task) for task in tasks)  # lazy: stream output
    else:
        outcomes = map_sharded(_run_one, tasks, workers=workers)
    for name, tables, elapsed in outcomes:
        results[name] = tables
        for table in tables:
            table.show()
        print(f"[{name}] done in {elapsed:.1f}s wall time")
    if workers > 1:
        total = time.perf_counter() - started  # repro-lint: allow(wall-clock)
        print(
            f"{len(results)} experiment(s), {workers} worker(s), "
            f"{total:.1f}s wall total"
        )
    return results
