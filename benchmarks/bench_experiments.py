"""Benchmarks E1..E11 — one timed run of every experiment in
``repro.experiments.EXPERIMENT_MODULES``.

Regenerates each experiment's table(s); see EXPERIMENTS.md for the
recorded output and the paper-vs-measured discussion.  One experiment:
``python -m pytest "benchmarks/bench_experiments.py::test_experiment[E4]"``.
"""

import pytest

from repro.experiments import EXPERIMENT_MODULES, get_experiment


@pytest.mark.parametrize("experiment", list(EXPERIMENT_MODULES))
def test_experiment(benchmark, experiment_runner, experiment):
    tables = experiment_runner(benchmark, get_experiment(experiment))
    assert tables and all(table.rows for table in tables)
