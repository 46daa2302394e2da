"""Smoke tests: every experiment runs end-to-end in fast mode and its
tables carry the qualitative shape the paper claims."""

import pytest

from repro.experiments import EXPERIMENT_MODULES, get_experiment


# The Section-4 loss counts of the one loss run (``common.ledger_churn``)
# at seed=1, fast=True: each row's leading columns.  E1 (backups, period_s,
# sent, lost); E7 (configuration, updates_lost, updates_sent); E11
# (variant, updates_sent, updates_lost).
LOSS_PINS = {
    "E1": [
        (0, 0.25, 384, 15),
        (0, 1.0, 384, 24),
        (1, 0.25, 384, 0),
        (1, 1.0, 384, 2),
        (2, 0.25, 384, 4),
        (2, 1.0, 384, 3),
    ],
    "E7": [
        ("single-server", 32, 69),
        ("no-backup [2]", 0, 74),
        ("framework b=1", 0, 74),
    ],
    "E11": [
        ("full design", 320, 1),
        ("no-divergence-detection", 320, 1),
        ("no-backups", 320, 16),
    ],
}


@pytest.mark.parametrize(
    "name, loss_pins",
    [pytest.param(name, LOSS_PINS.get(name), id=name) for name in EXPERIMENT_MODULES],
)
def test_experiment_runs_fast(name, loss_pins):
    module = get_experiment(name)
    tables = module.run(seed=1, fast=True)
    assert tables
    for table in tables:
        assert table.rows
        rendered = table.render()
        assert table.title in rendered
    if loss_pins is not None:
        width = len(loss_pins[0])
        assert [tuple(row[:width]) for row in tables[0].rows] == loss_pins


def test_e2_load_shape():
    """Propagation load halves when the period doubles; backup update load
    scales with the number of backups; responses stay flat."""
    tables = get_experiment("E2").run(seed=2, fast=True)
    rows = tables[0].rows
    by_key = {(r[0], r[1]): r for r in rows}
    # period effect at fixed backups=0: T=0.25 vs T=1.0
    assert by_key[(0, 0.25)][2] > 3 * by_key[(0, 1.0)][2]
    # the wire cost rises as the period shrinks, linearly in the count: a
    # VoD delta costs about what a full snapshot does
    assert by_key[(0, 0.25)][3] > by_key[(0, 1.0)][3]
    per_propagation = [r[3] / r[2] for r in rows]
    assert max(per_propagation) <= 1.05 * min(per_propagation)
    # backups effect at fixed period (backup_updates is column 4 now)
    assert by_key[(2, 0.25)][4] > by_key[(0, 0.25)][4]
    # responses roughly equal everywhere
    responses = [r[6] for r in rows]
    assert max(responses) - min(responses) < 2.0


def test_e3_scenarios_shape():
    """Only the WAN non-transitive scenario sustains client-visible dual
    service; only total content loss produces a long outage."""
    tables = get_experiment("E3").run(seed=3, fast=True)
    rows = {r[0]: r for r in tables[0].rows}
    assert rows["stable"][3] == 0  # dual_sender_s
    assert rows["stable"][4] == 0  # no_primary_s
    assert rows["wan-non-transitive"][3] > 2.0
    assert rows["total-content-loss"][4] > 5.0


def test_e4_duplicates_grow_with_period():
    tables = get_experiment("E4").run(seed=4, fast=True)
    rows = tables[0].rows
    short, long = rows[0], rows[-1]
    assert short[0] < long[0]
    assert short[1] <= long[1]


def test_e8_fairness_restored():
    tables = get_experiment("E8").run(seed=5, fast=True)
    rows = tables[0].rows
    initial, crash, rejoin = rows
    assert initial[2] > 0.95
    assert rejoin[2] > 0.95


def test_e9_policy_shape():
    """resend-all loses nothing; skip duplicates nothing; mpeg never loses
    an I frame and never duplicates P/B frames."""
    tables = get_experiment("E9").run(seed=6, fast=True)
    rows = {r[0]: r for r in tables[0].rows}
    assert rows["resend-all"][3] == 0 and rows["resend-all"][4] == 0
    assert rows["skip-uncertain"][1] == 0 and rows["skip-uncertain"][2] == 0
    assert rows["mpeg (I only)"][3] == 0  # never lose an I frame
    assert rows["mpeg (I only)"][2] == 0  # never duplicate P/B


def test_e10_rsm_checks_pass():
    tables = get_experiment("E10").run(seed=7, fast=True)
    rsm_table = tables[0]
    for row in rsm_table.rows[:3]:
        assert row[1] is True, row


def test_runner_subset(capsys):
    from repro.experiments.runner import run_all

    results = run_all(["E3"], seed=8, fast=True)
    assert "E3" in results
    captured = capsys.readouterr()
    assert "E3" in captured.out
