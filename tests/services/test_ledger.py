"""Tests for the ledger service and its reading of what survives."""

from repro.core import AvailabilityPolicy
from repro.experiments.common import ledger_cluster
from repro.services.ledger import LedgerApplication, promised_and_lost, surviving_counters


class TestLedgerApplication:
    def test_updates_accumulate(self):
        app = LedgerApplication()
        state = app.initial_state("u", None)
        state = app.apply_update(state, {"counter": 3})
        state = app.apply_update(state, {"counter": 1})
        assert state.counters == {1, 3}

    def test_malformed_update_ignored(self):
        app = LedgerApplication()
        state = app.initial_state("u", None)
        assert app.apply_update(state, {"op": "noise"}).counters == frozenset()

    def test_no_streaming(self):
        app = LedgerApplication()
        state = app.initial_state("u", None)
        assert app.response_interval(state) is None


class TestSurvivingCounters:
    def test_counts_primary_state(self):
        cluster = ledger_cluster(
            n_servers=3,
            policy=AvailabilityPolicy(num_backups=1, propagation_period=0.5),
            seed=9,
        )
        client = cluster.add_client("c0")
        handle = client.start_session("ledger-0")
        cluster.run(2.0)
        for counter in (1, 2, 3):
            client.send_update(handle, {"counter": counter})
        cluster.run(1.0)
        assert surviving_counters(cluster, handle) == {1, 2, 3}
        assert promised_and_lost(cluster, handle) == (3, 0)

    def test_survives_primary_crash_through_backup(self):
        cluster = ledger_cluster(
            n_servers=3,
            policy=AvailabilityPolicy(num_backups=1, propagation_period=5.0),
            seed=9,
        )
        client = cluster.add_client("c0")
        handle = client.start_session("ledger-0")
        cluster.run(2.0)
        client.send_update(handle, {"counter": 1})
        cluster.run(0.3)
        cluster.crash_server(cluster.primaries_of(handle.session_id)[0])
        cluster.run(4.0)
        assert 1 in surviving_counters(cluster, handle)


def test_an_update_no_context_holds_is_lost():
    """Without backups, an update applied after the last propagation dies
    with its primary: promised, and counted lost."""
    cluster = ledger_cluster(
        n_servers=2,
        policy=AvailabilityPolicy(num_backups=0, propagation_period=5.0),
        seed=9,
    )
    client = cluster.add_client("c0")
    handle = client.start_session("ledger-0")
    cluster.run(2.0)
    client.send_update(handle, {"counter": 1})
    cluster.run(0.3)
    cluster.crash_server(cluster.primaries_of(handle.session_id)[0])
    cluster.run(4.0)
    assert surviving_counters(cluster, handle) == frozenset()
    assert promised_and_lost(cluster, handle) == (1, 1)
