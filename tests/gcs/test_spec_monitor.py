"""The spec monitor must catch violations, not just stay quiet on good
runs — these tests feed it corrupted histories."""

from types import SimpleNamespace

import pytest

from repro.chaos.oracles import check_gcs_spec
from repro.gcs.messages import OrderRequest, RequestId
from repro.gcs.spec import SpecMonitor, SpecViolation
from repro.gcs.view import Configuration, ViewId


def req(origin, counter, payload=None):
    return OrderRequest(
        request_id=RequestId(origin, 0, counter),
        group="g",
        payload=payload if payload is not None else counter,
    )


def config(counter, *members):
    return Configuration.make(ViewId(counter, members[0]), members)


V1 = ViewId(1, "a")
V2 = ViewId(2, "a")


def test_clean_history_passes():
    monitor = SpecMonitor()
    for node in ("a", "b"):
        monitor.record_config_view(node, config(1, "a", "b"))
        monitor.record_delivery(node, V1, 0, req("a", 0))
        monitor.record_delivery(node, V1, 1, req("b", 0))
        monitor.record_config_view(node, config(2, "a", "b"))
    monitor.check_all()


def test_detects_missing_self():
    monitor = SpecMonitor()
    monitor.record_config_view("c", config(1, "a", "b"))
    with pytest.raises(SpecViolation):
        monitor.check_self_inclusion()


def test_detects_non_monotonic_views():
    monitor = SpecMonitor()
    monitor.record_config_view("a", config(5, "a"))
    monitor.record_config_view("a", config(3, "a"))
    with pytest.raises(SpecViolation):
        monitor.check_monotonic_views()


def test_detects_conflicting_seq_assignment():
    monitor = SpecMonitor()
    monitor.record_delivery("a", V1, 0, req("a", 0))
    monitor.record_delivery("b", V1, 0, req("b", 7))  # same seq, other req
    with pytest.raises(SpecViolation):
        monitor.check_total_order()


def test_detects_out_of_order_delivery():
    monitor = SpecMonitor()
    monitor.record_delivery("a", V1, 1, req("x", 1))
    monitor.record_delivery("a", V1, 0, req("x", 0))  # seq went backwards
    with pytest.raises(SpecViolation):
        monitor.check_total_order()


def test_holes_across_divergence_allowed():
    """A node may skip a seq forever when the only holders died (the
    survivors' common relative order is still consistent)."""
    monitor = SpecMonitor()
    monitor.record_delivery("a", V1, 0, req("x", 0))
    monitor.record_delivery("a", V1, 1, req("x", 1))
    monitor.record_delivery("b", V1, 0, req("x", 0))
    monitor.record_delivery("b", V1, 2, req("x", 2))  # hole at seq 1
    monitor.check_total_order()


def test_detects_virtual_synchrony_violation():
    monitor = SpecMonitor()
    for node in ("a", "b"):
        monitor.record_config_view(node, config(1, "a", "b"))
    monitor.record_delivery("a", V1, 0, req("x", 0))  # b never delivers it
    for node in ("a", "b"):
        monitor.record_config_view(node, config(2, "a", "b"))
    with pytest.raises(SpecViolation):
        monitor.check_virtual_synchrony()


def test_vs_allows_divergence_for_different_transitions():
    monitor = SpecMonitor()
    monitor.record_config_view("a", config(1, "a", "b"))
    monitor.record_config_view("b", config(1, "a", "b"))
    monitor.record_delivery("a", V1, 0, req("x", 0))
    # a moves to view 2, b moves to a *different* view 3: no constraint
    monitor.record_config_view("a", config(2, "a"))
    monitor.record_config_view("b", config(3, "b"))
    monitor.check_virtual_synchrony()


def test_detects_double_delivery():
    monitor = SpecMonitor()
    monitor.record_delivery("a", V1, 0, req("x", 0))
    monitor.record_delivery("a", V2, 0, req("x", 0))  # again, later view
    with pytest.raises(SpecViolation):
        monitor.check_at_most_once()


def test_causality_allows_gap_fill_but_not_redelivery():
    monitor = SpecMonitor()
    # out-of-order gap-fill: 1 then 0 — legal (late retransmission)
    monitor.record_delivery("a", V1, 0, req("x", 1))
    monitor.record_delivery("a", V1, 1, req("x", 0))
    monitor.check_all()
    # re-delivery of the same counter — illegal
    monitor.record_delivery("a", V1, 2, req("x", 1))
    with pytest.raises(SpecViolation):
        monitor.check_all()


def test_every_failed_property_is_reported():
    monitor = SpecMonitor()
    monitor.record_delivery("a", V1, 0, req("a", 0))
    monitor.record_delivery("b", V1, 0, req("b", 7))  # same seq, other req
    monitor.record_delivery("b", V2, 0, req("b", 7))  # delivered twice
    with pytest.raises(SpecViolation, match="total order: .*; at-most-once: "):
        monitor.check_all()
    observation = SimpleNamespace(cluster=SimpleNamespace(monitor=monitor))
    violations = check_gcs_spec(observation)
    assert [v.oracle for v in violations] == ["gcs-spec", "gcs-spec"]
    assert [v.detail["property"] for v in violations] == ["total order", "at-most-once"]


def test_delivered_payloads_in_view_order():
    monitor = SpecMonitor()
    monitor.record_delivery("a", V2, 0, req("x", 2, payload="late"))
    monitor.record_delivery("a", V1, 0, req("x", 0, payload="early"))
    monitor.record_delivery("a", V1, 1, req("x", 1, payload="mid"))
    assert monitor.delivered_payloads("a") == ["early", "mid", "late"]


def test_deliveries_are_two_aligned_columns():
    monitor = SpecMonitor()
    requests = [req("x", counter) for counter in range(3)]
    for seq, request in zip((0, 2, 5), requests):
        monitor.record_delivery("a", V1, seq, request)
    monitor.record_delivery("a", V2, 0, req("y", 0))
    history = monitor.history["a"]
    assert history.seqs == {V1: [0, 2, 5], V2: [0]}
    # the recorded requests themselves, index for index with their seqs
    assert all(a is b for a, b in zip(history.requests[V1], requests, strict=True))
    assert len(history.requests[V2]) == 1


def test_settings_flags_reach_daemon():
    from repro.gcs.settings import GcsSettings
    from tests.gcs.conftest import GcsWorld

    world = GcsWorld(2, settings=GcsSettings(detect_divergence=False))
    world.settle()
    for daemon in world.daemons.values():
        assert daemon.config_divergence_detected() is False
