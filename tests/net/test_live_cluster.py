"""End-to-end live clusters: the unchanged protocol stack over sockets.

These run real wall-clock seconds (the live runtime paces the simulator
one second per second), so the workloads are kept short; the CI
live-smoke job runs the full-size scripted run.
"""

import pytest

from repro.net.cluster import LiveClusterOptions, run_live_cluster


@pytest.fixture(scope="module")
def failover_report():
    """One shared kill-primary run (several wall seconds of streaming)."""
    return run_live_cluster(
        LiveClusterOptions(
            nodes=3,
            transport="udp",
            requests=80,
            kill_primary=True,
            update_interval=0.02,
            settle=1.5,
        )
    )


def test_failover_run_is_clean(failover_report):
    assert failover_report["clean"], failover_report["reasons"]
    session = failover_report["session"]
    assert session["started"]
    assert session["responses_received"] > 0
    assert session["updates_sent"] == 80


def test_failover_loses_no_acknowledged_updates(failover_report):
    session = failover_report["session"]
    assert session["lost_acked_updates"] == 0
    assert session["unacked_sends"] == 0
    assert failover_report["multi_primary_time"] == 0.0


def test_failover_kills_and_takes_over(failover_report):
    assert failover_report["killed"] is not None
    assert failover_report["takeover_seconds"] is not None
    assert failover_report["takeover_seconds"] < 3.0


def test_live_traffic_crosses_real_sockets(failover_report):
    transport = failover_report["transport"]
    assert sum(t["frames_sent"] for t in transport.values()) > 100
    assert sum(t["bytes_received"] for t in transport.values()) > 1000
    assert failover_report["frames_rejected"] == 0

