"""Unit tests for the mesh failure detector: the O(1) idle-check bound
and the stale-incarnation guard."""

from repro.gcs.failure_detector import FailureDetector
from repro.gcs.messages import Heartbeat
from repro.gcs.settings import GcsSettings
from tests.gcs.conftest import FakeHost


def make_detector(timeout=0.35):
    host = FakeHost(settings=GcsSettings(suspect_timeout=timeout))
    return FailureDetector(host), host


def beat(peer, incarnation=0, view_counter=0):
    return Heartbeat(peer, incarnation, view_counter)


# ---------------------------------------------------------------------------
# next-expiry bound: an idle check must not rescan the peer table
# ---------------------------------------------------------------------------


def test_idle_checks_are_o1_until_the_bound_passes():
    detector, host = make_detector(timeout=1.0)
    for i in range(50):
        detector.on_heartbeat(beat(f"p{i}"))
    # well before any peer can expire: every check returns on the bound
    for _ in range(10):
        host.clock += 0.05
        detector.check()
    assert detector.idle_checks == 10
    assert detector.full_scans == 0
    # past the bound: exactly one full scan, which expires everyone
    host.clock = 2.5
    detector.check()
    assert detector.full_scans == 1
    assert detector.alive_peers() == frozenset()
    # with nobody alive the bound is +inf again: back to O(1) idling
    host.clock = 100.0
    detector.check()
    assert detector.idle_checks == 11
    assert detector.full_scans == 1


def test_bound_never_misses_an_expiry():
    """Refreshes push real deadlines later than the recorded bound (the
    bound is allowed to be stale-low, costing a redundant scan — but an
    expired peer must be caught the first time the clock passes its
    deadline)."""
    detector, host = make_detector(timeout=1.0)
    detector.on_heartbeat(beat("a"))
    detector.on_heartbeat(beat("b"))
    host.clock = 0.9
    detector.on_heartbeat(beat("b"))  # refresh b; a expires at 1.0
    host.clock = 1.01
    detector.check()
    assert detector.alive_peers() == frozenset({"b"})
    # b's refreshed deadline is 1.9; the scan recomputed the bound to it
    host.clock = 1.5
    detector.check()
    assert "b" in detector.alive_peers()
    host.clock = 1.91
    detector.check()
    assert detector.alive_peers() == frozenset()


def test_reviving_peer_rearms_the_bound():
    detector, host = make_detector(timeout=1.0)
    detector.on_heartbeat(beat("a"))
    host.clock = 2.0
    detector.check()
    assert detector.alive_peers() == frozenset()
    # silence forever would keep the bound at +inf; a revival must re-arm
    detector.on_heartbeat(beat("a"))
    host.clock = 3.5
    detector.check()
    assert detector.alive_peers() == frozenset()


def test_observe_traffic_on_new_peer_arms_bound():
    detector, host = make_detector(timeout=1.0)
    detector.on_heartbeat(beat("a"))
    host.clock = 2.0
    detector.check()  # a expired; bound now +inf
    detector.observe_traffic("a")  # revived through piggybacked traffic
    host.clock = 3.5
    detector.check()
    assert detector.alive_peers() == frozenset()


# ---------------------------------------------------------------------------
# stale incarnations
# ---------------------------------------------------------------------------


def test_lower_incarnation_heartbeat_is_ignored():
    detector, host = make_detector(timeout=1.0)
    detector.on_heartbeat(beat("a", incarnation=3))
    host.clock = 0.99
    stale = host.changes
    detector.on_heartbeat(beat("a", incarnation=2))
    # neither the incarnation nor the liveness clock moved
    assert detector.incarnation_of("a") == 3
    assert host.changes == stale
    host.clock = 1.01
    detector.check()
    assert detector.alive_peers() == frozenset(), (
        "a stale pre-restart heartbeat must not extend aliveness"
    )


def test_lower_incarnation_does_not_resurrect_expired_peer():
    detector, host = make_detector(timeout=1.0)
    detector.on_heartbeat(beat("a", incarnation=5))
    host.clock = 2.0
    detector.check()
    assert detector.alive_peers() == frozenset()
    detector.on_heartbeat(beat("a", incarnation=4))
    assert detector.alive_peers() == frozenset()
    assert detector.incarnation_of("a") == 5


def test_higher_incarnation_still_fires_change():
    detector, host = make_detector()
    detector.on_heartbeat(beat("a", incarnation=0))
    before = host.changes
    detector.on_heartbeat(beat("a", incarnation=1))
    assert detector.incarnation_of("a") == 1
    assert host.changes == before + 1
