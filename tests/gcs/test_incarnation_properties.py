"""Property tests for the failure detector's incarnation handling
(alongside ``test_dedup_properties.py``): recorded incarnations are
monotone under any heartbeat order."""

from hypothesis import given
from hypothesis import strategies as st

from repro.gcs.failure_detector import FailureDetector
from repro.gcs.messages import Heartbeat
from repro.gcs.settings import GcsSettings
from tests.gcs.conftest import FakeHost


# ---------------------------------------------------------------------------
# mesh detector: incarnation monotonicity
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=40))
def test_mesh_recorded_incarnation_is_running_max(incarnations):
    """For ANY interleaving of heartbeat incarnations (restarts racing
    stale in-flight traffic), the detector tracks exactly the running
    maximum — lower values never roll it back or count as liveness."""
    host = FakeHost(settings=GcsSettings(suspect_timeout=1.0))
    detector = FailureDetector(host)
    running_max = None
    for incarnation in incarnations:
        host.clock += 0.01
        detector.on_heartbeat(Heartbeat("peer", incarnation, 0))
        running_max = (
            incarnation
            if running_max is None
            else max(running_max, incarnation)
        )
        assert detector.incarnation_of("peer") == running_max


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=4),
)
def test_mesh_stale_heartbeat_never_extends_aliveness(new_inc, age):
    """After hearing incarnation ``new_inc``, a heartbeat from any older
    incarnation must not refresh the liveness clock."""
    old_inc = new_inc - 1 - age if new_inc - 1 - age >= 0 else 0
    if old_inc >= new_inc:
        return
    host = FakeHost(settings=GcsSettings(suspect_timeout=1.0))
    detector = FailureDetector(host)
    detector.on_heartbeat(Heartbeat("peer", new_inc, 0))
    host.clock = 0.99
    detector.on_heartbeat(Heartbeat("peer", old_inc, 0))
    host.clock = 1.01
    detector.check()
    assert detector.alive_peers() == frozenset()
