"""Property tests for incarnation handling in both failure detectors
(alongside ``test_dedup_properties.py``): recorded incarnations are
monotone under any heartbeat order, and SWIM self-refutation bumps the
epoch exactly once per superseding observation."""

from hypothesis import given
from hypothesis import strategies as st

from repro.gcs.failure_detector import FailureDetector
from repro.gcs.messages import Heartbeat, SwimPing, SwimUpdate
from repro.gcs.settings import GcsSettings
from repro.gcs.swim import SWIM_DEAD, SWIM_SUSPECT, SwimDetector
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


# ---------------------------------------------------------------------------
# SWIM detector: exactly-once refutation
# ---------------------------------------------------------------------------


def make_swim():
    host = FakeHost(
        "n0", ["n0", "n1", "n2"], GcsSettings(membership_mode="gossip")
    )
    return SwimDetector(host), host.sent


@given(
    st.lists(
        st.tuples(
            st.sampled_from([SWIM_SUSPECT, SWIM_DEAD]),
            st.integers(min_value=0, max_value=8),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_swim_refutation_bumps_epoch_exactly_once(observations):
    """Feed the detector ANY sequence of suspect/dead gossip about
    itself.  The reference semantics: an observation at epoch ``e`` is
    superseding iff ``e >= my_epoch``; each superseding observation bumps
    ``my_epoch`` to ``e + 1`` exactly once, and an already-refuted epoch
    never bumps again (so replayed gossip cannot make a node inflate its
    epoch unboundedly)."""
    detector, _sent = make_swim()
    model_epoch = 0
    model_refutations = 0
    for seq, (status, epoch) in enumerate(observations):
        update = SwimUpdate("n0", status, 0, epoch)
        detector.on_message(
            SwimPing("n1", 0, 0, None, seq, None, (update,)), "n1"
        )
        if epoch >= model_epoch:
            model_epoch = epoch + 1
            model_refutations += 1
        assert detector._my_epoch == model_epoch
        assert detector.refutations_sent == model_refutations


@given(st.integers(min_value=0, max_value=8))
def test_swim_duplicate_suspicion_refuted_once(epoch):
    """The SAME suspicion delivered twice (gossip redundancy guarantees
    duplicates) must produce exactly one epoch bump."""
    detector, _sent = make_swim()
    update = SwimUpdate("n0", SWIM_SUSPECT, 0, epoch)
    detector.on_message(SwimPing("n1", 0, 0, None, 0, None, (update,)), "n1")
    detector.on_message(SwimPing("n1", 0, 0, None, 1, None, (update,)), "n1")
    assert detector.refutations_sent == 1
    assert detector._my_epoch == epoch + 1


@given(
    st.integers(min_value=1, max_value=5),
    st.lists(
        st.tuples(
            st.sampled_from([0, SWIM_SUSPECT, SWIM_DEAD]),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=9),
        ),
        max_size=30,
    ),
)
def test_swim_peer_incarnation_monotone_under_gossip(direct_inc, gossip):
    """However stale gossip interleaves, a peer's recorded incarnation
    never decreases, and gossip about an older incarnation can never
    resurrect a peer the detector heard directly at a newer one."""
    detector, _sent = make_swim()
    detector.on_message(SwimPing("n1", direct_inc, 0, None, 0, None, ()), "n1")
    for seq, (status, incarnation, epoch) in enumerate(gossip):
        update = SwimUpdate("n1", status, incarnation, epoch)
        detector.on_message(
            SwimPing("n2", 0, 0, None, seq + 1, None, (update,)), "n2"
        )
        recorded = detector.incarnation_of("n1")
        assert recorded is not None and recorded >= direct_inc
