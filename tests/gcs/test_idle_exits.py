"""The daemon tick's idle exits agree with the computations they skip.

Every upkeep step of ``GcsDaemon._tick`` returns in O(1) when its input is
idle (DESIGN §9, "What a tick costs").  Each exit is a second way to reach
an answer the full computation also gives, so each is held here to that
computation on seeded random states — a fast path that drifts from it
fails here before it moves a digest:

* the detector's early-exit divergence scan against
  ``bool(divergent_peers(...))``;
* the holdback's no-gap check against ``missing_seqs() == []``;
* the daemon's empty-pending exit against the full ``_resubmit_stale``
  scan.
"""

import random

import pytest

from repro.gcs.failure_detector import FailureDetector
from repro.gcs.messages import Heartbeat, OrderRequest, RequestId, Sequenced
from repro.gcs.ordering import HoldbackBuffer
from repro.gcs.settings import GcsSettings
from repro.gcs.view import ViewId
from tests.gcs.conftest import FakeHost

SEEDS = range(12)


def _view_pool() -> list:
    """View ids, with equal ids as distinct objects (a decoded copy, as on
    the live runtime) beside the shared ones the simulator passes around."""
    return [None, ViewId(1, "a"), ViewId(1, "a"), ViewId(2, "a"), ViewId(2, "b")]


@pytest.mark.parametrize("seed", SEEDS)
def test_early_exit_divergence_scan_matches_divergent_peers(seed):
    rng = random.Random(seed)
    host = FakeHost(
        world=["me", "p1", "p2", "p3", "p4", "p5"],
        settings=GcsSettings(suspect_timeout=0.5),
    )
    fd = FailureDetector(host)
    views = _view_pool()
    peers = host.world[1:]
    incarnations = dict.fromkeys(peers, 0)
    compared = divergent = 0
    for _ in range(400):
        host.clock += rng.choice([0.0, 0.01, 0.05, 0.2])
        action = rng.random()
        if action < 0.6:
            peer = rng.choice(peers)
            if rng.random() < 0.05:
                incarnations[peer] += 1
            fd.on_heartbeat(
                Heartbeat(peer, incarnations[peer], 0, rng.choice(views), 0)
            )
        elif action < 0.7:
            fd.observe_traffic(rng.choice(peers))
        elif action < 0.75:
            fd.forget(rng.choice(peers))
        else:
            fd.check()
        mine = rng.choice(views[1:])
        heard_after = host.clock - rng.choice([0.0, 0.05, 0.3, 1.0])
        expected = bool(fd.divergent_peers(mine, heard_after=heard_after))
        assert fd.any_divergent(mine, heard_after) == expected
        compared += 1
        divergent += expected
    # both answers occur, so the scan's exit and its miss are both exercised
    assert 0 < divergent < compared


@pytest.mark.parametrize("seed", SEEDS)
def test_holdback_no_gap_check_matches_missing_seqs(seed):
    rng = random.Random(seed)
    view = ViewId(1, "s0")
    buffer = HoldbackBuffer()
    request = OrderRequest(RequestId("s0", 0, 0), "g", None)
    outcomes = set()
    for _ in range(600):
        action = rng.random()
        if action < 0.55:
            top = buffer.delivered_upto + rng.randrange(8)
            buffer.insert(Sequenced(view, top, request))
        elif action < 0.8:
            buffer.take_ready()
        else:
            buffer.prune(
                keep=rng.choice([1, 4, 64]),
                stable=rng.randrange(buffer.delivered_upto + 1),
            )
        gapless = buffer.missing_seqs() == []
        assert buffer.gapless() == gapless
        outcomes.add(gapless)
    assert outcomes == {True, False}


@pytest.mark.parametrize("seed", SEEDS)
def test_empty_pending_exit_matches_full_resubmit_scan(world3, seed):
    rng = random.Random(seed)
    daemon = world3.daemons["s1"]
    resent = []
    daemon.send = lambda dest, payload, kind="msg", size=1: resent.append(payload)
    counter = 1000
    seen = set()
    for _ in range(200):
        action = rng.random()
        if action < 0.3:
            request = OrderRequest(RequestId("s1", 0, counter), "g", counter)
            counter += 1
            daemon.pending.add(request)
            daemon._pending_since[request.request_id] = rng.uniform(-2.0, world3.sim.now)
        elif action < 0.75 and daemon.pending:
            outstanding = daemon.pending.outstanding()
            daemon._settle_request(rng.choice(outstanding).request_id)
        daemon.membership.forming = rng.random() < 0.2
        # the computation the idle exit skips: every pending request whose
        # last (re)submission is at least two suspect timeouts old
        threshold = world3.sim.now - 2 * daemon.settings.suspect_timeout
        expected = (
            []
            if daemon.membership.forming
            else [
                request
                for request in daemon.pending.outstanding()
                if daemon._pending_since.get(request.request_id, 0.0) <= threshold
            ]
        )
        resent.clear()
        daemon._resubmit_stale()
        assert resent == expected
        seen.add((len(daemon.pending) > 0, len(expected) > 0))
    daemon.membership.forming = False
    # idle (the exit), pending but none stale, and a resubmission all occur
    assert seen == {(False, False), (True, False), (True, True)}
