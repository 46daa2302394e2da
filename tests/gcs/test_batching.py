"""Sequencer batching and heartbeat piggybacking (GCS hot-path tuning).

Batching must be transparent to every virtual-synchrony property: the
property suite runs with it on (the default) and off; these tests cover
the batching-specific edges — the policy itself (a message that finds the
sequencer quiet leaves at once, ``batch_window`` is the spacing between
batches), the wire-level win, a batch split across a view change, NACKs
answered with batches, duplicate batch delivery, and heartbeat
suppression on busy links.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gcs.daemon import _TAIL_REPEATS
from repro.gcs.messages import NackSeqs, ResyncRequired, SequencedBatch
from repro.gcs.settings import GcsSettings
from tests.gcs.conftest import GcsWorld

LATENCY = 0.002  # GcsWorld's fixed link latency


def _join_all(world, group="g"):
    for node in world.daemon_ids:
        world.daemons[node].join(group)
    world.run(1.0)


class TestBatchingWire:
    def test_burst_is_batched_into_fewer_messages(self):
        """A burst submitted within one window leaves the sequencer as a
        handful of SequencedBatch messages, not one unicast per request
        per member."""
        world = GcsWorld(4, settings=GcsSettings(batch_window=0.005, batch_max=64))
        world.settle()
        _join_all(world)
        world.network.reset_stats()
        for i in range(30):
            world.daemons["s0"].mcast("g", i)
        world.run(2.0)
        for node in world.daemon_ids:
            assert world.apps[node].payloads("g") == list(range(30))
        batches = world.network.sent_count("s0", "gcs.sequenced_batch")
        singles = world.network.sent_count("s0", "gcs.sequenced")
        assert singles == 0
        # 30 messages to 3 peers unbatched would be 90 sends.  Batched: the
        # first finds the sequencer quiet and leaves alone, the other 29
        # share the batch at the window's end — 2 batches x 3 peers — and
        # the quiet that follows gets the tail repeats, one per peer each.
        # (Restated for leading-edge batching; the bound was 9 when the
        # first message waited too and nothing repaired a lost tail.)
        assert batches == 2 * 3 + _TAIL_REPEATS * 3

    def test_zero_window_sends_a_batch_of_one_per_message(self):
        world = GcsWorld(3, settings=GcsSettings(batch_window=0.0))
        world.settle()
        _join_all(world)
        world.network.reset_stats()
        for i in range(10):
            world.daemons["s1"].mcast("g", i)
        world.run(2.0)
        for node in world.daemon_ids:
            assert world.apps[node].payloads("g") == list(range(10))
        # no spacing, no coalescing: each of the 10 messages leaves in its
        # own event as a batch of one, then the tail repeats (to 2 peers
        # each) — as many frames as when a zero window selected a wire form
        # of its own, one bare Sequenced per message
        assert world.network.sent_count("s0", "gcs.sequenced_batch") == (
            10 * 2 + _TAIL_REPEATS * 2
        )

    def test_batch_max_flushes_early(self):
        """batch_max flushes a full buffer before the window's end."""
        world = GcsWorld(3, settings=GcsSettings(batch_window=0.5, batch_max=4))
        world.settle()
        _join_all(world)
        world.run(2.0)  # let the (slow-window) join events fully settle
        for i in range(8):
            world.daemons["s0"].mcast("g", i)
        # Run far less than one window.  Of the 8, the first found the
        # sequencer quiet and left at once; the next 4 filled batch_max and
        # left at once; the last 3 wait for the window.  (Restated: when
        # the first message waited too, batch_max sent 4 + 4.)
        world.run(0.2)
        assert world.apps["s0"].payloads("g") == list(range(8))  # own copy
        for node in ("s1", "s2"):
            assert world.apps[node].payloads("g") == list(range(5))
        world.run(0.5)
        for node in world.daemon_ids:
            assert world.apps[node].payloads("g") == list(range(8))


def record_flushes(world, sequencer="s0", peer="s1"):
    """Every dissemination of the sequencer, as ``(time, payloads)`` — read
    off what it sends one peer (every peer gets the same object)."""
    daemon = world.daemons[sequencer]
    flushes = []

    def send(receiver, payload, kind="msg", size=1, send=daemon.send):
        if receiver == peer and kind == "gcs.sequenced_batch":
            flushes.append(
                (world.sim.now, [m.request.payload for m in payload.messages])
            )
        send(receiver, payload, kind=kind, size=size)

    daemon.send = send
    return flushes


def arrive_at_sequencer(world, times, origin="s1"):
    """Have ``origin`` multicast so that request *i* reaches the sequencer
    at ``times[i]`` (one link latency after it is submitted)."""
    for index, when in enumerate(times):
        world.sim.schedule_at(
            when - LATENCY,
            lambda index=index: world.daemons[origin].mcast("g", index),
        )


def quiet_world(settings):
    world = GcsWorld(3, settings=settings)
    world.settle()
    _join_all(world)
    world.run(2.0)  # joins ordered, their tail repeats sent, window long over
    return world


class TestLeadingEdgeAndSpacing:
    """``batch_window`` is the least distance between two batches, not a
    wait on every first message."""

    def test_lone_request_leaves_in_the_event_that_sequenced_it(self):
        world = quiet_world(GcsSettings(batch_window=0.05))
        flushes = record_flushes(world)
        sequencer = world.daemons["s0"]
        arrival = world.sim.now + 0.01
        arrive_at_sequencer(world, [arrival])
        while not flushes:
            assert world.sim.step()
            # no window was opened for it: nothing buffered, no timer armed
            assert sequencer._batch == [] and sequencer._batch_timer is None
        assert flushes == [(arrival, [0])]
        assert sequencer.holdback.get(sequencer._next_seq - 1).request.payload == 0
        world.run(0.01)
        for node in world.daemon_ids:
            assert world.apps[node].payloads("g") == [0]

    def test_arrivals_inside_the_window_leave_together_at_its_end(self):
        window = 0.05
        world = quiet_world(GcsSettings(batch_window=window))
        flushes = record_flushes(world)
        start = world.sim.now + 0.01
        arrive_at_sequencer(
            world, [start, start + 0.01, start + 0.02, start + 0.049, start + 0.17]
        )
        world.run(0.5)
        assert flushes[:3] == [
            (start, [0]),
            (start + window, [1, 2, 3]),  # exactly last flush + window
            (start + 0.17, [4]),  # the window after that flush was over
        ]
        # what follows is the tail repeated into the quiet, nothing else
        assert [payloads for _when, payloads in flushes[3:]] == [[4]] * _TAIL_REPEATS

    def test_flushes_are_a_window_apart_unless_batch_max_forced_one(self):
        window, batch_max = 0.004, 4
        world = quiet_world(GcsSettings(batch_window=window, batch_max=batch_max))
        flushes = record_flushes(world)
        rng = np.random.default_rng(11)
        start = world.sim.now + 0.01
        arrivals = start + np.cumsum(rng.exponential(window / 6, size=600))
        arrive_at_sequencer(world, arrivals.tolist())
        world.sim.run_until(float(arrivals[-1]) + window)  # before any repeat
        assert sum(len(payloads) for _when, payloads in flushes) == 600
        forced = 0
        for (before, _), (when, payloads) in zip(flushes, flushes[1:]):
            if len(payloads) == batch_max:
                forced += 1
            else:
                assert when >= before + window, (before, when, payloads)
        assert forced > 0  # the test did see both edges

    @pytest.mark.parametrize(
        "rate_per_window, seed", [(1, 21), (1, 22), (6, 23), (6, 24)]
    )
    def test_poisson_arrivals_batch_as_predicted(self, rate_per_window, seed):
        """Did we verify the traffic?  Every flush opens one window; with
        probability e^-x (x = arrivals per window) nothing arrives in it and
        the next flush is a lone message that waited for nothing, otherwise
        it carries the window's arrivals — so the mean batch is e^-x + x.
        At x = 1 that is 1.37 (27 % of requests wait zero, 74 % of batches
        are lone); at x = 6 it is x, one batch per window: the spacing caps
        the batch *rate*, the policy has converged to the fixed window it
        replaced."""
        window = 0.002
        world = quiet_world(GcsSettings(batch_window=window))
        flushes = record_flushes(world)
        rng = np.random.default_rng(seed)
        start = world.sim.now + 0.01
        count = 2000 * rate_per_window
        arrivals = start + np.cumsum(
            rng.exponential(window / rate_per_window, size=count)
        )
        arrive_at_sequencer(world, arrivals.tolist())
        end = float(arrivals[-1]) + window
        world.sim.run_until(end)
        assert sum(len(payloads) for _when, payloads in flushes) == count
        mean_batch = count / len(flushes)
        if rate_per_window == 1:
            assert 1.3 <= mean_batch <= 1.5
            alone = sum(1 for _when, payloads in flushes if len(payloads) == 1)
            assert 0.68 <= alone / len(flushes) <= 0.79
        else:
            assert len(flushes) <= (end - start) / window + 1
            assert mean_batch >= 0.9 * rate_per_window
        world.run(1.0)
        for node in world.daemon_ids:
            assert world.apps[node].payloads("g") == list(range(count))
        world.check_spec()

    @pytest.mark.parametrize("cause", ["install", "resync", "recover"])
    def test_buffer_and_spacing_do_not_outlive_the_configuration(self, cause):
        window = 0.5
        world = quiet_world(GcsSettings(batch_window=window))
        sequencer = world.daemons["s0"]
        start = world.sim.now + 0.01
        arrive_at_sequencer(world, [start, start + 0.01])
        world.sim.run_until(start + 0.02)
        # one message left at once, the other is buffered behind the timer
        assert len(sequencer._batch) == 1
        assert sequencer._batch_timer is not None
        assert sequencer._next_flush_at == start + window
        timer = sequencer._batch_timer
        if cause == "install":
            world.daemons["s2"].crash()
            world.run(1.0)
            assert set(sequencer.config.members) == {"s0", "s1"}
        elif cause == "resync":
            sequencer._on_resync_required(
                ResyncRequired(config_view_id=sequencer.config.view_id)
            )
        else:
            sequencer.crash()
            sequencer.recover()
        assert sequencer._batch == [] and sequencer._batch_timer is None
        assert timer.cancelled
        if cause != "install":  # (the new view's first traffic moved it on)
            assert sequencer._next_flush_at == 0.0
            assert sequencer._quiet_ticks > _TAIL_REPEATS
        world.settle()
        world.assert_single_view(
            {"s0", "s1"} if cause == "install" else {"s0", "s1", "s2"}
        )
        # the old configuration's window does not delay the new one's traffic
        flushes = record_flushes(world)
        world.run(window)
        arrival = world.sim.now + 0.01
        arrive_at_sequencer(world, [arrival])
        world.run(0.02)
        assert [when for when, _payloads in flushes] == [arrival]
        if cause != "recover":
            # (a sequencer that crashed on a buffered message delivered it
            # to itself and, its memory gone, delivers the origin's retry
            # again after the merge — before this policy as after it)
            world.check_spec()


class TestBatchViewChangeAndDuplicates:
    def test_batch_split_across_view_change(self):
        """Messages buffered when a member dies are never lost: whatever
        was not flushed before the view change is carried into the new
        view by the flush union (the sequencer holds them in its own
        holdback from the instant of sequencing)."""
        world = GcsWorld(4, settings=GcsSettings(batch_window=0.05, batch_max=500))
        world.settle()
        _join_all(world)
        for i in range(20):
            world.daemons["s1"].mcast("g", i)
        # crash a member mid-window, before the batch timer can fire
        world.daemons["s3"].crash()
        world.settle()
        survivors = [n for n in world.daemon_ids if world.daemons[n].is_up()]
        for node in survivors:
            assert sorted(world.apps[node].payloads("g")) == list(range(20)), node
        world.check_spec()

    def test_sequencer_crash_with_buffered_batch(self):
        """If the sequencer itself dies with a buffered batch, survivors
        re-drive their pending requests into the new configuration."""
        world = GcsWorld(3, settings=GcsSettings(batch_window=0.05, batch_max=500))
        world.settle()
        _join_all(world)
        assert world.daemons["s0"].config.sequencer == "s0"
        for i in range(10):
            world.daemons["s1"].mcast("g", i)
        world.run(0.01)  # requests reach the sequencer; window still open
        world.daemons["s0"].crash()
        world.settle()
        world.run(2.0)
        for node in ("s1", "s2"):
            assert sorted(world.apps[node].payloads("g")) == list(range(10)), node
        world.check_spec()

    def test_duplicate_batch_delivery_is_idempotent(self):
        """Replaying a batch (as a NACK retransmission would) neither
        duplicates deliveries nor disturbs ordering."""
        world = GcsWorld(3)
        world.settle()
        _join_all(world)
        for i in range(5):
            world.daemons["s0"].mcast("g", i)
        world.run(1.0)
        target = world.daemons["s2"]
        held = [
            target.holdback.get(seq)
            for seq in sorted(target.holdback.all_received())
        ]
        replay = SequencedBatch(
            config_view_id=target.config.view_id, messages=tuple(held)
        )
        target._on_sequenced_batch(replay)
        target._on_sequenced_batch(replay)
        world.run(0.5)
        assert world.apps["s2"].payloads("g") == list(range(5))
        world.check_spec()

    def test_nack_answered_with_batch(self):
        """A gap NACK is answered by one batch carrying the missing run."""
        world = GcsWorld(3)
        world.settle()
        _join_all(world)
        for i in range(6):
            world.daemons["s1"].mcast("g", i)
        world.run(1.0)
        sequencer = world.daemons["s0"]
        held = sorted(sequencer.holdback.all_received())
        before = world.network.sent_count("s0", "gcs.sequenced_batch")
        sequencer._on_nack_seqs(
            NackSeqs(
                config_view_id=sequencer.config.view_id, seqs=tuple(held[:4])
            ),
            sender="s2",
        )
        after = world.network.sent_count("s0", "gcs.sequenced_batch")
        assert after == before + 1


class TestHeartbeatPiggybacking:
    def test_traffic_suppresses_heartbeats(self):
        """Under a steady multicast load, member↔sequencer links carry
        fewer explicit heartbeats than the idle all-pairs baseline."""
        def heartbeats_under_load(settings):
            world = GcsWorld(4, settings=settings)
            world.settle()
            _join_all(world)
            world.network.reset_stats()
            for step in range(40):
                world.daemons["s1"].mcast("g", step)
                world.run(0.05)
            return sum(
                world.network.sent_count(n, "gcs.heartbeat")
                for n in world.daemon_ids
            )

        suppressed = heartbeats_under_load(GcsSettings())
        baseline = heartbeats_under_load(GcsSettings(piggyback_liveness=False))
        assert suppressed < baseline

    def test_no_false_suspicion_under_suppression(self):
        """Piggybacked liveness keeps the failure detector quiet: a busy
        run with suppression on sees no spurious view changes."""
        world = GcsWorld(4)
        world.settle()
        views_before = {n: world.daemons[n].config.view_id for n in world.daemon_ids}
        for step in range(60):
            world.daemons["s1"].mcast("g", step)
            world.run(0.05)
        views_after = {n: world.daemons[n].config.view_id for n in world.daemon_ids}
        assert views_before == views_after
        world.check_spec()

    def test_crash_still_detected_with_piggybacking(self):
        """Suppression must not blind the detector: a real crash still
        converges to a view without the dead member."""
        world = GcsWorld(4)
        world.settle()
        _join_all(world)
        for step in range(10):
            world.daemons["s1"].mcast("g", step)
            world.run(0.05)
        world.daemons["s2"].crash()
        world.settle()
        world.assert_single_view(
            expected_members={"s0", "s1", "s3"}
        )
        world.check_spec()


@pytest.mark.parametrize("batching", [True, False])
def test_end_to_end_delivery_both_modes(batching):
    settings = GcsSettings() if batching else GcsSettings(batch_window=0.0)
    world = GcsWorld(5, settings=settings)
    world.settle()
    _join_all(world)
    for i in range(25):
        world.daemons[world.daemon_ids[i % 5]].mcast("g", i)
    world.run(3.0)
    reference = world.apps["s0"].payloads("g")
    assert sorted(reference) == list(range(25))
    for node in world.daemon_ids[1:]:
        assert world.apps[node].payloads("g") == reference, node
    world.check_spec()
