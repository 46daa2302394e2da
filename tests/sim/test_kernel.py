"""Fast-path kernel internals: live counter, lazy-deletion compaction,
the slotted event representation and call entries.

``test_engine.py`` covers the simulator's public contract; these tests
pin the accounting and compaction machinery the fast path added, which
has failure modes (counter drift, dropped events on re-heapify, stale
handles after ``clear``) that no behavioural test would catch until much
later and far away.
"""

import pytest

from repro.sim.engine import _COMPACT_MIN_DEAD, Event, SimulationError, Simulator


def noop():
    return None


def noop2(a, b):
    return None


class TestLiveCounter:
    def test_counts_schedule_cancel_and_pop(self):
        sim = Simulator()
        events = [sim.schedule(float(i), noop) for i in range(5)]
        assert sim.pending_events == 5
        events[3].cancel()
        assert sim.pending_events == 4
        sim.run_until(1.5)  # pops t=0 and t=1
        assert sim.pending_events == 2
        sim.run_until(10.0)
        assert sim.pending_events == 0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, noop)
        sim.schedule(2.0, noop)
        event.cancel()
        event.cancel()
        assert sim.pending_events == 1

    def test_cancel_after_execution_is_a_noop(self):
        sim = Simulator()
        event = sim.schedule(1.0, noop)
        sim.run_until(2.0)
        event.cancel()
        assert sim.pending_events == 0
        assert not event.cancelled  # fired, not cancelled

    def test_clear_resets_and_detaches_handles(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), noop) for i in range(3)]
        sim.clear()
        assert sim.pending_events == 0
        # cancelling a handle from before the clear must not drive the
        # live counter negative or resurrect dead accounting
        events[0].cancel()
        assert sim.pending_events == 0
        sim.schedule(1.0, noop)
        assert sim.pending_events == 1


class TestCompaction:
    def test_mass_cancellation_shrinks_the_heap(self):
        sim = Simulator()
        keep = sim.schedule(50.0, noop)
        doomed = [sim.schedule(float(i + 1), noop) for i in range(4 * _COMPACT_MIN_DEAD)]
        for event in doomed:
            event.cancel()
        # well past the threshold: the dead entries must be gone
        assert len(sim._queue) < _COMPACT_MIN_DEAD
        assert sim.pending_events == 1
        assert not keep.finished

    def test_execution_order_survives_compaction(self):
        sim = Simulator()
        fired: list[str] = []
        survivors = []
        doomed = []
        for i in range(3 * _COMPACT_MIN_DEAD):
            t = float(i + 1)
            doomed.append(sim.schedule(t, noop))
            survivors.append(
                sim.schedule(t, lambda t=t: fired.append(f"a{t}"))
            )
            survivors.append(
                sim.schedule(t, lambda t=t: fired.append(f"b{t}"))
            )
        for event in doomed:
            event.cancel()  # triggers compaction partway through
        sim.run_until(1e9)
        expected = [
            f"{tag}{float(i + 1)}"
            for i in range(3 * _COMPACT_MIN_DEAD)
            for tag in ("a", "b")
        ]
        assert fired == expected  # time order, insertion-order ties

    def test_compaction_during_callback_is_safe(self):
        # a callback that mass-cancels rebinds the heap mid-run_until;
        # remaining events must still fire
        sim = Simulator()
        fired = []
        doomed = [sim.schedule(90.0, noop) for _ in range(3 * _COMPACT_MIN_DEAD)]

        def massacre():
            for event in doomed:
                event.cancel()

        sim.schedule(1.0, massacre)
        sim.schedule(2.0, lambda: fired.append("after"))
        sim.run_until(100.0)
        assert fired == ["after"]
        assert sim.pending_events == 0


class TestSlottedEvent:
    def test_event_has_no_dict(self):
        event = Simulator().schedule(1.0, noop)
        with pytest.raises(AttributeError):
            event.__dict__

    def test_heap_entries_are_tuples(self):
        sim = Simulator()
        sim.schedule(1.0, noop)
        entry = sim._queue[0]
        assert isinstance(entry, tuple)
        assert entry[0] == 1.0 and isinstance(entry[2], Event)


def mixed_heap(fired: list):
    """A heap of call entries among live and cancelled events at t = 1..6:
    calls at 1, 3, 5 (two at 5, tied), events at 2, 4, 6, the one at 4
    cancelled; returns the simulator and the cancelled event."""
    sim = Simulator()

    def call(tag, when):
        fired.append((tag, when, sim.now))

    sim.call_at(1.0, call, "c1", 1.0)
    sim.schedule(2.0, lambda: fired.append(("e2", 2.0, sim.now)))
    sim.call_at(3.0, call, "c3", 3.0)
    doomed = sim.schedule(4.0, lambda: fired.append(("e4", 4.0, sim.now)))
    sim.call_at(5.0, call, "c5", 5.0)
    sim.call_at(5.0, call, "c5b", 5.0)
    sim.schedule(6.0, lambda: fired.append(("e6", 6.0, sim.now)))
    doomed.cancel()
    return sim, doomed


class TestCallEntries:
    """``call_at`` pushes ``(time, seq, fn, a, b)`` — no :class:`Event` —
    and every part of the loop treats it as the live event it stands for."""

    def test_entry_is_the_call_itself(self):
        sim = Simulator()
        sim.schedule(1.0, noop)
        sim.call_at(1.0, noop2, "a", "b")
        assert sim._queue[1] == (1.0, 1, noop2, "a", "b")

    def test_run_until_runs_both_shapes_in_time_and_seq_order(self):
        fired: list = []
        sim, _ = mixed_heap(fired)
        assert sim.pending_events == 6
        sim.run_until(5.0)
        assert [tag for tag, _, _ in fired] == ["c1", "e2", "c3", "c5", "c5b"]
        assert all(when == now for _, when, now in fired)  # the clock moved
        assert sim.pending_events == 1 and sim.executed_events == 5
        sim.run_until(10.0)
        assert fired[-1][0] == "e6"
        assert sim.pending_events == 0 and sim.executed_events == 6

    def test_step_runs_one_entry_of_either_shape(self):
        fired: list = []
        sim, _ = mixed_heap(fired)
        counts = []
        while sim.step():
            counts.append((sim.pending_events, sim.executed_events))
        assert [tag for tag, _, _ in fired] == ["c1", "e2", "c3", "c5", "c5b", "e6"]
        assert counts == [(5 - i, i + 1) for i in range(6)]
        assert not sim.step()

    def test_max_events_counts_call_entries(self):
        fired: list = []
        sim, _ = mixed_heap(fired)
        with pytest.raises(SimulationError):
            sim.run_until(10.0, max_events=3)
        assert [tag for tag, _, _ in fired] == ["c1", "e2", "c3"]
        assert sim.executed_events == 3 and sim.pending_events == 3

    def test_next_event_time_with_a_call_entry_at_the_head(self):
        fired: list = []
        sim, doomed = mixed_heap(fired)
        assert sim.next_event_time() == 1.0
        sim.run_until(3.5)
        # the cancelled event at 4 is dropped on the way to the call at 5
        assert sim.next_event_time() == 5.0
        assert sim._queue[0][2] is not doomed and len(sim._queue[0]) == 5
        sim.run_until(5.5)
        assert sim.next_event_time() == 6.0
        sim.run_until(10.0)
        assert sim.next_event_time() is None

    def test_call_entries_survive_compaction(self):
        # 3 x _COMPACT_MIN_DEAD cancellations among as many call entries
        # and live events: the heap compacts, and keeps every call
        sim = Simulator()
        fired: list = []
        doomed = []
        n = _COMPACT_MIN_DEAD
        for i in range(n):
            t = float(i + 1)
            doomed += [sim.schedule(t, noop) for _ in range(3)]
            sim.call_at(t, lambda tag, t: fired.append(f"{tag}{t}"), "c", t)
            sim.schedule(t, lambda t=t: fired.append(f"e{t}"))
        for event in doomed:
            event.cancel()
        assert len(sim._queue) < 5 * n - 2 * _COMPACT_MIN_DEAD  # compacted
        assert sim.pending_events == 2 * n
        sim.run_until(1e9)
        assert fired == [f"{tag}{float(i + 1)}" for i in range(n) for tag in "ce"]
        assert sim.executed_events == 2 * n and sim.pending_events == 0

    def test_clear_drops_call_entries(self):
        fired: list = []
        sim, _ = mixed_heap(fired)
        event = sim.schedule(7.0, noop)
        sim.clear()
        assert sim.pending_events == 0 and sim.next_event_time() is None
        event.cancel()  # detached: no accounting to skew
        assert sim.pending_events == 0
        sim.run_until(10.0)
        assert fired == []

    def test_call_at_refuses_the_past(self):
        sim = Simulator()
        sim.run_until(2.0)
        with pytest.raises(SimulationError):
            sim.call_at(1.0, noop2, None, None)

    def test_reserved_seqs_are_skipped_and_injected_around_call_entries(self):
        # the live replay fences recorded seqs off and re-injects frames at
        # them; call entries draw from the same counter and must skip them
        sim = Simulator()
        sim.reserve_seqs([1, 3, 4])
        sim.call_at(1.0, noop2, "a", None)          # seq 0
        sim.schedule_at(1.0, noop)                 # seq 2
        sim.call_at(1.0, noop2, "b", None)          # seq 5
        sim.inject_at(1.0, 3, noop)
        sim.inject_at(1.0, 1, noop)
        sim.call_at(1.0, noop2, "c", None)          # seq 6
        sim.inject_at(1.0, 4, noop)
        seqs = sorted(entry[1] for entry in sim._queue)
        assert seqs == [0, 1, 2, 3, 4, 5, 6]
        calls = {entry[1]: entry[3] for entry in sim._queue if len(entry) == 5}
        assert calls == {0: "a", 5: "b", 6: "c"}
        order = []
        while sim._queue:
            order.append(sim._queue[0][1])
            sim.step()
        assert order == [0, 1, 2, 3, 4, 5, 6]
        assert sim.executed_events == 7
