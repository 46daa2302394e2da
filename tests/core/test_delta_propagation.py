"""Delta (copy-on-write) context propagation: diffing, wire cost,
reconstruction, and the end-to-end primary→backup path.  Propagation
bytes are what the codec makes of each ``Propagate``, on both runtimes.

The contract under test: a receiver that applies a delta to its record at
the delta's base epoch ends up with *exactly* the snapshot a full
propagation would have carried — and a receiver anywhere else refuses the
delta (counted as a gap) rather than building a frankenstate.
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.core import AvailabilityPolicy, ServiceCluster
from repro.core.application import RequestResponseApplication
from repro.core.context import (
    BackupContext,
    ContextDelta,
    ContextSnapshot,
    PrimaryContext,
    apply_state_delta,
    state_delta,
)
from repro.core.server import FULL_PROPAGATION_EVERY
from repro.core.wire import Propagate
from repro.experiments.common import send_updates_periodically
from repro.net import codec
from repro.net.codec import UnknownTypeError, encode_frame, register
from repro.services import (
    EducationApplication,
    LedgerApplication,
    SearchApplication,
    VodApplication,
    build_corpus,
    build_movie,
    build_topic,
)
from repro.services.content import VOCABULARY
from repro.services.workload import SearcherWorkload, StudentWorkload

from .conftest import make_vod_cluster, start_streaming_session


@dataclass(frozen=True)
class PlayState:
    position: int = 0
    rate: float = 1.0
    buffer: tuple = ()


# propagated by the cluster tests below, so it must be a wire type
register(PlayState)

#: a large field that never changes: what a delta leaves behind
_BUFFER = tuple(f"frame-{i}" for i in range(200))


@dataclass(frozen=True)
class _Unregistered:
    position: int = 0


@dataclass(frozen=True)
class _LoopState(PlayState):
    loop: bool = False


class _SeekApplication(RequestResponseApplication):
    """Every update is a new position; the rest of the state stays."""

    def __init__(self, state):
        self.state = state

    def initial_state(self, unit_id, params):
        return self.state

    def apply_update(self, state, update):
        return replace(state, position=update)

    def respond_to_update(self, state, update):
        return state, []


def _seek(cluster, client, handle):
    send_updates_periodically(
        cluster, client, handle, period=0.1, duration=8.0, make_update=lambda k: k
    )


def _run_session(app, unit, drive=_seek, policy=None, seed=7):
    """Three replicas, one session driven for 8 s after a 1 s warm-up."""
    cluster = ServiceCluster.build(
        n_servers=3,
        units={unit: app},
        replication=3,
        policy=policy or AvailabilityPolicy(num_backups=1, propagation_period=0.3),
        seed=seed,
    )
    cluster.settle()
    client = cluster.add_client("c0")
    handle = client.start_session(unit)
    cluster.run(1.0)
    drive(cluster, client, handle)
    cluster.run(8.0)
    return cluster


def _total(cluster, counter):
    return sum(s.counters[counter] for s in cluster.servers.values())


def _searcher(think_time_mean):
    def drive(cluster, client, handle):
        SearcherWorkload(
            cluster=cluster,
            client=client,
            handle=handle,
            rng=np.random.default_rng(3),
            vocabulary=VOCABULARY,
            think_time_mean=think_time_mean,
        ).start()

    return drive


def _student(cluster, client, handle):
    StudentWorkload(
        cluster=cluster,
        client=client,
        handle=handle,
        rng=np.random.default_rng(2),
        n_objects=12,
        think_time_mean=0.5,
    ).start()


def _ledger(cluster, client, handle):
    send_updates_periodically(
        cluster,
        client,
        handle,
        period=0.1,
        duration=8.0,
        make_update=lambda k: {"counter": k},
    )


#: every shipped session state, and ``PlayState`` with a large buffer that
#: never changes: (application, unit, driver) for :func:`_run_session`
_STATES = {
    "vod": lambda: (
        VodApplication({"m0": build_movie("m0", duration_seconds=120, frame_rate=10)}),
        "m0",
        lambda *_: None,
    ),
    "search": lambda: (
        SearchApplication({"c": build_corpus("c", seed=4)}),
        "c",
        _searcher(0.5),
    ),
    "education": lambda: (
        EducationApplication({"t": build_topic("t", n_objects=12, seed=3)}),
        "t",
        _student,
    ),
    "ledger": lambda: (LedgerApplication(), "l", _ledger),
    "play": lambda: (_SeekApplication(PlayState(buffer=_BUFFER)), "u", _seek),
}

#: propagation_bytes_processed of each state: (each propagation in the form
#: the codec prices smaller — pinned; a delta wherever one was allowed; every
#: propagation full).  The last two were measured before the form was chosen
#: per propagation, when two policy knobs picked one of them for every state.
_BYTES = {
    "vod": (8352, 9177, 8352),
    "search": (165081, 200463, 292644),
    "education": (12696, 14151, 18978),
    "ledger": (34143, 35661, 34149),
    "play": (41091, 41091, 242034),
}


class TestStateDelta:
    def test_same_object_is_empty_delta(self):
        state = PlayState()
        assert state_delta(state, state) == ()

    def test_changed_fields_only(self):
        old = PlayState(position=3, buffer=("a", "b"))
        new = PlayState(position=4, buffer=("a", "b"))
        assert state_delta(old, new) == (("position", 4),)

    def test_roundtrip(self):
        old = PlayState(position=3, rate=1.0)
        new = PlayState(position=9, rate=2.0)
        assert apply_state_delta(old, state_delta(old, new)) == new

    def test_undiffable_states_return_none(self):
        assert state_delta([1], [1, 2]) is None
        assert state_delta(PlayState(), (1, 2)) is None
        # a dataclass of another type, a subclass, the class itself
        assert state_delta(PlayState(), _Unregistered()) is None
        assert state_delta(PlayState(), _LoopState()) is None
        assert state_delta(PlayState, _Unregistered) is None
        assert state_delta(PlayState, PlayState) == ()

    def test_pairs_follow_the_field_order_on_every_call(self):
        old = PlayState(position=1, rate=1.0, buffer=("a",))
        new = PlayState(position=2, rate=2.0, buffer=("b",))
        expected = (("position", 2), ("rate", 2.0), ("buffer", ("b",)))
        assert state_delta(old, new) == expected
        assert state_delta(old, new) == expected
        # equal but distinct values are unchanged; subclasses diff their own fields
        assert state_delta(old, PlayState(position=1, rate=1.0, buffer=("a",))) == ()
        assert state_delta(_LoopState(loop=False), _LoopState(position=5, loop=True)) == (
            ("position", 5),
            ("loop", True),
        )


class TestContextDelta:
    def test_delta_reconstructs_exactly_what_full_would_ship(self):
        ctx = PrimaryContext(app_state=PlayState(position=1))
        base = ctx.snapshot(now=1.0)
        ctx.app_state = PlayState(position=2)
        ctx.update_counter = 5
        full, delta = ctx.capture(now=2.0)
        assert delta is not None
        assert delta.apply_to(base) == full == ContextSnapshot(
            app_state=PlayState(position=2),
            update_counter=5,
            response_counter=0,
            stamped_at=2.0,
            epoch=base.epoch + 1,
        )

    def test_one_capture_advances_the_epoch_once(self):
        ctx = PrimaryContext(app_state=PlayState())
        ctx.snapshot(now=1.0)
        full, delta = ctx.capture(now=2.0)
        assert full.epoch == delta.epoch == ctx.epoch == 2
        assert delta.base_epoch == 1

    def test_delta_refuses_wrong_base_epoch(self):
        ctx = PrimaryContext(app_state=PlayState())
        ctx.snapshot(now=1.0)
        ctx.app_state = PlayState(position=1)
        _, delta = ctx.capture(now=2.0)
        stranger = ContextSnapshot(app_state=PlayState(), epoch=999)
        with pytest.raises(ValueError):
            delta.apply_to(stranger)

    def test_no_capture_yet_means_no_delta(self):
        ctx = PrimaryContext(app_state=PlayState())
        assert ctx.capture(now=1.0)[1] is None  # only the full form exists
        assert ctx.capture(now=2.0, diff=False)[1] is None

    def test_undiffable_state_means_no_delta(self):
        ctx = PrimaryContext(app_state=[1, 2])
        ctx.snapshot(now=1.0)
        ctx.app_state = [1, 2, 3]
        assert ctx.capture(now=2.0)[1] is None

    def test_delta_is_cheaper_on_the_wire_than_full(self):
        big_buffer = tuple(f"frame-{i}" for i in range(200))
        ctx = PrimaryContext(app_state=PlayState(position=0, buffer=big_buffer))
        ctx.snapshot(now=1.0)
        ctx.app_state = PlayState(position=1, buffer=big_buffer)
        full, delta = ctx.capture(now=2.0)
        full_msg = Propagate(session_id="s", unit_id="u", snapshot=full)
        delta_msg = Propagate(session_id="s", unit_id="u", delta=delta)
        assert delta_msg.wire_size < full_msg.wire_size / 10

    def test_wire_size_is_the_encoded_frame_priced_once(self, monkeypatch):
        message = Propagate(
            session_id="s",
            unit_id="u",
            snapshot=ContextSnapshot(app_state=PlayState(buffer=("f",))),
        )
        assert message.wire_size == len(encode_frame(message))
        # every receiver of the simulator's shared object asks again
        monkeypatch.setattr(codec, "frame_size", lambda value: pytest.fail("re-encoded"))
        assert message.wire_size == len(encode_frame(message))


class TestBackupLogReplay:
    def test_empty_log_returns_base_without_copying(self):
        base = ContextSnapshot(app_state=PlayState())
        backup = BackupContext(base=base)
        assert backup.effective(lambda s, u: s) is base

    def test_tying_counters_with_unorderable_payloads(self):
        # update payloads are opaque application values: dicts here, which
        # are not orderable — the replay sort must key on the counter only
        # (sorting the raw tuples raised TypeError on ties)
        backup = BackupContext(base=ContextSnapshot(app_state=(), update_counter=0))
        backup.apply_update(2, {"op": "b"})
        backup.apply_update(1, {"op": "a"})
        backup.apply_update(2, {"op": "c"})
        effective = backup.effective(lambda s, u: s + (u["op"],))
        assert effective.app_state == ("a", "b", "c")
        assert effective.update_counter == 2


class TestClusterDeltaPath:
    @pytest.mark.parametrize("state", sorted(_BYTES))
    def test_each_state_ships_its_smaller_form(self, state):
        cluster = _run_session(*_STATES[state]())
        chosen, deltas_only, fulls_only = _BYTES[state]
        assert _total(cluster, "propagation_bytes_processed") == chosen
        assert chosen <= min(deltas_only, fulls_only) * 1.01
        # totally ordered propagation: every delta finds its base
        assert _total(cluster, "propagation_delta_gaps") == 0

    @pytest.mark.parametrize(
        "isolated,think_time_mean,before,held,gaps",
        [
            # s2 ran its own lineage of the session while cut off; after the
            # heal its full snapshot, then the state-exchange merge, replaced
            # the records s0's deltas were based on.  Before a delta needed
            # its base back through the total order and a merge forced a
            # full, that was 7 deltas x 3 receivers = 21 gaps.
            ("s2", 1.5, 3.0, 3.2, 0),
            # What is left: the isolated primary's last delta, captured in
            # its one-member view, is ordered into the healed view, where s1
            # and s2 hold s1's lineage.  The merge right after rewrites
            # their records, so the two refusals cost nothing.
            ("s0", 0.5, 2.3, 3.0, 2),
        ],
    )
    def test_partition_heal_gaps(self, isolated, think_time_mean, before, held, gaps):
        def drive(cluster, client, handle):
            _searcher(think_time_mean)(cluster, client, handle)
            cluster.run(before)
            cluster.partition([isolated])
            cluster.run(held)
            cluster.heal()

        cluster = _run_session(
            SearchApplication({"c": build_corpus("c", seed=4)}),
            "c",
            drive,
            policy=AvailabilityPolicy(num_backups=1),
            seed=3,
        )
        assert _total(cluster, "propagation_delta_gaps") == gaps

    def test_no_delta_before_its_base_is_delivered(self):
        """The GCS orders one sender's messages in arrival order, and a
        reordering network can deliver a later one first: a delta is only
        diffed against a propagation that already came back through the
        total order, so it is ordered after its base everywhere."""
        cluster = _run_session(_SeekApplication(PlayState(buffer=_BUFFER)), "u")
        primary = next(s for s in cluster.servers.values() if s.primaries)
        (runtime,) = primary.primaries.values()
        session_id = runtime.session_id
        chain = runtime.deltas_since_full
        assert chain + 2 < FULL_PROPAGATION_EVERY  # the cadence allows two
        primary._propagate(session_id)  # its base is back: the delta wins
        assert runtime.deltas_since_full == chain + 1
        primary._propagate(session_id)  # its base is still in flight: full
        assert runtime.deltas_since_full == 0
        cluster.run(1.0)
        assert _total(cluster, "propagation_delta_gaps") == 0

    def test_no_delta_against_a_merged_record(self):
        """A state exchange rewrites every member's record with the merged
        one — here the primary's live state, between two propagations.  A
        primary that keeps its role must not diff its next propagation
        against its own last one: a field that changed and changed back
        since would be missing from the delta, leaving the receivers at the
        value the merge gave them."""
        cluster = ServiceCluster.build(
            n_servers=3,
            units={"u": _SeekApplication(PlayState(buffer=_BUFFER))},
            replication=3,
            policy=AvailabilityPolicy(num_backups=1, propagation_period=2.0),
            seed=7,
        )
        cluster.settle()
        client = cluster.add_client("c0")
        handle = client.start_session("u")
        cluster.run(1.0)
        primary = cluster.servers[cluster.primaries_of(handle.session_id)[0]]
        sent = primary.counters["propagations_sent"]
        while primary.counters["propagations_sent"] == sent:
            cluster.run(0.05)
        cluster.run(0.1)  # propagated position 0 is everywhere
        client.send_update(handle, 5)
        cluster.run(0.1)
        primary.request_rebalance("u")
        cluster.run(0.2)  # merged: every record holds position 5
        assert cluster.primaries_of(handle.session_id) == [primary.server_id]
        client.send_update(handle, 0)
        cluster.run(2.0)  # the next propagation
        assert primary.counters["propagations_sent"] == sent + 2
        live = primary.primaries[handle.session_id].ctx.app_state
        assert live.position == 0
        for server in cluster.servers.values():
            record = server.unit_dbs["u"].get(handle.session_id)
            assert record.snapshot.app_state == live

    def test_failover_freshness_with_deltas_on(self):
        cluster = make_vod_cluster(propagation_period=0.3)
        _, handle = start_streaming_session(cluster, run=6.0)
        victim = cluster.primaries_of(handle.session_id)[0]
        before = len(handle.received)
        cluster.crash_server(victim)
        cluster.run(8.0)
        assert cluster.primaries_of(handle.session_id)[0] != victim
        assert len(handle.received) > before  # stream survived the takeover

    def test_epoch_gap_falls_back_instead_of_corrupting(self):
        cluster = make_vod_cluster(propagation_period=0.3)
        _, handle = start_streaming_session(cluster, run=4.0)
        session = handle.session_id
        primary = cluster.primaries_of(session)[0]
        observer = next(
            s
            for sid, s in cluster.servers.items()
            if sid != primary and "m0" in s.unit_dbs
        )
        record = observer.unit_dbs["m0"].get(session)
        assert record is not None
        before_epoch = record.snapshot.epoch
        gaps_before = observer.counters["propagation_delta_gaps"]
        stray = Propagate(
            session_id=session,
            unit_id="m0",
            delta=ContextDelta(
                base_epoch=before_epoch + 40,  # a future lineage we missed
                epoch=before_epoch + 41,
                update_counter=999,
                response_counter=999,
                stamped_at=99.0,
                changes=(("position", 12345),),
            ),
        )
        observer._on_propagate(stray)
        assert observer.counters["propagation_delta_gaps"] == gaps_before + 1
        # the record was left untouched rather than patched off-base
        assert observer.unit_dbs["m0"].get(session).snapshot.epoch == before_epoch


class TestCodecPricing:
    def test_bytes_sent_are_the_encoded_frames(self):
        cluster = make_vod_cluster(propagation_period=0.3)
        encoded = dict.fromkeys(cluster.servers, 0)
        for server_id, server in cluster.servers.items():

            def mcast(group, payload, inner=server.daemon.mcast, sid=server_id):
                if isinstance(payload, Propagate):
                    encoded[sid] += len(encode_frame(payload))
                return inner(group, payload)

            server.daemon.mcast = mcast
        start_streaming_session(cluster, run=5.0)
        assert sum(encoded.values()) > 0
        for server_id, server in cluster.servers.items():
            assert server.counters["propagation_bytes_sent"] == encoded[server_id]

    #: per server: (full, delta, propagation_bytes_sent).  The VoD unit's id
    #: is 13 characters, so a delta of the position alone prices exactly as
    #: the full snapshot: every tie ships the full one (a delta only when
    #: strictly smaller; the other rule reads (4, 25, 3422) for s0).  The
    #: play state's large buffer makes its deltas strictly smaller.
    _TALLY = {
        "vod-tie": {"s0": (29, 0, 3422), "s1": (0, 0, 0), "s2": (0, 0, 0)},
        "play": {"s0": (4, 25, 13697), "s1": (0, 0, 0), "s2": (0, 0, 0)},
    }

    @pytest.mark.parametrize("state", sorted(_TALLY))
    def test_each_server_ships_the_forms_pinned(self, state):
        unit = "movie-theatre"
        if state == "vod-tie":
            app = VodApplication({unit: build_movie(unit, duration_seconds=120, frame_rate=10)})
            cluster = _run_session(app, unit, drive=lambda *_: None)
        else:
            cluster = _run_session(*_STATES[state]())
        tally = {
            server_id: tuple(
                server.counters[counter]
                for counter in ("propagations_full", "propagations_delta", "propagation_bytes_sent")
            )
            for server_id, server in cluster.servers.items()
        }
        assert tally == self._TALLY[state]

    def test_unregistered_state_fails_at_first_propagation(self):
        with pytest.raises(UnknownTypeError, match="_Unregistered"):
            _run_session(_SeekApplication(_Unregistered()), "u")
