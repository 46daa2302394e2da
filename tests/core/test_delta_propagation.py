"""Delta (copy-on-write) context propagation: diffing, wire cost,
reconstruction, and the end-to-end primary→backup path.  Propagation
bytes are what the codec makes of each ``Propagate``, on both runtimes.

The contract under test: a receiver that applies a delta to its record at
the delta's base epoch ends up with *exactly* the snapshot a full
propagation would have carried — and a receiver anywhere else refuses the
delta (counted as a gap) rather than building a frankenstate.
"""

from dataclasses import dataclass, replace

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
from repro.core.wire import Propagate
from repro.experiments.common import send_updates_periodically
from repro.net import codec
from repro.net.codec import UnknownTypeError, encode_frame, register

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


def _seek_cluster(state, **policy_kwargs):
    """Three replicas, one session seeking every 0.1 s for 8 s."""
    cluster = ServiceCluster.build(
        n_servers=3,
        units={"u": _SeekApplication(state)},
        replication=3,
        policy=AvailabilityPolicy(
            num_backups=1, propagation_period=0.3, **policy_kwargs
        ),
        seed=7,
    )
    cluster.settle()
    client = cluster.add_client("c0")
    handle = client.start_session("u")
    cluster.run(1.0)
    send_updates_periodically(
        cluster, client, handle, period=0.1, duration=8.0, make_update=lambda k: k
    )
    cluster.run(8.0)
    return cluster


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


class TestContextDelta:
    def test_delta_reconstructs_exactly_what_full_would_ship(self):
        ctx = PrimaryContext(app_state=PlayState(position=1))
        base = ctx.snapshot(now=1.0)
        ctx.app_state = PlayState(position=2)
        ctx.update_counter = 5
        delta = ctx.delta(now=2.0)
        assert delta is not None
        rebuilt = delta.apply_to(base)
        assert rebuilt == ContextSnapshot(
            app_state=PlayState(position=2),
            update_counter=5,
            response_counter=0,
            stamped_at=2.0,
            epoch=base.epoch + 1,
        )

    def test_delta_refuses_wrong_base_epoch(self):
        ctx = PrimaryContext(app_state=PlayState())
        ctx.snapshot(now=1.0)
        ctx.app_state = PlayState(position=1)
        delta = ctx.delta(now=2.0)
        stranger = ContextSnapshot(app_state=PlayState(), epoch=999)
        with pytest.raises(ValueError):
            delta.apply_to(stranger)

    def test_no_capture_yet_means_no_delta(self):
        ctx = PrimaryContext(app_state=PlayState())
        assert ctx.delta(now=1.0) is None  # caller falls back to full

    def test_undiffable_state_means_no_delta(self):
        ctx = PrimaryContext(app_state=[1, 2])
        ctx.snapshot(now=1.0)
        ctx.app_state = [1, 2, 3]
        assert ctx.delta(now=2.0) is None

    def test_delta_is_cheaper_on_the_wire_than_full(self):
        big_buffer = tuple(f"frame-{i}" for i in range(200))
        ctx = PrimaryContext(app_state=PlayState(position=0, buffer=big_buffer))
        full = ctx.snapshot(now=1.0)
        ctx.app_state = PlayState(position=1, buffer=big_buffer)
        delta = ctx.delta(now=2.0)
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
    def test_steady_state_sends_mostly_deltas(self):
        cluster = make_vod_cluster(propagation_period=0.3)
        _, handle = start_streaming_session(cluster, run=8.0)
        deltas = sum(
            s.counters["propagations_delta"] for s in cluster.servers.values()
        )
        fulls = sum(
            s.counters["propagations_full"] for s in cluster.servers.values()
        )
        gaps = sum(
            s.counters["propagation_delta_gaps"]
            for s in cluster.servers.values()
        )
        assert deltas > fulls  # full only at start + every Nth
        assert gaps == 0  # totally ordered propagation: bases always match
        assert len(handle.received) > 0

    def test_delta_bytes_cheaper_than_full_only(self):
        # deltas pay where a large field stays put; on VoD's four small
        # fields a one-field delta outweighs the snapshot (DESIGN §9)
        def bytes_processed(**policy_kwargs):
            cluster = _seek_cluster(PlayState(buffer=_BUFFER), **policy_kwargs)
            return sum(
                s.counters["propagation_bytes_processed"]
                for s in cluster.servers.values()
            )

        with_deltas = bytes_processed(delta_propagation=True)
        full_only = bytes_processed(delta_propagation=False)
        assert 0 < with_deltas < full_only / 5

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

    def test_unregistered_state_fails_at_first_propagation(self):
        with pytest.raises(UnknownTypeError, match="_Unregistered"):
            _seek_cluster(_Unregistered())
