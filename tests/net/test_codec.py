"""The binary codec: round-trip fidelity and strict rejection.

The property test is the codec completeness gate from the live-runtime
work: every frozen wire dataclass in ``core/wire.py`` and
``gcs/messages.py`` must be registered and must survive an
encode/decode round trip with arbitrary wire values in its fields.
"""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass, fields, is_dataclass
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.wire as wire_module
import repro.gcs.messages as messages_module
from repro.gcs.messages import (
    ClientAck,
    ClientMcast,
    Heartbeat,
    OrderRequest,
    RequestId,
    Sequenced,
    SequencedBatch,
)
from repro.gcs.view import ViewId
from repro.net.codec import (
    MAX_FRAME,
    WIRE_VERSION,
    CodecError,
    FrameDecoder,
    TruncatedFrameError,
    UnknownTypeError,
    WireEnvelope,
    decode_frame,
    encode_envelope_frame,
    encode_frame,
    encode_payload,
    fast_path_types,
    frame_size,
    register,
    registered_types,
    split_frames,
)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
# Leaves only produce values the codec round-trips exactly: no NaN (x != x
# breaks equality), no int/bool confusion (bools encode via their own tags).
_leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=20)
    | st.binary(max_size=20)
)

_wire_values = st.recursive(
    _leaves,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=8), children, max_size=4)
        | st.frozensets(st.integers(), max_size=4)
    ),
    max_leaves=12,
)


def _instance_strategy(cls):
    """Build ``cls`` with arbitrary wire values in every field (wire
    dataclasses carry no validation; the codec is positional)."""
    return st.tuples(*[_wire_values for _ in fields(cls)]).map(
        lambda values: cls(*values)
    )


def _module_wire_classes(module):
    return [
        obj
        for obj in vars(module).values()
        if is_dataclass(obj)
        and isinstance(obj, type)
        and obj.__module__ == module.__name__
    ]


# ---------------------------------------------------------------------------
# completeness gate
# ---------------------------------------------------------------------------
def test_every_wire_dataclass_is_registered():
    registered = set(registered_types())
    for module in (wire_module, messages_module):
        for cls in _module_wire_classes(module):
            assert cls in registered, (
                f"{cls.__name__} is a wire dataclass but has no codec "
                "registration (P205 should also be failing)"
            )


def _for_each_registered_type(check, *more_strategies, max_examples=25):
    """Run ``check(instance, *more)`` as its own hypothesis property for
    every registered class (one draw per class keeps each example small)."""
    for cls in registered_types():
        prop = given(_instance_strategy(cls), *more_strategies)(check)
        settings(max_examples=max_examples, deadline=None)(prop)()


def test_registered_types_round_trip():
    """Every registered dataclass survives encode -> decode exactly, on
    BOTH byte forms: the default one (packed where a layout fits, falling
    back otherwise — arbitrary field values exercise the fallback
    constantly) and the forced-generic one.  And each form is canonical:
    re-encoding what a frame decoded to gives the frame back."""

    def check(instance):
        default, generic = encode_frame(instance), encode_frame(instance, fast=False)
        assert decode_frame(default) == instance
        assert decode_frame(generic) == instance
        assert encode_frame(decode_frame(default)) == default
        assert encode_frame(decode_frame(generic), fast=False) == generic

    _for_each_registered_type(check)


@settings(max_examples=100, deadline=None)
@given(value=_wire_values)
def test_plain_values_round_trip(value):
    assert decode_frame(encode_frame(value)) == value


def test_set_encoding_is_canonical():
    a = encode_frame(frozenset([1, 2, 3]))
    b = encode_frame(frozenset([3, 1, 2]))
    assert a == b
    assert decode_frame(a) == frozenset([1, 2, 3])


def test_frame_size_matches_encoding():
    envelope = WireEnvelope(
        sender="s0", receiver="s1", kind="hb", size=1, payload=[1, 2.5, "x"]
    )
    assert frame_size(envelope) == len(encode_frame(envelope))


# ---------------------------------------------------------------------------
# strict rejection
# ---------------------------------------------------------------------------
def test_unregistered_dataclass_rejected():
    @dataclass(frozen=True)
    class NotOnTheWire:
        x: int

    with pytest.raises(UnknownTypeError):
        encode_frame(NotOnTheWire(x=1))


def test_unencodable_object_rejected():
    with pytest.raises(UnknownTypeError):
        encode_frame(object())


def test_truncated_frames_rejected():
    frame = encode_frame([1, 2, 3])
    for cut in range(len(frame)):
        with pytest.raises(CodecError):
            decode_frame(frame[:cut])


def test_trailing_bytes_rejected():
    frame = encode_frame("hello")
    with pytest.raises(CodecError):
        decode_frame(frame + b"\x00")


def test_version_skew_rejected():
    frame = bytearray(encode_frame(42))
    frame[4] = WIRE_VERSION + 1
    with pytest.raises(CodecError, match="version"):
        decode_frame(bytes(frame))


def test_unknown_type_id_rejected():
    # hand-build a dataclass frame with an id beyond the registry
    body = bytearray([WIRE_VERSION, 13])  # _T_DATACLASS
    body += (60_000).to_bytes(2, "big")
    body += bytes([0])
    frame = len(body).to_bytes(4, "big") + bytes(body)
    with pytest.raises(UnknownTypeError):
        decode_frame(frame)


def test_field_count_mismatch_rejected():
    # force the generic form: the fast envelope shell has no count byte
    frame = bytearray(encode_frame(WireEnvelope("a", "b", "k", 1, None), fast=False))
    n_fields = len(dataclasses.fields(WireEnvelope))
    # the field-count byte follows tag(1)+type_id(2) inside the body
    index = frame.index(bytes([13])) + 3
    assert frame[index] == n_fields
    frame[index] = n_fields + 1
    with pytest.raises(CodecError):
        decode_frame(bytes(frame))


def test_oversized_length_prefix_rejected():
    frame = (MAX_FRAME + 1).to_bytes(4, "big") + b"\x01"
    with pytest.raises(CodecError):
        decode_frame(frame)
    with pytest.raises(CodecError):
        split_frames(bytearray(frame))


# ---------------------------------------------------------------------------
# hostile input: decode, or raise CodecError — nothing else, and cheaply
# ---------------------------------------------------------------------------
def _decodes_or_rejects(frame):
    """The whole error contract of ``decode_frame``, plus its memory one:
    what a frame makes the decoder allocate is bounded by the frame's own
    length (a generous per-byte factor for the objects it really holds,
    and room for coders compiled on the way)."""
    tracemalloc.start()
    try:
        try:
            decode_frame(frame)
        except CodecError:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 1024 + 200 * len(frame)


def test_hostile_frames_raise_codec_error(hostile_frames):
    assert len(hostile_frames) == 5
    for frame in hostile_frames.values():
        with pytest.raises(CodecError):
            decode_frame(frame)


def test_arbitrary_bodies_decode_or_raise_codec_error(raw_frame):
    @settings(max_examples=300, deadline=None)
    @given(body=st.binary(max_size=80))
    def check(body):
        _decodes_or_rejects(raw_frame(body))

    check()


_mutations = st.lists(
    st.tuples(st.integers(min_value=0), st.integers(0, 255)), min_size=1, max_size=3
)


def test_mutated_frames_decode_or_raise_codec_error():
    """1-3 flipped bytes, then maybe a cut, in a valid frame of every
    registered type, either byte form."""

    def check(instance, fast, mutations, cut):
        frame = bytearray(encode_frame(instance, fast=fast))
        for position, byte in mutations:
            frame[position % len(frame)] = byte
        if cut is not None:
            del frame[cut % len(frame) :]
        _decodes_or_rejects(bytes(frame))

    _for_each_registered_type(
        check, st.booleans(), _mutations, st.none() | st.integers(min_value=0), max_examples=15
    )


def test_absurd_counts_fail_at_the_first_missing_item(raw_frame):
    """A length or count of four billion (or 65535 in a packed tuple16)
    with nothing behind it is a truncated frame, found without allocating
    for the promised items."""
    frames = [raw_frame(bytes([tag]) + b"\xff" * 4) for tag in (4, 6, 7, 8, 9, 10, 11, 12)]
    batch = bytearray(encode_frame(SequencedBatch(ViewId(1, "s0"), ())))
    assert batch[5:8] == bytes([21, 0, 0])  # tag, then the u16 count
    batch[6:8] = b"\xff\xff"
    for frame in [*frames, bytes(batch)]:
        with pytest.raises(TruncatedFrameError):
            decode_frame(frame)
        _decodes_or_rejects(frame)


# ---------------------------------------------------------------------------
# register(): one call per class, layouts checked on the spot, lazy compile
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _Outside:
    """Registered from outside the codec module, as a service builder's
    session state is (``bench/rrapp.py`` does the same)."""

    name: str
    view: ViewId
    extra: Any = None


@dataclass(frozen=True)
class _Vague:
    count: "NoSuchType"  # noqa: F821 - get_type_hints() fails on this class
    label: str


@pytest.mark.parametrize(
    "tag, layout, complaint",
    [
        (200, "name:str8 view:value extra:value colour:u8", "unknown field 'colour'"),
        (200, "name:str8 view:value", "field 'extra' exactly once"),
        (200, "name:str8 view:value extra:value extra:value", "field 'extra' exactly once"),
        (200, "name:str8 view:value extra:tuple16.items", "field 'extra' exactly once"),
        (200, "name:str8 view:u64 extra:value", "kind 'u64'"),
        (15, "name:str8 view:value extra:value", "tag 15 is used twice"),
        (13, "name:str8 view:value extra:value", "tag 13 is outside"),
        (200, None, "both a tag and a layout"),
    ],
)
def test_bad_layouts_are_refused_at_register(raw_frame, tag, layout, complaint):
    with pytest.raises(CodecError, match=complaint):
        register(_Outside, tag, layout)
    assert _Outside not in registered_types()
    with pytest.raises(CodecError, match="unknown value tag 200"):  # and nothing claimed it
        decode_frame(raw_frame(bytes([200])))


def test_one_register_call_is_all_an_outside_class_needs():
    for cls in (_Outside, _Vague):
        if cls not in registered_types():  # (a second run in one process)
            register(cls)
    outside = _Outside("n", ViewId(2, "s1"), extra=_Vague(3, "x"))
    for fast in (True, False):
        frame = encode_frame(WireEnvelope("a", "b", "k", 1, outside), fast=fast)
        assert decode_frame(frame).payload == outside
    # no annotation to predict from: same bytes through the plain dispatch
    header = bytes([13]) + registered_types().index(_Vague).to_bytes(2, "big") + bytes([2])
    assert encode_payload(_Vague(3, "x")) == header + encode_payload(3) + encode_payload("x")
    assert encode_payload(_Vague("x", 3)) == header + encode_payload("x") + encode_payload(3)
    assert decode_frame(encode_frame(_Vague("x", 3))) == _Vague("x", 3)


_LAZY_COMPILE_SCRIPT = """
import repro.net.codec as codec
assert codec._SOURCES == {}, sorted(codec._SOURCES)  # importing compiled nothing
built, build = [], codec._build
def counting(name, *args, **constants):
    built.append(name)
    return build(name, *args, **constants)
codec._build = counting
from repro.gcs.messages import Heartbeat, PtpData
beat = Heartbeat("s0", 1, 2, None)
for _ in range(3):
    for value in (beat, PtpData(beat)):
        assert codec.decode_frame(codec.encode_frame(value)) == value
    codec.encode_envelope_frame("a", "b", "k", 1, codec.encode_payload(beat))
assert len(built) == len(set(built)), built  # each coder once
assert {name.split(":")[0] for name in built} == {"Heartbeat", "PtpData", "WireEnvelope"}, built
assert set(built) == set(codec._SOURCES)
"""


def test_coders_are_compiled_on_first_use_and_only_once():
    """The guard for start-up time: compiling every class at import read
    as +20 % ``setup_s`` on the stack benchmark."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", _LAZY_COMPILE_SCRIPT], env=env, check=True, timeout=60)


# ---------------------------------------------------------------------------
# the packed layouts: two byte forms, one wire contract
# ---------------------------------------------------------------------------
def _realistic_fast_instances():
    """Instances shaped the way the protocol actually builds them, so the
    specialized encoders engage instead of falling back."""
    rid = RequestId("c0", 1, 42)
    view = ViewId(3, "s0")
    order = OrderRequest(rid, "unit:demo", {"op": "rate", "value": 24.0}, 33)
    seq = Sequenced(view, 11, order)
    return [
        WireEnvelope("s0", "s1", "gcs", 7, Heartbeat("s0", 1, 3, view)),
        Heartbeat("s1", 2, 9, None),
        rid,
        view,
        ClientAck(rid),
        order,
        ClientMcast(rid, "unit:demo", ("chunk", 4), 12),
        seq,
        SequencedBatch(view, (seq, Sequenced(view, 12, order))),
    ]


def test_fast_types_cover_the_hot_frames():
    fast = set(fast_path_types())
    for cls in (WireEnvelope, Heartbeat, ClientAck, SequencedBatch):
        assert cls in fast


def test_fast_frames_decode_identically_to_generic_frames():
    """The cross-path contract: for any value both byte forms decode to
    the same object — a fast frame through the (one) decoder equals the
    generic frame through the same decoder."""
    for instance in _realistic_fast_instances():
        fast_frame = encode_frame(instance)
        generic_frame = encode_frame(instance, fast=False)
        # the specialized form actually engaged (and is never larger)
        assert fast_frame != generic_frame
        assert len(fast_frame) <= len(generic_frame)
        assert decode_frame(fast_frame) == instance
        assert decode_frame(generic_frame) == instance


def test_fast_encoder_falls_back_on_unpackable_fields():
    """A field the packed layout cannot hold (wrong type, out-of-range
    int, >255-byte string) silently degrades to the generic form — byte
    for byte, so the fallback is invisible on the wire."""
    awkward = [
        Heartbeat(3.5, 1, 2, None),  # sender not a str
        Heartbeat("s0", -1, 2, None),  # negative u32
        Heartbeat("s0", 2**40, 2, None),  # overflows u32
        Heartbeat("x" * 300, 1, 2, None),  # str8 overflow
        Heartbeat("s0", True, 2, None),  # bool is not an int on this wire
    ]
    for instance in awkward:
        assert encode_frame(instance) == encode_frame(instance, fast=False)
        assert decode_frame(encode_frame(instance)) == instance
    # a fallen-back shell may still carry fast-encoded children: the
    # batch degrades to the generic dataclass form (tag 13 right after
    # the version byte) while its nested view id stays specialized
    batch = SequencedBatch(ViewId(1, "s0"), [1, 2])  # list, not tuple
    frame = encode_frame(batch)
    assert frame[5] == 13
    assert decode_frame(frame) == batch


def test_fast_frames_reject_every_truncation():
    for instance in _realistic_fast_instances():
        frame = encode_frame(instance)
        for cut in range(len(frame)):
            with pytest.raises(CodecError):
                decode_frame(frame[:cut])


def test_envelope_splice_matches_whole_frame_encoding():
    """encode_envelope_frame around a cached payload must be
    byte-identical to encoding the assembled WireEnvelope — for packable
    and unpackable addressing fields alike (the generic-shell fallback)."""
    payload = Heartbeat("s0", 1, 3, ViewId(3, "s0"))
    cases = [
        ("s0", "s1", "gcs", 7),
        (None, ("odd", "sender"), "gcs", -1),  # forces the generic shell
        ("s0", "s1", "x" * 300, 2**40),  # str8 + u32 overflow
    ]
    for sender, receiver, kind, size in cases:
        spliced = encode_envelope_frame(
            sender, receiver, kind, size, encode_payload(payload)
        )
        whole = encode_frame(WireEnvelope(sender, receiver, kind, size, payload))
        assert spliced == whole
        assert decode_frame(spliced) == WireEnvelope(
            sender, receiver, kind, size, payload
        )


# ---------------------------------------------------------------------------
# stream reassembly
# ---------------------------------------------------------------------------
def test_split_frames_keeps_partial_tail():
    f1, f2 = encode_frame("one"), encode_frame([2, 2])
    buffer = bytearray(f1 + f2[:3])
    frames = split_frames(buffer)
    assert frames == [f1]
    assert bytes(buffer) == f2[:3]


def test_frame_decoder_across_chunks():
    decoder = FrameDecoder()
    stream = b"".join(encode_frame(v) for v in ("a", {"k": 1}, [True, None]))
    out = []
    for i in range(0, len(stream), 7):
        out.extend(decoder.feed(stream[i : i + 7]))
    assert out == ["a", {"k": 1}, [True, None]]
    assert decoder.pending_bytes == 0


def test_coalesced_payload_splits_at_every_boundary():
    """A coalesced transport write concatenates frames (fast and generic
    mixed); the receiver must reassemble them from arbitrary
    ``data_received`` chunk boundaries."""
    values = _realistic_fast_instances() + ["generic", {"k": (1, 2)}, None]
    coalesced = b"".join(encode_frame(v) for v in values)
    for chunk_size in (1, 2, 3, 5, 16, len(coalesced)):
        decoder = FrameDecoder()
        out = []
        for i in range(0, len(coalesced), chunk_size):
            out.extend(decoder.feed(coalesced[i : i + chunk_size]))
        assert out == values
        assert decoder.pending_bytes == 0
