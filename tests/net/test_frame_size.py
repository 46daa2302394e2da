"""``frame_size`` prices a value without encoding it: it must equal
``len(encode_frame(value))`` for every value, and raise what encoding
raises (same class, same message) for every value that cannot be encoded.

The cases cover both forms of every packed type and the places where a
packed encoder falls back to the generic form, whose fit checks the sizer
repeats: strings measured in UTF-8 bytes, ints at both ends of every range,
and subclasses of the builtins.
"""

import enum
from collections import OrderedDict, defaultdict, namedtuple
from dataclasses import dataclass

import pytest
from hypothesis import given, settings

from repro.gcs.messages import (
    AttemptId,
    ClientAck,
    Heartbeat,
    Install,
    RequestId,
    Sequenced,
    SequencedBatch,
)
from repro.gcs.view import ViewId
from repro.net.codec import (
    MAX_FRAME,
    CodecError,
    UnknownTypeError,
    WireEnvelope,
    encode_frame,
    frame_size,
    generated_source,
)
from tests.net.test_codec import _for_each_registered_type, _wire_values
from tests.net.test_wire_contract import _GOLDEN_VALUES, _ORDER, _RID, _VIEW


def _priced_as_encoded(value):
    try:
        expected = len(encode_frame(value))
    except Exception as exc:  # noqa: BLE001 — whatever it is, the sizer raises it too
        with pytest.raises(type(exc)) as raised:
            frame_size(value)
        assert str(raised.value) == str(exc)
        return exc
    assert frame_size(value) == expected
    return None


class _Level(enum.IntEnum):
    LOW = 1


class _Name(str):
    pass


_Pair = namedtuple("_Pair", "left right")


@dataclass(frozen=True)
class _NotOnTheWire:
    x: int


@pytest.mark.parametrize("value", _GOLDEN_VALUES, ids=lambda v: type(v).__name__)
def test_golden_vectors(value):
    assert _priced_as_encoded(value) is None


def test_one_value_of_every_registered_type():
    _for_each_registered_type(lambda instance: _priced_as_encoded(instance))


@settings(max_examples=200, deadline=None)
@given(value=_wire_values)
def test_plain_values(value):
    assert _priced_as_encoded(value) is None


@pytest.mark.parametrize(
    "value",
    [
        # str8: 255 bytes fit, 256 do not; the limit counts UTF-8 bytes
        Heartbeat("s" * 255, 1, 2),
        Heartbeat("s" * 256, 1, 2),
        Heartbeat("é" * 127, 1, 2),
        Heartbeat("é" * 128, 1, 2),
        Heartbeat("\U0001f600" * 64, 1, 2),
        # u32 at and past both ends, a bool and an IntEnum where an int is packed
        Heartbeat("s0", 0, 2**32 - 1),
        Heartbeat("s0", -1, 2),
        Heartbeat("s0", 2**32, 2),
        Heartbeat("s0", True, 2),
        Heartbeat("s0", _Level.LOW, 2),
        # a str subclass and a non-str where a str8 goes
        Heartbeat(_Name("s0"), 1, 2),
        Heartbeat(("s", 0), 1, 2),
        # tuple16: a list is no tuple, 65 535 items fit and 65 536 do not
        SequencedBatch(_VIEW, [Sequenced(_VIEW, 1, _ORDER)]),
        SequencedBatch(_VIEW, (0,) * 65_535),
        SequencedBatch(_VIEW, (0,) * 65_536),
        SequencedBatch(_VIEW, _Pair(1, 2)),
        # the envelope's addressing fields misfit, its payload does not
        WireEnvelope("s" * 300, "s1", "gcs", 1, ClientAck(_RID)),
        WireEnvelope("s0", "s1", "gcs", 2**32, Heartbeat("s" * 300, 1, 2)),
        ViewId(-5, "s0"),
        RequestId("cé", 0, 2**31),
    ],
    ids=lambda v: type(v).__name__,
)
def test_packed_layout_misfits(value):
    assert _priced_as_encoded(value) is None


@pytest.mark.parametrize(
    "number",
    [0, -1, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64, 2**200, -(2**200), 255, -256],
)
def test_big_ints_alone_in_containers_and_in_predicted_fields(number):
    for value in (number, [number], {number: number}, AttemptId(number, "s0"), _Level.LOW):
        assert _priced_as_encoded(value) is None


@pytest.mark.parametrize("text", ["", "plain", "hé", "日本", "\U0001f600", "a\x00b"])
def test_non_ascii_text(text):
    for value in (text, (text, text), {text: text}, RequestId(text, 1, 2), Install(
        AttemptId(1, text), _VIEW, (text,), {}, {text: (text,)}, {}
    )):
        assert _priced_as_encoded(value) is None


def test_sets_dicts_and_builtin_subclasses():
    for value in [
        {1, "a", (2, 3.0), None, b"x"},
        frozenset({frozenset({1}), 2.5}),
        set(),
        {"k": {1: [2, {3}]}, (1, 2): frozenset()},
        defaultdict(list, {"a": [1]}),
        OrderedDict(b=2, a=1),
        _Pair("x", 2**70),
        bytearray(b"\x00\xff"),
        [_Level.LOW, _Name("n"), True, 1.5, float("inf")],
    ]:
        assert _priced_as_encoded(value) is None


@pytest.mark.parametrize(
    "value, error",
    [
        (object(), UnknownTypeError),
        (_NotOnTheWire(1), UnknownTypeError),
        ([1, {2: _NotOnTheWire(3)}], UnknownTypeError),
        ({1, object()}, UnknownTypeError),
        (Heartbeat("s0", 1, 2, object()), UnknownTypeError),
        ("\ud800", UnicodeEncodeError),
        (Heartbeat("\ud800", 1, 2), UnicodeEncodeError),
        (RequestId("\ud800" * 300, 1, 2), UnicodeEncodeError),
    ],
    ids=lambda v: type(v).__name__,
)
def test_what_cannot_be_encoded_cannot_be_priced(value, error):
    assert isinstance(_priced_as_encoded(value), error)


def test_values_at_and_past_max_frame():
    # a frame body is the version byte plus the value; bytes carry a 5-byte tag
    fits = bytes(MAX_FRAME - 6)
    assert frame_size(fits) == len(encode_frame(fits)) == 4 + MAX_FRAME
    for value in (bytes(MAX_FRAME - 5), [bytes(MAX_FRAME // 2)] * 2, "x" * MAX_FRAME):
        assert isinstance(_priced_as_encoded(value), CodecError)


def test_the_sizer_is_compiled_beside_the_encoder():
    frame_size(Heartbeat("s0", 1, 2))
    source = generated_source(Heartbeat)
    assert "# Heartbeat: packed sizer" in source and "# Heartbeat: generic sizer" in source
