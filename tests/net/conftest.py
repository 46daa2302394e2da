"""Shared inputs for the ``repro.net`` tests."""

import pytest

from repro.net.codec import WIRE_VERSION, WireEnvelope, encode_frame


def _frame(body: bytes) -> bytes:
    body = bytes([WIRE_VERSION]) + body
    return len(body).to_bytes(4, "big") + body


@pytest.fixture
def raw_frame():
    """``raw_frame(value_bytes)``: a well-formed header around any bytes."""
    return _frame


@pytest.fixture
def hostile_frames() -> dict[str, bytes]:
    """Well-framed bytes a peer (or one flipped bit) can put on a socket
    that the decoder used to answer with something other than a
    ``CodecError`` — which ``LiveNetwork`` does not catch."""
    count = (1).to_bytes(4, "big")
    envelope = bytearray(encode_frame(WireEnvelope("s0", "s1", "k", 1, None)))
    envelope[envelope.index(b"s0")] = 0xFF
    return {
        "invalid UTF-8 in a tagged str": _frame(b"\x06" + count + b"\xff"),
        "invalid UTF-8 in the envelope's str8 sender": bytes(envelope),
        "dict keyed by a list": _frame(b"\x0a" + count + b"\x08" + bytes(4) + b"\x00"),
        "set of lists": _frame(b"\x0b" + count + b"\x08" + bytes(4)),
        "lists nested 5000 deep": _frame((b"\x08" + count) * 5000 + b"\x00"),
    }
