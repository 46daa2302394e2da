"""Self-describing binary codec for the live runtime, compiled from the
dataclasses it carries.

Frame layout::

    +----------------+----------+------------------------+
    | length (u32 BE)| version  | encoded value          |
    +----------------+----------+------------------------+

``length`` counts everything after the prefix (version byte included),
so a TCP byte stream splits into frames without decoding anything.  The
version byte guards against mixed deployments: a frame whose version
differs from :data:`WIRE_VERSION` is rejected whole.

Values are tagged recursively: primitives, containers, and *registered
dataclasses*.  A dataclass crossing the wire is declared once, where it
is defined, with ``@wire(type_id)`` from :mod:`repro.wiretypes`: the id
is explicit at the class, the same in every process, and part of the
wire contract (never reuse or renumber one).  This module imports the
vocabulary modules and registers their declarations in id order; a
duplicate id, a gap or a reused packed tag fails that import, naming the
class.  A class defined above the codec (a service builder's session
state) calls :func:`register` instead and gets the next free id.

**The compile step.**  Nothing here interprets a schema per value.  On
the first encode, size or decode of a registered class the module
generates straight-line source for it from ``dataclasses.fields(cls)``
and ``exec``-s it (as :mod:`dataclasses` does for ``__init__``): the
generic form's header is a precomputed constant, and a field annotated
``int``, ``float``, ``str`` or ``bool`` gets an inline arm for exactly
that type — a *prediction* only: any other value takes the ordinary
tagged dispatch, so every value still encodes, and to the same bytes.
The same field plan yields a *sizer* per form, which :func:`frame_size`
runs: the encoder's reads and fit checks with lengths in place of bytes.
Compilation is lazy because building every class at import costs a
short-lived process more than it saves; :func:`generated_source` shows
what was built.  (The decoders build values through the constructor that
``@wire`` compiled for the class, see :mod:`repro.wiretypes`.)

**Packed layouts.**  The hottest frame types (heartbeats, client acks,
sequenced batches, the envelope itself) declare a second, struct-packed
byte form in that same declaration — a value tag of their own and
a layout such as ``"sender:str8 incarnation:u32 config_view_id:value"``
(vocabulary: :data:`LAYOUT_KINDS`), checked against the class's fields
on the spot.  Both forms share one decoder table — :func:`decode_frame`
understands both and produces identical objects — and a packed encoder
*falls back* to the generic form for the whole value whenever a field
does not fit its layout (wrong type, out-of-range int, oversized
string).  The wire contract is therefore: for any registered value there
may be two valid byte encodings, and both decode to the same value.

Everything rejects loudly: unknown type ids and unregistered classes
raise :class:`UnknownTypeError`, short or oversized frames raise
:class:`TruncatedFrameError`, and trailing garbage, invalid UTF-8,
unhashable keys and runaway nesting are a :class:`CodecError`.  The
decoder never guesses, and nothing but a ``CodecError`` leaves it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, get_type_hints

from repro.wiretypes import DECLARED, wire

#: Version 2 added the packed tags (14..22); version 3 the SWIM gossip
#: vocabulary and its packed tags (23..27); version 4 took the abstract
#: size word out of ``OrderRequest`` and ``ClientMcast`` (both layouts);
#: version 5 added the sender's ``delivered_upto`` to the header of the
#: five liveness messages (a ``u32`` packed, the holdback's stable point).
#: A peer on another version would misread those frames, so the version
#: byte makes the incompatibility explicit instead.  Still at version 5,
#: the SWIM detector was removed with its five messages: their type ids
#: (:data:`RETIRED_TYPE_IDS`) and packed tags 23..27 are retired, and every
#: other frame kept its bytes.  Declaring the ledger's ``LedgerState`` as
#: id 42 changed no frame either: 42 is the id ``register`` already gave
#: it, and a class registered at run time (as the stack benchmark's state
#: is) still gets the first free id, now 43, the same in every process.
#: The next type that changes a frame's bytes bumps the version.
WIRE_VERSION = 5

#: Type ids of removed wire types, never handed out again (a frame that
#: carries one is refused): 37..41 were the SWIM detector's messages.
RETIRED_TYPE_IDS = range(37, 42)

#: Upper bound on one frame's body (a propagation snapshot of a pathological
#: session state should still fit; anything larger is a protocol bug).
MAX_FRAME = 8 * 1024 * 1024

_LEN = struct.Struct(">I")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_TAG_U32 = struct.Struct(">BI")  # a value tag plus its length / item count
_TAG_I64 = struct.Struct(">Bq")
_TAG_F64 = struct.Struct(">Bd")
_DATACLASS_HEADER = struct.Struct(">HB")  # type id, field count

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


class CodecError(ValueError):
    """Malformed or un-encodable wire data."""


class UnknownTypeError(CodecError):
    """An unregistered dataclass (encode) or unknown type id (decode)."""


class TruncatedFrameError(CodecError):
    """A frame shorter (or longer) than its length prefix promises."""


# ---------------------------------------------------------------------------
# value tags; 14 and up belong to the packed layouts of the wire types
# ---------------------------------------------------------------------------
_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3
_T_BIGINT = 4
_T_FLOAT = 5
_T_STR = 6
_T_BYTES = 7
_T_LIST = 8
_T_TUPLE = 9
_T_DICT = 10
_T_SET = 11
_T_FROZENSET = 12
_T_DATACLASS = 13

_Encoder = Callable[[Any, bytearray], None]
_Decoder = Callable[[bytes, int], "tuple[Any, int]"]
_GenericDecoder = Callable[[bytes, int, int], "tuple[Any, int]"]
_ShellEncoder = Callable[[Any, Any, Any, Any, bytes, bytearray], None]
_Sizer = Callable[[Any], int]


# ---------------------------------------------------------------------------
# encoding: type -> encoder tables
# ---------------------------------------------------------------------------
def _enc_none(value: Any, out: bytearray) -> None:
    out.append(_T_NONE)


def _enc_bool(value: Any, out: bytearray) -> None:
    out.append(_T_TRUE if value else _T_FALSE)


def _enc_int(value: Any, out: bytearray) -> None:
    if _INT64_MIN <= value <= _INT64_MAX:
        out += _TAG_I64.pack(_T_INT, value)
    else:
        raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
        out += _TAG_U32.pack(_T_BIGINT, len(raw))
        out += raw


def _enc_float(value: Any, out: bytearray) -> None:
    out += _TAG_F64.pack(_T_FLOAT, value)


def _enc_str(value: Any, out: bytearray) -> None:
    raw = value.encode("utf-8")
    out += _TAG_U32.pack(_T_STR, len(raw))
    out += raw


def _enc_bytes(value: Any, out: bytearray) -> None:
    out += _TAG_U32.pack(_T_BYTES, len(value))
    out += value


#: A value of a subclass encodes as the first of these it inherits from
#: (the order is part of the wire contract: an ``IntEnum`` is an int, a
#: named tuple a tuple, a ``defaultdict`` a dict).
_BUILTIN_BASES = (int, float, str, bytes, bytearray, list, tuple, dict, set, frozenset)


class _EncoderTable(dict[type, _Encoder]):
    """``table[type(value)](value, out)`` appends one tagged value.

    A miss resolves once and is remembered: a subclass of a builtin gets
    its base's encoder, a registered dataclass gets its coder compiled,
    anything else is not a wire type.  ``packed`` tables use the packed
    layouts where declared; the other one is ``encode_frame(fast=False)``.
    """

    def __init__(self, packed: bool) -> None:
        super().__init__(
            {
                type(None): _enc_none,
                bool: _enc_bool,
                int: _enc_int,
                float: _enc_float,
                str: _enc_str,
                bytes: _enc_bytes,
                bytearray: _enc_bytes,
            }
        )
        self.packed = packed

        def enc_sequence(tag: int) -> _Encoder:
            def encode(value: Any, out: bytearray) -> None:
                out += _TAG_U32.pack(tag, len(value))
                for item in value:
                    self[type(item)](item, out)

            return encode

        def enc_dict(value: Any, out: bytearray) -> None:
            # insertion order is preserved: protocol dicts are built
            # deterministically, so both ends see the same byte sequence
            out += _TAG_U32.pack(_T_DICT, len(value))
            for key, item in value.items():
                self[type(key)](key, out)
                self[type(item)](item, out)

        def enc_set(tag: int) -> _Encoder:
            def encode(value: Any, out: bytearray) -> None:
                # canonical form: members sorted by their own encoding, so two
                # equal sets encode identically regardless of iteration order
                out += _TAG_U32.pack(tag, len(value))
                encoded: list[bytes] = []
                for item in value:
                    buf = bytearray()
                    self[type(item)](item, buf)
                    encoded.append(bytes(buf))
                encoded.sort()
                out += b"".join(encoded)

            return encode

        self[list] = enc_sequence(_T_LIST)
        self[tuple] = enc_sequence(_T_TUPLE)
        self[dict] = enc_dict
        self[set] = enc_set(_T_SET)
        self[frozenset] = enc_set(_T_FROZENSET)

    def __missing__(self, cls: type) -> _Encoder:
        base = _builtin_base(cls)
        if base is not None:
            encoder = self[base]
        else:
            encoder = _compile_encoder(cls, self, packed=self.packed and cls in _LAYOUTS)
        self[cls] = encoder
        return encoder


def _builtin_base(cls: type) -> type | None:
    """The builtin whose encoding a value of ``cls`` gets, or ``None`` for a
    registered dataclass; anything else is not a wire type."""
    for base in _BUILTIN_BASES:
        if issubclass(cls, base):
            return base
    if cls not in _TYPE_IDS:
        if is_dataclass(cls):
            raise UnknownTypeError(
                f"{cls.__name__} is not registered with the codec (declare it "
                "with @wire(type_id) where it is defined, or call register(cls) "
                "from a module above the codec)"
            )
        raise UnknownTypeError(f"cannot encode {cls.__name__!r} (not a wire type)")
    return None


_ENCODE_PACKED = _EncoderTable(packed=True)
_ENCODE_GENERIC = _EncoderTable(packed=False)


# ---------------------------------------------------------------------------
# sizing: type -> sizer table, the length the packed encoder table writes
# ---------------------------------------------------------------------------
def _size_int(value: Any) -> int:
    if _INT64_MIN <= value <= _INT64_MAX:
        return 9
    return 5 + (value.bit_length() + 8) // 8


def _size_str(value: Any) -> int:
    return 5 + (len(value) if value.isascii() else len(value.encode("utf-8")))


def _size_bytes(value: Any) -> int:
    return 5 + len(value)


class _SizerTable(dict[type, _Sizer]):
    """``table[type(value)](value)`` is the length of what
    ``_ENCODE_PACKED[type(value)](value, out)`` appends, computed without
    writing it, and raising what the encoder raises.  A set's members sort
    by their bytes, which moves them but not their lengths."""

    def __init__(self) -> None:
        super().__init__(
            {
                type(None): lambda value: 1,
                bool: lambda value: 1,
                int: _size_int,
                float: lambda value: 9,
                str: _size_str,
                bytes: _size_bytes,
                bytearray: _size_bytes,
            }
        )

        def size_items(value: Any) -> int:
            size = 5
            for item in value:
                size += self[type(item)](item)
            return size

        def size_dict(value: Any) -> int:
            size = 5
            for key, item in value.items():
                size += self[type(key)](key) + self[type(item)](item)
            return size

        for container in (list, tuple, set, frozenset):
            self[container] = size_items
        self[dict] = size_dict

    def __missing__(self, cls: type) -> _Sizer:
        base = _builtin_base(cls)
        sizer = self[base] if base is not None else _compile_sizer(cls, self, cls in _LAYOUTS)
        self[cls] = sizer
        return sizer


_SIZE = _SizerTable()


# ---------------------------------------------------------------------------
# decoding: tag -> decoder table.  Reads past the end of the frame are not
# tested for one by one: indexing and struct raise, decode_frame converts;
# only slices (which would silently come back short) check their end.
# ---------------------------------------------------------------------------
def _truncated(buf: bytes, end: int) -> TruncatedFrameError:
    return TruncatedFrameError(f"frame ends at byte {len(buf)} but value needs {end}")


def _dec_int(buf: bytes, off: int) -> tuple[Any, int]:
    return _I64.unpack_from(buf, off)[0], off + 8


def _dec_float(buf: bytes, off: int) -> tuple[Any, int]:
    return _F64.unpack_from(buf, off)[0], off + 8


def _sized(buf: bytes, off: int) -> tuple[int, int]:
    """Bounds of a u32-length-prefixed byte run starting at ``off``."""
    start = off + 4
    end = start + _U32.unpack_from(buf, off)[0]
    if end > len(buf):
        raise _truncated(buf, end)
    return start, end


def _dec_bigint(buf: bytes, off: int) -> tuple[Any, int]:
    start, end = _sized(buf, off)
    return int.from_bytes(buf[start:end], "big", signed=True), end


def _dec_str(buf: bytes, off: int) -> tuple[Any, int]:
    start, end = _sized(buf, off)
    return str(buf[start:end], "utf-8"), end


def _dec_bytes(buf: bytes, off: int) -> tuple[Any, int]:
    start, end = _sized(buf, off)
    return bytes(buf[start:end]), end


def _items(buf: bytes, off: int, count: int) -> tuple[list[Any], int]:
    """``count`` tagged values; an absurd count fails at the first missing
    item, having allocated nothing beyond what the frame really holds."""
    items: list[Any] = []
    for _ in range(count):
        item, off = _DECODERS[buf[off]](buf, off + 1)
        items.append(item)
    return items, off


def _dec_list(buf: bytes, off: int) -> tuple[Any, int]:
    return _items(buf, off + 4, _U32.unpack_from(buf, off)[0])


def _dec_tuple(buf: bytes, off: int) -> tuple[Any, int]:
    items, off = _items(buf, off + 4, _U32.unpack_from(buf, off)[0])
    return tuple(items), off


def _dec_set(buf: bytes, off: int, make: type = set) -> tuple[Any, int]:
    items, off = _items(buf, off + 4, _U32.unpack_from(buf, off)[0])
    try:
        return make(items), off
    except TypeError as exc:
        raise CodecError(f"set member on the wire is {exc}") from None


def _dec_dict(buf: bytes, off: int) -> tuple[Any, int]:
    count = _U32.unpack_from(buf, off)[0]
    off += 4
    mapping: dict[Any, Any] = {}
    for _ in range(count):
        key, off = _DECODERS[buf[off]](buf, off + 1)
        item, off = _DECODERS[buf[off]](buf, off + 1)
        try:
            mapping[key] = item
        except TypeError as exc:
            raise CodecError(f"dict key on the wire is {exc}") from None
    return mapping, off


def _dec_dataclass(buf: bytes, off: int) -> tuple[Any, int]:
    type_id, count = _DATACLASS_HEADER.unpack_from(buf, off)
    if type_id >= len(_GENERIC_DECODERS):
        raise UnknownTypeError(f"unknown wire type id {type_id}")
    return _GENERIC_DECODERS[type_id](buf, off + 3, count)


def _dec_unknown(buf: bytes, off: int) -> tuple[Any, int]:
    raise CodecError(f"unknown value tag {buf[off - 1]}")


#: value tag -> decoder; register() claims the slots of the packed tags
_DECODERS: list[_Decoder] = [_dec_unknown] * 256
_DECODERS[: _T_DATACLASS + 1] = [
    lambda buf, off: (None, off),
    lambda buf, off: (True, off),
    lambda buf, off: (False, off),
    _dec_int,
    _dec_bigint,
    _dec_float,
    _dec_str,
    _dec_bytes,
    _dec_list,
    _dec_tuple,
    _dec_dict,
    _dec_set,
    lambda buf, off: _dec_set(buf, off, frozenset),
    _dec_dataclass,
]

#: generic-form decoder of each registered class, by type id
_GENERIC_DECODERS: list[_GenericDecoder] = []


# ---------------------------------------------------------------------------
# dataclass registry
# ---------------------------------------------------------------------------
_TYPE_IDS: dict[type, int] = {}
_TYPES: list[type] = []

#: The packed-layout vocabulary: what one ``field:kind`` entry puts on the wire.
LAYOUT_KINDS = {
    "str8": "u8 byte length, then that many bytes of UTF-8 (a str of at most 255 bytes)",
    "u8": "one byte (an int in 0..255)",
    "u32": "four bytes, big endian (an int in 0..2**32-1)",
    "bool8": "one byte, 0 or 1 (a bool)",
    "value": "any wire value in its ordinary tagged form",
    "tuple16": "u16 item count, then each item as a tagged value (a tuple of at most 65535)",
    "tuple16.count": "only the count of a tuple16; its tuple16.items follows later",
    "tuple16.items": "only the items of a tuple16 whose tuple16.count came earlier",
}

#: packed class -> (value tag, wire-order ``(kind, field index)`` steps with
#: every ``tuple16`` already split into its count and its items)
_LAYOUTS: dict[type, tuple[int, tuple[tuple[str, int], ...]]] = {}


def _parse_layout(cls: type, tag: int, layout: str) -> tuple[tuple[str, int], ...]:
    """Check a packed layout against ``cls`` and split it into steps."""
    name = cls.__name__
    if not _T_DATACLASS < tag < 256:
        raise CodecError(f"{name}: packed tag {tag} is outside {_T_DATACLASS + 1}..255")
    if _DECODERS[tag] is not _dec_unknown:
        raise CodecError(f"{name}: packed tag {tag} is used twice")
    index = {f.name: i for i, f in enumerate(fields(cls))}
    steps: list[tuple[str, int]] = []
    for entry in layout.split():
        field_name, _, kind = entry.partition(":")
        if field_name not in index:
            raise CodecError(f"{name}: layout names unknown field {field_name!r}")
        if kind not in LAYOUT_KINDS:
            raise CodecError(f"{name}: layout kind {kind!r} is not one of {sorted(LAYOUT_KINDS)}")
        halves = ("tuple16.count", "tuple16.items") if kind == "tuple16" else (kind,)
        steps += [(half, index[field_name]) for half in halves]
    for field_name, i in index.items():
        kinds = [kind for kind, j in steps if j == i]
        whole = len(kinds) == 1 and not kinds[0].startswith("tuple16.")
        if not whole and kinds != ["tuple16.count", "tuple16.items"]:
            raise CodecError(
                f"{name}: layout must give field {field_name!r} exactly once, found {kinds}"
            )
    return tuple(steps)


def _compile_on_first_call(table: list[Any], key: int, compile_coder: Callable[[], Any]) -> Any:
    """A placeholder for ``table[key]`` that builds the real coder when it
    is first called and puts it in its own place."""

    def placeholder(*args: Any) -> Any:
        coder = table[key] = compile_coder()
        return coder(*args)

    return placeholder


def register(cls: type, tag: int | None = None, layout: str | None = None) -> type:
    """Assign ``cls`` the next wire type id.

    The ``@wire`` declarations hold ids 0..n-1 from this module's import
    on, so a call from a module above the codec gets the first id after
    them that is not retired (:data:`RETIRED_TYPE_IDS`), the same in
    every process that makes the same calls in the same order.  ``tag``
    and ``layout`` (both or neither) declare a packed byte form under a
    value tag of its own: ``layout`` lists every field once, in wire
    order, as ``field:kind`` with the kinds of :data:`LAYOUT_KINDS`.
    Coders are compiled when first used.
    """
    if not is_dataclass(cls):
        raise CodecError(f"{cls.__name__} is not a dataclass")
    if cls in _TYPE_IDS:
        raise CodecError(f"{cls.__name__} is registered twice")
    if (tag is None) != (layout is None):
        raise CodecError(f"{cls.__name__}: a packed form needs both a tag and a layout")
    if tag is not None and layout is not None:
        _LAYOUTS[cls] = (tag, _parse_layout(cls, tag, layout))
        _DECODERS[tag] = _compile_on_first_call(
            _DECODERS, tag, lambda: _compile_decoder(cls, packed=True)
        )
    type_id = _TYPE_IDS[cls] = _next_type_id()
    _TYPES.append(cls)
    _GENERIC_DECODERS.append(
        _compile_on_first_call(
            _GENERIC_DECODERS, type_id, lambda: _compile_decoder(cls, packed=False)
        )
    )
    return cls


def _next_type_id() -> int:
    """The lowest type id neither registered nor retired; a retired id on
    the way gets a decoder that refuses it."""
    while len(_GENERIC_DECODERS) in RETIRED_TYPE_IDS:
        _GENERIC_DECODERS.append(_dec_retired)
    return len(_GENERIC_DECODERS)


def _dec_retired(buf: bytes, off: int, count: int) -> tuple[Any, int]:
    type_id = _DATACLASS_HEADER.unpack_from(buf, off - 3)[0]
    raise UnknownTypeError(f"retired wire type id {type_id}")


def registered_types() -> tuple[type, ...]:
    """Every registered dataclass, in wire-id order."""
    return tuple(_TYPES)


def fast_path_types() -> tuple[type, ...]:
    """Every dataclass with a packed layout."""
    return tuple(_LAYOUTS)


# ---------------------------------------------------------------------------
# the compiler: source for one class's coders, built on first use
# ---------------------------------------------------------------------------
#: name -> generated source of every coder compiled so far in this process
_SOURCES: dict[str, str] = {}


def generated_source(cls: type) -> str:
    """The source compiled for ``cls`` so far (empty before its first use)."""
    prefix = cls.__name__ + ": "
    return "\n\n".join(
        f"# {name}\n{source}" for name, source in _SOURCES.items() if name.startswith(prefix)
    )


def _build(name: str, args: str, body: list[str], **constants: Any) -> Any:
    """Compile ``def coder(args): body`` the way :mod:`dataclasses` builds
    ``__init__``: the source sees this module's globals, and ``constants``
    reach it as the closure variables of a factory function."""
    source = _SOURCES[name] = "\n".join([f"def coder({args}):", *body])
    factory = [f"def make({', '.join(constants)}):", *(" " + line for line in source.split("\n"))]
    scope: dict[str, Any] = {}
    code = "\n".join([*factory, " return coder"])
    exec(compile(code, f"<repro.net.codec {name}>", "exec"), globals(), scope)
    return scope["make"](**constants)


def _predictions(cls: type) -> list[Any]:
    """Per field: the annotation if it is a type with an inline arm, else
    ``None``.  A class whose annotations cannot be evaluated loses the
    arms, nothing else (the dispatch they fall back on writes the same
    bytes)."""
    try:
        hints = get_type_hints(cls)
    except Exception:  # arbitrary annotation strings can raise anything
        hints = {}
    annotations = [hints.get(f.name) for f in fields(cls)]
    return [a if isinstance(a, type) and a in _ENCODE_ARMS else None for a in annotations]


#: predicted type -> (test on {x}, statement writing {x} tagged)
_ENCODE_ARMS: dict[Any, tuple[str, str]] = {
    int: (
        f"type({{x}}) is int and {_INT64_MIN} <= {{x}} <= {_INT64_MAX}",
        f"out += _TAG_I64.pack({_T_INT}, {{x}})",
    ),
    float: ("type({x}) is float", f"out += _TAG_F64.pack({_T_FLOAT}, {{x}})"),
    bool: ("type({x}) is bool", f"out.append({_T_TRUE} if {{x}} else {_T_FALSE})"),
    str: (
        "type({x}) is str",
        f"raw = {{x}}.encode('utf-8'); out += _TAG_U32.pack({_T_STR}, len(raw)); out += raw",
    ),
}

#: predicted type -> (test on the tag byte, statements reading {x} and advancing off)
_DECODE_ARMS: dict[Any, tuple[str, list[str]]] = {
    int: (f"tag == {_T_INT}", ["{x} = _I64.unpack_from(buf, off + 1)[0]", "off += 9"]),
    float: (f"tag == {_T_FLOAT}", ["{x} = _F64.unpack_from(buf, off + 1)[0]", "off += 9"]),
    bool: (f"tag == {_T_TRUE} or tag == {_T_FALSE}", [f"{{x}} = tag == {_T_TRUE}", "off += 1"]),
    str: (
        f"tag == {_T_STR}",
        [
            "end = off + 5 + _U32.unpack_from(buf, off + 1)[0]",
            "if end > len(buf): raise _truncated(buf, end)",
            "{x} = str(buf[off + 5:end], 'utf-8')",
            "off = end",
        ],
    ),
}


def _encode_value(x: str, prediction: Any = None) -> list[str]:
    """Lines that append local ``x`` as a tagged value."""
    dispatch = f"_enc[type({x})]({x}, out)"
    arm = _ENCODE_ARMS.get(prediction)
    if arm is None:
        return [f"    {dispatch}"]
    test, write = (part.format(x=x) for part in arm)
    return [f"    if {test}:", f"        {write}", "    else:", f"        {dispatch}"]


def _decode_value(x: str, prediction: Any = None) -> list[str]:
    """Lines that read the tagged value at ``off`` into local ``x``."""
    arm = _DECODE_ARMS.get(prediction)
    if arm is None:
        return [f"    {x}, off = _DECODERS[buf[off]](buf, off + 1)"]
    test, read = arm
    return [
        "    tag = buf[off]",
        f"    if {test}:",
        *(f"        {line.format(x=x)}" for line in read),
        "    else:",
        f"        {x}, off = _DECODERS[tag](buf, off + 1)",
    ]


def _field_count(cls: type, count: int) -> CodecError:
    return CodecError(
        f"{cls.__name__} arrived with {count} fields, "
        f"expected {len(fields(cls))} (incompatible peer build)"
    )


#: fixed-width layout kind -> (struct format, check on field {x}, value packed)
_FIXED_KINDS = {
    "str8": ("B", "type({x}) is str", "len(r{x})"),
    "u8": ("B", "type({x}) is int and 0 <= {x} <= 255", "{x}"),
    "u32": ("I", "type({x}) is int and 0 <= {x} <= 4294967295", "{x}"),
    "bool8": ("B", "type({x}) is bool", "{x}"),
    "tuple16.count": ("H", "type({x}) is tuple and len({x}) <= 65535", "len({x})"),
}


def _steps(cls: type, packed: bool) -> tuple[tuple[str, int], ...]:
    """The generic form is the layout in which every field is a ``value``
    (behind a constant header where a packed form has its tag byte)."""
    return _LAYOUTS[cls][1] if packed else tuple(("value", i) for i in range(len(fields(cls))))


def _compile_encoder(cls: type, table: _EncoderTable, packed: bool, spliced: bool = False) -> Any:
    """One encoder of ``cls``, reading fields ``f0..fn`` off ``value`` — or,
    for a *shell* (``spliced``: the envelope splice), taking them as
    arguments, the last one being bytes that are already encoded.

    A packed encoder makes every check first, so nothing is written before
    the value is known to fit; a misfit hands the whole value to the generic
    encoder.  Runs of fixed-width steps (the tag byte, string lengths and
    tuple counts included) go out through one ``struct.Struct`` each."""
    predictions, steps = _predictions(cls), _steps(cls, packed)
    locals_ = [f"f{i}" for i in range(len(predictions))]
    args = ", ".join([*locals_, "out"]) if spliced else "value, out"
    body: list[str] = []
    if not spliced:
        body += [f"    {x} = value.{f.name}" for x, f in zip(locals_, fields(cls))]
    constants: dict[str, Any] = {"_enc": table}
    run: list[tuple[str, str]] = []  # (struct format, expression) of the run being gathered
    if packed:
        run.append(("B", str(_LAYOUTS[cls][0])))
        constants["_generic"] = _compile_encoder(cls, table, False, spliced)
        fixed = [(kind, locals_[i]) for kind, i in steps if kind in _FIXED_KINDS]
        strings = [x for kind, x in fixed if kind == "str8"]
        if fixed:
            checks = " and ".join(_FIXED_KINDS[kind][1].format(x=x) for kind, x in fixed)
            body.append(f"    if not ({checks}): return _generic({args})")
        if strings:
            body += [f"    r{x} = {x}.encode('utf-8')" for x in strings]
            misfit = " or ".join(f"len(r{x}) > 255" for x in strings)
            body.append(f"    if {misfit}: return _generic({args})")
    else:
        type_id = _DATACLASS_HEADER.pack(_TYPE_IDS[cls], len(locals_))
        constants["_header"] = bytes([_T_DATACLASS]) + type_id
        body.append("    out += _header")

    def flush() -> None:
        if len(run) == 1 and run[0][0] == "B":
            body.append(f"    out.append({run[0][1]})")
        elif run:
            packer = f"_s{len(constants)}"
            constants[packer] = struct.Struct(">" + "".join(fmt for fmt, _ in run))
            body.append(f"    out += {packer}.pack({', '.join(arg for _, arg in run)})")
        run.clear()

    for kind, i in steps:
        x = locals_[i]
        if kind in _FIXED_KINDS:
            run.append((_FIXED_KINDS[kind][0], _FIXED_KINDS[kind][2].format(x=x)))
            if kind != "str8":
                continue
        flush()
        if kind == "str8":
            body.append(f"    out += r{x}")
        elif kind == "tuple16.items":
            body.append(f"    for item in {x}: _enc[type(item)](item, out)")
        elif spliced and x == locals_[-1]:
            body.append(f"    out += {x}")
        else:
            body += _encode_value(x, predictions[i])
    flush()
    form = ("packed " if packed else "generic ") + ("shell" if spliced else "encoder")
    name = f"{cls.__name__}: {form}" + ("" if table.packed else ", fast=False")
    return _build(name, args, body, **constants)


#: predicted type -> (test on {x}, its size when the test holds)
_SIZE_ARMS: dict[Any, tuple[str, str]] = {
    int: (f"type({{x}}) is int and {_INT64_MIN} <= {{x}} <= {_INT64_MAX}", "9"),
    float: ("type({x}) is float", "9"),
    bool: ("type({x}) is bool", "1"),
    str: ("type({x}) is str and {x}.isascii()", "5 + len({x})"),
}


def _compile_sizer(cls: type, table: _SizerTable, packed: bool) -> Any:
    """The length the encoder of the same form writes: the same reads, the
    same fit checks in the same order (so a misfit falls back to the generic
    sizer exactly where the encoder falls back), and a constant for the tag,
    header and fixed-width steps; only strings, ``value`` fields and tuple
    items are measured."""
    predictions, steps = _predictions(cls), _steps(cls, packed)
    locals_ = [f"f{i}" for i in range(len(predictions))]
    body = [f"    {x} = value.{f.name}" for x, f in zip(locals_, fields(cls))]
    constants: dict[str, Any] = {"_size": table}
    terms = [str(1 + _DATACLASS_HEADER.size)]  # the generic form's tag and header
    if packed:
        constants["_generic"] = _compile_sizer(cls, table, False)
        fixed = [(kind, locals_[i]) for kind, i in steps if kind in _FIXED_KINDS]
        strings = [x for kind, x in fixed if kind == "str8"]
        if fixed:
            checks = " and ".join(_FIXED_KINDS[kind][1].format(x=x) for kind, x in fixed)
            body.append(f"    if not ({checks}): return _generic(value)")
        if strings:
            body += [
                f"    r{x} = len({x}) if {x}.isascii() else len({x}.encode('utf-8'))"
                for x in strings
            ]
            misfit = " or ".join(f"r{x} > 255" for x in strings)
            body.append(f"    if {misfit}: return _generic(value)")
        width = struct.calcsize(">B" + "".join(_FIXED_KINDS[kind][0] for kind, _ in fixed))
        terms = [str(width), *(f"r{x}" for x in strings)]
    body.append(f"    size = {' + '.join(terms)}")
    for kind, i in steps:
        x = locals_[i]
        if kind == "tuple16.items":
            body.append(f"    for item in {x}: size += _size[type(item)](item)")
        elif kind == "value":
            arm = _SIZE_ARMS.get(predictions[i])
            dispatch = f"_size[type({x})]({x})"
            if arm is None:
                body.append(f"    size += {dispatch}")
            else:
                test, size = (part.format(x=x) for part in arm)
                body.append(f"    size += {size} if {test} else {dispatch}")
    body.append("    return size")
    form = "packed" if packed else "generic"
    return _build(f"{cls.__name__}: {form} sizer", "value", body, **constants)


def _compile_decoder(cls: type, packed: bool) -> Any:
    """The mirror image: one ``unpack_from`` per fixed-width run; a string's
    length byte and a tuple's count land in ``n<field>`` until they are used.
    A generic decoder is handed the field count that arrived, to check."""
    predictions = _predictions(cls)
    locals_ = [f"f{i}" for i in range(len(predictions))]
    constants: dict[str, Any] = {"cls": cls}
    args = "buf, off" if packed else "buf, off, count"
    body: list[str] = []
    if not packed:
        body.append(f"    if count != {len(locals_)}: raise _field_count(cls, count)")
    run: list[tuple[str, str]] = []  # (struct format, local it lands in)
    booleans: list[str] = []

    def flush() -> None:
        if len(run) == 1 and run[0][0] == "B":
            body.extend([f"    {run[0][1]} = buf[off]", "    off += 1"])
        elif run:
            unpacker = f"_s{len(constants)}"
            constants[unpacker] = packed_run = struct.Struct(">" + "".join(fmt for fmt, _ in run))
            targets = ", ".join(local for _, local in run)
            body.append(f"    {targets}, = {unpacker}.unpack_from(buf, off)")
            body.append(f"    off += {packed_run.size}")
        body.extend(f"    {x} = {x} != 0" for x in booleans)
        run.clear()
        booleans.clear()

    for kind, i in _steps(cls, packed):
        x = locals_[i]
        if kind in _FIXED_KINDS:
            local = "n" + x if kind in ("str8", "tuple16.count") else x
            run.append((_FIXED_KINDS[kind][0], local))
            if kind == "bool8":
                booleans.append(x)
            if kind != "str8":
                continue
        flush()
        if kind == "str8":
            body += [
                f"    end = off + n{x}",
                "    if end > len(buf): raise _truncated(buf, end)",
                f"    {x} = str(buf[off:end], 'utf-8')",
                "    off = end",
            ]
        elif kind == "tuple16.items":
            body += [f"    {x}, off = _items(buf, off, n{x})", f"    {x} = tuple({x})"]
        else:
            body += _decode_value(x, predictions[i])
    flush()
    body.append(f"    return cls({', '.join(locals_)}), off")
    form = "packed" if packed else "generic"
    return _build(f"{cls.__name__}: {form} decoder", args, body, **constants)


# ---------------------------------------------------------------------------
# the envelope the live network ships (also just a declared wire type)
# ---------------------------------------------------------------------------
@wire(0, 14, "sender:str8 receiver:str8 kind:str8 size:u32 payload:value")
@dataclass(frozen=True, slots=True)
class WireEnvelope:
    """One transported message: addressing metadata plus the payload."""

    sender: Any
    receiver: Any
    kind: str
    size: int
    payload: Any


#: the envelope's encoder with ``payload`` taken as already-encoded bytes
_ENVELOPE_SHELL: list[_ShellEncoder] = []
_ENVELOPE_SHELL.append(
    _compile_on_first_call(
        _ENVELOPE_SHELL,
        0,
        lambda: _compile_encoder(WireEnvelope, _ENCODE_PACKED, packed=True, spliced=True),
    )
)


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------
def _frame(body: bytearray) -> bytes:
    if len(body) > MAX_FRAME:
        raise CodecError(f"frame body of {len(body)} bytes exceeds {MAX_FRAME}")
    return _LEN.pack(len(body)) + body


def encode_frame(value: Any, *, fast: bool = True) -> bytes:
    """One complete frame (length prefix + version byte + value).

    ``fast=False`` forces the generic self-describing form even for types
    with a packed layout (tests use it to pin the two-form wire contract;
    production callers never need it).
    """
    body = bytearray((WIRE_VERSION,))
    (_ENCODE_PACKED if fast else _ENCODE_GENERIC)[type(value)](value, body)
    return _frame(body)


def encode_payload(value: Any, *, fast: bool = True) -> bytes:
    """The bare value encoding (no length prefix, no version byte).

    The splice unit for :func:`encode_envelope_frame`: a rebroadcast
    payload is encoded once and wrapped in one envelope per receiver.
    """
    body = bytearray()
    (_ENCODE_PACKED if fast else _ENCODE_GENERIC)[type(value)](value, body)
    return bytes(body)


def encode_envelope_frame(
    sender: Any, receiver: Any, kind: str, size: int, payload_bytes: bytes
) -> bytes:
    """One complete envelope frame around a pre-encoded payload.

    Byte-identical to ``encode_frame(WireEnvelope(...))`` for the same
    field values — the packed envelope shell when the addressing fields
    fit its layout, the generic dataclass shell otherwise — without
    re-encoding the payload.
    """
    body = bytearray((WIRE_VERSION,))
    _ENVELOPE_SHELL[0](sender, receiver, kind, size, payload_bytes, body)
    return _frame(body)


def frame_size(value: Any) -> int:
    """Wire cost of ``value`` in bytes, ``len(encode_frame(value))`` exactly
    and raising what it raises, computed from the compiled field plan
    without writing a byte (the byte accounting of both runtimes:
    ``Propagate.wire_size``)."""
    body = 1 + _SIZE[type(value)](value)
    if body > MAX_FRAME:
        raise CodecError(f"frame body of {body} bytes exceeds {MAX_FRAME}")
    return _LEN.size + body


def decode_frame(frame: bytes) -> Any:
    """Decode exactly one frame; rejects truncation, padding, version skew.

    One decoder for both forms: generic self-describing values and packed
    layouts land here and produce identical objects.  Whatever the bytes,
    the only exception that leaves is a :class:`CodecError`.
    """
    if len(frame) < 5:
        raise TruncatedFrameError(f"frame of {len(frame)} bytes has no header")
    (length,) = _LEN.unpack_from(frame, 0)
    if length > MAX_FRAME:
        raise CodecError(f"frame length {length} exceeds {MAX_FRAME}")
    if len(frame) != 4 + length:
        raise TruncatedFrameError(
            f"frame promises {length} body bytes but carries {len(frame) - 4}"
        )
    if frame[4] != WIRE_VERSION:
        raise CodecError(
            f"wire version {frame[4]} != {WIRE_VERSION} (incompatible peer)"
        )
    try:
        value, end = _DECODERS[frame[5]](frame, 6)
    except (IndexError, struct.error):
        raise TruncatedFrameError(
            f"frame ends at byte {len(frame)} inside a value"
        ) from None
    except UnicodeDecodeError as exc:
        raise CodecError(f"string on the wire is not UTF-8: {exc}") from None
    except RecursionError:
        raise CodecError("value nesting is deeper than the decoder follows") from None
    if end != len(frame):
        raise CodecError(f"{len(frame) - end} trailing bytes inside frame")
    return value


def split_frames(buffer: bytearray) -> list[bytes]:
    """Split complete frames off the front of a TCP reassembly buffer.

    ``buffer`` is consumed in place; a trailing partial frame stays for
    the next read.  Raises :class:`CodecError` on an insane length prefix
    (the caller should drop the connection — the stream is unframeable).
    """
    frames: list[bytes] = []
    while len(buffer) >= 4:
        (length,) = _LEN.unpack_from(buffer, 0)
        if length > MAX_FRAME:
            raise CodecError(f"frame length {length} exceeds {MAX_FRAME}")
        if len(buffer) < 4 + length:
            break
        frames.append(bytes(buffer[: 4 + length]))
        del buffer[: 4 + length]
    return frames


class FrameDecoder:
    """Incremental decoder: feed stream chunks, get decoded values."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[Any]:
        self._buffer.extend(data)
        return [decode_frame(frame) for frame in split_frames(self._buffer)]

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


# ---------------------------------------------------------------------------
# the declared vocabulary: these imports run every @wire, registered below
# ---------------------------------------------------------------------------
import repro.core.wire  # noqa: E402,F401
import repro.gcs.messages  # noqa: E402,F401
import repro.services  # noqa: E402,F401


def _register_declared() -> None:
    """Register the ``@wire`` declarations in id order: 0, 1, 2, ...
    (past the retired ids)."""
    for cls, type_id, tag, layout in sorted(DECLARED, key=lambda declared: declared[1]):
        expected = _next_type_id()
        if type_id != expected:
            owners = {i: c.__name__ for c, i in _TYPE_IDS.items()}
            if type_id > expected:
                problem = "leaves a gap"
            elif type_id in owners:
                problem = f"is also declared by {owners[type_id]}"
            else:
                problem = "is retired"
            raise CodecError(f"{cls.__name__}: wire type id {type_id} {problem}")
        register(cls, tag, layout)
    _next_type_id()  # and refuse the retired ids after the last declaration


_register_declared()


__all__ = [
    "LAYOUT_KINDS",
    "MAX_FRAME",
    "RETIRED_TYPE_IDS",
    "WIRE_VERSION",
    "CodecError",
    "FrameDecoder",
    "TruncatedFrameError",
    "UnknownTypeError",
    "WireEnvelope",
    "decode_frame",
    "encode_envelope_frame",
    "encode_frame",
    "encode_payload",
    "fast_path_types",
    "frame_size",
    "generated_source",
    "register",
    "registered_types",
    "split_frames",
]
