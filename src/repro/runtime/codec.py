"""One binary codec for every message that leaves a process.

The live transport (:mod:`repro.net.transport`) and the file-backed storage
(:mod:`repro.storage.durable`) serialise through this module and nothing
else: each message type has exactly one encoding, and the record a replica
appends to its WAL is encoded exactly as it would be for a socket — the
log-entry format *is* the wire format.  The simulator never encodes: it
passes objects by reference and charges their modelled ``wire_size``, so
nothing here runs on its hot path.

**Schemas live next to the messages.**  This module holds the mechanism —
field kinds, the registry and the TCP frame header.  Each message module
registers its own types below their definitions, the way
:func:`~repro.runtime.wire.register_batchable` works::

    register(Prepare, 0x21, view=INT, sn=INT, digest=BYTES)

Keyword order is field order on the wire, and the names must be exactly the
dataclass's fields: a field added to a message without a schema change fails
at import, not on the wire.  Tags are one byte, written in the source (never
assigned by import order, which differs between processes); each package
takes its own block — ``0x01`` runtime, ``0x10`` core types, ``0x18`` core
messages, ``0x20`` PBFT, ``0x30`` HotStuff and threshold signatures,
``0x40`` Raft, ``0x50`` checkpoints and state transfer, ``0x60`` the KV
application (its result message, then its operations: a KV request payload
is a body of this codec too), ``0x70`` storage.

**Body layout.**  ``version (1 B) | tag (1 B) | fields``.  An ``INT`` is 8
bytes big-endian signed, a ``BOOL`` one byte, ``BYTES``/``STR`` (UTF-8) a
4-byte length then the data, an :func:`optional` a 0/1 flag byte then the
value, a :func:`tuple_of`/:func:`frozenset_of` a 4-byte count then the items
(a frozenset in sorted order), a :func:`fixed_tuple` its items in order, a
:func:`nested` registered type its fields (no tag: the schema fixes the
type), and :data:`ANY`/:func:`one_of` a tag byte then the fields.
Singletons (:func:`register_singleton`, e.g. ``NIL``) are a bare tag.

**Decoding trusts nothing derived.**  Objects are built with
``cls.__new__`` plus a ``__dict__`` fill, never through the frozen
``__init__``.  A class that derives cached values in ``__post_init__``
(:class:`~repro.core.types.RequestId`'s hash and bucket mix) names the
helper that ``__post_init__`` calls, and the decoder recomputes them with it
from the received fields; lazily cached digests are simply absent, so the
receiver computes them from the contents it received.  Every malformed
input — truncation, a length or count past the end, an unknown tag or
version, trailing bytes, invalid UTF-8 — raises :class:`CodecError` and
nothing else.

**Generated code.**  For each registered type the registry compiles one
straight-line encoder and one decoder, as :mod:`dataclasses` generates
``__init__`` (on the type's first use, so registering costs an import
nothing); runs of fixed-width fields (and the length prefix that follows
them) go through a single :class:`struct.Struct`, and nested types are
expanded inline.  A per-field
interpreter loop would pay a Python call per field, which on a live replica
is most of the serialisation budget.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Callable, Dict, List, Optional, Tuple

#: First byte of every encoded body; bumped whenever any encoding changes.
CODEC_VERSION = 1

#: TCP frame header: body length, source endpoint, destination endpoint.
FRAME_HEADER = struct.Struct(">III")


class CodecError(ValueError):
    """Bytes that are not one well-formed body, or an object with no schema."""


class Kind:
    """One field kind of a schema: a name plus its element kinds or classes.

    Schemas are plain data so tests can build inputs from them.
    """

    __slots__ = ("name", "args")

    def __init__(self, name: str, *args) -> None:
        self.name = name
        self.args = args


INT = Kind("int")
BOOL = Kind("bool")
BYTES = Kind("bytes")
STR = Kind("str")
#: Any registered type, written with its tag.
ANY = Kind("any")


def optional(kind: Kind) -> Kind:
    """``None`` or a value of ``kind``."""
    return Kind("optional", kind)


def tuple_of(kind: Kind) -> Kind:
    """A tuple of any length whose items are all of ``kind``."""
    return Kind("tuple_of", kind)


def frozenset_of(kind: Kind) -> Kind:
    """A frozenset of ``kind`` (encoded sorted, so the bytes are canonical)."""
    return Kind("frozenset_of", kind)


def fixed_tuple(*kinds: Kind) -> Kind:
    """A tuple of exactly ``len(kinds)`` items, item ``i`` of ``kinds[i]``."""
    return Kind("fixed_tuple", *kinds)


def nested(cls: type) -> Kind:
    """A value of the registered type ``cls`` (exactly that type, untagged)."""
    _entry(cls)
    return Kind("nested", cls)


def one_of(*classes: type) -> Kind:
    """A value of one of the registered types ``classes``, written tagged."""
    for cls in classes:
        _entry(cls)
    return Kind("one_of", *classes)


class _Entry:
    """The registry's record of one type."""

    __slots__ = ("cls", "tag", "schema", "derive", "instance", "encode", "decode", "source")

    def __init__(self, cls, tag, schema, derive=None, instance=None) -> None:
        self.cls = cls
        self.tag = tag
        self.schema = schema
        #: ``(attribute names, function)`` recomputing cached attributes.
        self.derive = derive
        #: The one instance of a singleton type, else ``None``.
        self.instance = instance
        #: Compiled on first use (a process encodes a handful of the
        #: registered types, and the simulator none): until then these are
        #: stubs that compile, install the real functions and call them.
        self.encode = self._compile_then_encode
        self.decode = self._compile_then_decode
        #: The generated source, once compiled.
        self.source: Optional[str] = None

    def compile(self) -> None:
        """Generate this type's encoder and decoder and install them."""
        if self.source is None:
            self.encode, self.decode, self.source = _compile(self)
            _DECODERS[self.tag] = self.decode
            _ENCODERS[self.cls] = (self.tag, self.encode)

    def _compile_then_encode(self, value, out) -> None:
        self.compile()
        self.encode(value, out)

    def _compile_then_decode(self, buf, pos, end):
        self.compile()
        return self.decode(buf, pos, end)


_BY_TYPE: Dict[type, _Entry] = {}
#: Decoder per tag (``None``: unknown tag); indexed by the tag byte itself.
_DECODERS: List[Optional[Callable]] = [None] * 256
#: ``type -> (tag, encoder)`` for the tagged (``ANY``/``one_of``) path.
_ENCODERS: Dict[type, Tuple[int, Callable]] = {}


def _entry(cls: type) -> _Entry:
    entry = _BY_TYPE.get(cls)
    if entry is None:
        raise CodecError(f"{cls.__name__} has no codec schema")
    return entry


def _install(cls: type, tag: int, schema, derive=None, instance=None) -> None:
    if not 0 <= tag <= 255:
        raise ValueError(f"tag {tag:#x} of {cls.__name__} is not one byte")
    if cls in _BY_TYPE:
        raise ValueError(f"{cls.__name__} is already registered")
    if _DECODERS[tag] is not None:
        taken = next(e.cls.__name__ for e in _BY_TYPE.values() if e.tag == tag)
        raise ValueError(f"tag {tag:#x} of {cls.__name__} is taken by {taken}")
    entry = _Entry(cls, tag, schema, derive, instance)
    _BY_TYPE[cls] = entry
    _DECODERS[tag] = entry.decode
    _ENCODERS[cls] = (tag, entry.encode)


def register(
    cls: type,
    tag: int,
    *,
    derive: Optional[Tuple[Tuple[str, ...], Callable]] = None,
    **schema: Kind,
) -> type:
    """Give the dataclass ``cls`` its encoding under the one-byte ``tag``.

    ``schema`` maps every field of ``cls``, in wire order, to its kind.  The
    decoder never runs ``__post_init__``: a class that caches derived values
    there passes ``derive=(names, fn)``, and a decoded object gets attributes
    ``names`` set to ``fn(*field values in schema order)`` — the helper its
    ``__post_init__`` calls.  Returns ``cls``.
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls.__name__} is not a dataclass")
    names = sorted(field.name for field in dataclasses.fields(cls))
    if names != sorted(schema):
        raise ValueError(
            f"schema of {cls.__name__} names {sorted(schema)}, its fields are {names}"
        )
    if hasattr(cls, "__post_init__") and derive is None:
        raise ValueError(f"{cls.__name__} has a __post_init__ but no derive")
    _install(cls, tag, tuple(schema.items()), derive)
    return cls


def register_singleton(instance: object, tag: int) -> None:
    """Encode the only instance of its class as its bare tag (e.g. ``NIL``)."""
    _install(type(instance), tag, (), instance=instance)


def registered_types() -> List[type]:
    """Every registered type, in registration order."""
    return list(_BY_TYPE)


def schema(cls: type) -> Tuple[Tuple[str, Kind], ...]:
    """``(field name, kind)`` pairs of a registered type, in wire order."""
    return _entry(cls).schema


# ------------------------------------------------------------------ encode
def encode(message: object) -> bytes:
    """The body of ``message``: version byte, tag, fields."""
    out = bytearray()
    encode_into(out, message)
    return bytes(out)


def encode_into(out: bytearray, message: object) -> None:
    """Append the body of ``message`` to ``out`` (frame encoders reserve their
    header in front of it)."""
    out.append(CODEC_VERSION)
    try:
        _encode_any(message, out)
    except CodecError:
        raise
    except (struct.error, TypeError, ValueError, AttributeError) as error:
        raise CodecError(f"cannot encode {type(message).__name__}: {error}") from error


def _encode_any(value: object, out: bytearray) -> None:
    found = _ENCODERS.get(value.__class__)
    if found is None:
        raise CodecError(f"{type(value).__name__} has no codec schema")
    tag, encoder = found
    out.append(tag)
    encoder(value, out)


# ------------------------------------------------------------------ decode
def decode(buf: bytes, pos: int = 0, end: Optional[int] = None) -> object:
    """Decode the one body occupying ``buf[pos:end]`` (``end`` defaults to
    the end of ``buf``); anything malformed raises :class:`CodecError`."""
    if type(buf) is not bytes:
        buf = bytes(buf)
    if end is None:
        end = len(buf)
    if not 0 <= pos < end <= len(buf):
        raise CodecError(f"no body in [{pos}, {end}) of {len(buf)} bytes")
    if buf[pos] != CODEC_VERSION:
        raise CodecError(f"unknown codec version {buf[pos]}")
    try:
        value, pos = _decode_any(buf, pos + 1, end)
    except (struct.error, IndexError, UnicodeDecodeError, RecursionError) as error:
        raise CodecError(f"malformed body: {error}") from error
    if pos != end:
        if pos > end:
            raise CodecError(f"body truncated: {pos - end} bytes missing")
        raise CodecError(f"{end - pos} trailing bytes after the body")
    return value


def _decode_any(buf: bytes, pos: int, end: int):
    decoder = _DECODERS[buf[pos]]
    if decoder is None:
        raise CodecError(f"unknown type tag {buf[pos]:#x}")
    return decoder(buf, pos + 1, end)


# ------------------------------------------------------------- code generation
class _Writer:
    """Accumulates the body of one generated function.

    Consecutive fixed-width items are held back (``_fmt``/``_items``) and
    emitted as one ``struct`` call when anything else follows.  Nested
    registered types are expanded inline, so a request id inside a request
    inside a batch costs no extra call.
    """

    def __init__(self, namespace: Dict[str, object]) -> None:
        self.namespace = namespace
        self.lines: List[str] = []
        self._fmt = ""
        self._items: List[str] = []
        self._locals = 0

    def fresh(self, prefix: str) -> str:
        self._locals += 1
        return f"_{prefix}{self._locals}"

    def constant(self, prefix: str, value: object) -> str:
        name = f"_{prefix}{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def fixed(self, code: str, item: str) -> None:
        self._fmt += code
        self._items.append(item)


class _EncodeWriter(_Writer):
    def flush(self, depth: int) -> None:
        if self._fmt:
            packer = self.constant("S", struct.Struct(">" + self._fmt))
            self.emit(depth, f"out += {packer}.pack({', '.join(self._items)})")
            self._fmt, self._items = "", []

    def fields(self, entry: _Entry, expr: str, depth: int) -> None:
        for name, kind in entry.schema:
            self.field(kind, f"{expr}.{name}", depth)

    def field(self, kind: Kind, expr: str, depth: int) -> None:
        name = kind.name
        if name == "int":
            self.fixed("q", expr)
        elif name == "bool":
            self.fixed("?", expr)
        elif name in ("bytes", "str"):
            value = self.fresh("v")
            self.emit(depth, f"{value} = {expr}" + (".encode()" if name == "str" else ""))
            self.fixed("I", f"len({value})")
            self.flush(depth)
            self.emit(depth, f"out += {value}")
        elif name == "optional":
            value = self.fresh("v")
            self.emit(depth, f"{value} = {expr}")
            self.flush(depth)
            self.emit(depth, f"if {value} is None:")
            self.emit(depth + 1, "out.append(0)")
            self.emit(depth, "else:")
            self.emit(depth + 1, "out.append(1)")
            self.field(kind.args[0], value, depth + 1)
            self.flush(depth + 1)
        elif name in ("tuple_of", "frozenset_of"):
            items, item = self.fresh("v"), self.fresh("x")
            source = f"sorted({expr})" if name == "frozenset_of" else expr
            self.emit(depth, f"{items} = {source}")
            self.fixed("I", f"len({items})")
            self.flush(depth)
            self.emit(depth, f"for {item} in {items}:")
            self.field(kind.args[0], item, depth + 1)
            self.flush(depth + 1)
        elif name == "fixed_tuple":
            items = [self.fresh("x") for _ in kind.args]
            self.emit(depth, f"{', '.join(items)}, = {expr}")
            for item_kind, item in zip(kind.args, items):
                self.field(item_kind, item, depth)
        elif name == "nested":
            value = self.fresh("v")
            self.emit(depth, f"{value} = {expr}")
            self.fields(_entry(kind.args[0]), value, depth)
        else:  # any, one_of
            self.flush(depth)
            self.emit(depth, f"_encode_any({expr}, out)")


class _DecodeWriter(_Writer):
    def flush(self, depth: int) -> None:
        if self._fmt:
            unpacker = struct.Struct(">" + self._fmt)
            name = self.constant("S", unpacker)
            self.emit(depth, f"{', '.join(self._items)}, = {name}.unpack_from(buf, pos)")
            self.emit(depth, f"pos += {unpacker.size}")
            self._fmt, self._items = "", []

    def construct(self, entry: _Entry, target: str, depth: int) -> None:
        """Decode ``entry``'s fields and build the object into ``target``."""
        if entry.instance is not None:
            self.emit(depth, f"{target} = {self.constant('one', entry.instance)}")
            return
        values = {}
        for name, kind in entry.schema:
            values[name] = self.fresh("a")
            self.field(kind, values[name], depth)
        self.flush(depth)
        if entry.derive is not None:
            names, function = entry.derive
            derived = [self.fresh("d") for _ in names]
            call = f"{self.constant('derive', function)}({', '.join(values.values())})"
            self.emit(depth, f"{', '.join(derived)}, = {call}")
            values.update(zip(names, derived))
        cls = self.constant("cls", entry.cls)
        filled = ", ".join(f"{name!r}: {value}" for name, value in values.items())
        self.emit(depth, f"{target} = _new({cls})")
        self.emit(depth, f"{target}.__dict__.update({{{filled}}})")

    def field(self, kind: Kind, target: str, depth: int) -> None:
        name = kind.name
        if name == "int":
            self.fixed("q", target)
        elif name == "bool":
            self.fixed("?", target)
        elif name in ("bytes", "str"):
            length = self.fresh("n")
            self.fixed("I", length)
            self.flush(depth)
            suffix = ".decode()" if name == "str" else ""
            self.emit(depth, f"{target} = buf[pos:pos + {length}]{suffix}")
            self.emit(depth, f"pos += {length}")
        elif name == "optional":
            flag = self.fresh("f")
            self.fixed("B", flag)
            self.flush(depth)
            self.emit(depth, f"if {flag} == 0:")
            self.emit(depth + 1, f"{target} = None")
            self.emit(depth, f"elif {flag} == 1:")
            self.field(kind.args[0], target, depth + 1)
            self.flush(depth + 1)
            self.emit(depth, "else:")
            self.emit(depth + 1, f"raise CodecError('optional flag ' + str({flag}))")
        elif name in ("tuple_of", "frozenset_of"):
            count, items, item = self.fresh("n"), self.fresh("l"), self.fresh("x")
            self.fixed("I", count)
            self.flush(depth)
            self.emit(depth, f"if {count} > end - pos:")
            self.emit(depth + 1, f"raise CodecError('count ' + str({count}) + ' past the end')")
            self.emit(depth, f"{items} = []")
            self.emit(depth, f"for _ in range({count}):")
            self.field(kind.args[0], item, depth + 1)
            self.flush(depth + 1)
            self.emit(depth + 1, f"{items}.append({item})")
            wrap = "frozenset" if name == "frozenset_of" else "tuple"
            self.emit(depth, f"{target} = {wrap}({items})")
        elif name == "fixed_tuple":
            items = [self.fresh("x") for _ in kind.args]
            for item_kind, item in zip(kind.args, items):
                self.field(item_kind, item, depth)
            self.flush(depth)
            self.emit(depth, f"{target} = ({', '.join(items)},)")
        elif name == "nested":
            self.construct(_entry(kind.args[0]), target, depth)
        elif name == "one_of":
            tags = self.constant("tags", frozenset(_entry(c).tag for c in kind.args))
            self.flush(depth)
            self.emit(depth, f"if buf[pos] not in {tags}:")
            self.emit(depth + 1, "raise CodecError('type tag ' + hex(buf[pos]) + ' not allowed here')")
            self.emit(depth, f"{target}, pos = _decode_any(buf, pos, end)")
        else:  # any
            self.flush(depth)
            self.emit(depth, f"{target}, pos = _decode_any(buf, pos, end)")


def _compile(entry: _Entry):
    """Generate and compile ``(encoder, decoder, source)`` for one entry."""
    namespace: Dict[str, object] = {
        "_new": object.__new__,
        "_encode_any": _encode_any,
        "_decode_any": _decode_any,
        "CodecError": CodecError,
    }
    encoder = _EncodeWriter(namespace)
    encoder.fields(entry, "o", 1)
    encoder.flush(1)
    decoder = _DecodeWriter(namespace)
    decoder.construct(entry, "o", 1)
    decoder.emit(1, "return o, pos")
    source = "\n".join(
        ["def encode(o, out):", *(encoder.lines or ["    pass"]), ""]
        + ["def decode(buf, pos, end):", *decoder.lines, ""]
    )
    exec(compile(source, f"<codec {entry.cls.__qualname__}>", "exec"), namespace)  # noqa: S102
    return namespace["encode"], namespace["decode"], source
