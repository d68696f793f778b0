"""The JSON readers, the JSON record codec, and the binary container.

Every JSON and JSON Lines input is read by ``decode_json`` or
``decode_jsonl``, and ``decode_fields`` is the one walker that decodes a
JSON object by its table. A dataclass's table is derived from its declared
field types, and ``encode_record`` writes it back; its ``NDArray`` fields
are array blocks of the RSF1/RSB1 container (``write_container``).

A record is encoded by a per-class function, ``record_encoder``, built
once from the class's declared field types in the manner of cattrs
(https://catt.rs/); it can leave fields out, so that a caller may encode a
shared nested record once and splice its text in (``Corpus.save``).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import reprlib
import struct
import types
import typing
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ConfigError, RegretstreamError, SchemaError, ValidationError


def _not_utf8(path) -> ValidationError:
    """The error for a file that failed to decode as UTF-8, naming the line
    of its first invalid byte."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return ValidationError(f"{path}: line {line}: not valid UTF-8: {exc.reason}")
    return ValidationError(f"{path}: not valid UTF-8")


def text_lines(path: str | Path):
    """(line number, line) for each line of a UTF-8 text file; a file that
    is not UTF-8 raises ValidationError naming the file and line."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, 1)
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def _parse_json(text: str, path, line: int = 1):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: line {line + exc.lineno - 1}: not valid JSON: {exc.msg}"
        ) from None


def _shaped(decode, value, where: str):
    """``decode(value)``; a value of the wrong shape for ``decode`` (it
    raises AttributeError, KeyError, TypeError, ValueError or OverflowError,
    as ``int`` does on ``Infinity``) raises ValidationError naming ``where``,
    and a ValidationError or ConfigError that ``decode`` raises itself is
    raised again with ``where`` in front (a SchemaError, as a
    ValidationError)."""
    try:
        return decode(value)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where}: unexpected JSON shape: {exc!r}") from None
    except (ConfigError, ValidationError) as exc:
        raise type(exc)(f"{where}: {exc}") from None
    except SchemaError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def decode_json(path: str | Path, decode):
    """``decode`` applied to the value in a JSON file. Malformed JSON raises
    ValidationError naming the file and line; a value of the wrong shape, one
    naming the file."""
    return _shaped(decode, _parse_json("".join(text for _, text in text_lines(path)), path), path)


def decode_jsonl(path: str | Path, decode) -> list:
    """``decode`` applied to the value on each non-blank line of a JSON Lines
    file, once every line has parsed. Malformed JSON, or a value of the wrong
    shape, raises ValidationError naming the file and line."""
    values = [(n, _parse_json(text, path, n)) for n, text in text_lines(path) if text.strip()]
    return [_shaped(decode, value, f"{path}: line {n}") for n, value in values]


class Rejected(ValueError):
    """A converter's own reason for rejecting a value."""


REQUIRED = object()


def decode_fields(raw, fields, line_number=None, prefix: str = "", closed: bool = False) -> dict:
    """Keyword arguments built from the JSON object ``raw`` by its format's
    decode table ``fields`` of (field, converter, default) entries. A field
    absent from ``raw`` is converted from its default; without one
    (``REQUIRED``) it is a SchemaError, as is a value its converter
    rejects. With ``closed``, a key outside the table is a SchemaError too.
    Each error names the field (behind ``prefix``) and ``line_number``."""
    if not isinstance(raw, dict):
        whole = prefix[:-1] or "record"
        raise SchemaError(whole, f"{whole} must be a JSON object", line_number)
    if closed:
        names = {name for name, _, _ in fields}
        for name in raw:
            if name not in names:
                raise SchemaError(f"{prefix}{name}", f"unknown field: {prefix}{name}", line_number)
    kwargs = {}
    for name, convert, default in fields:
        value = raw.get(name, default)
        if value is REQUIRED:
            raise SchemaError(prefix + name, line_number=line_number)
        try:
            kwargs[name] = convert(value)
        except SchemaError as exc:  # a nested object names its own field
            raise SchemaError(exc.field, str(exc), line_number) from None
        except (TypeError, ValueError, OverflowError) as exc:
            reason = f" ({exc})" if isinstance(exc, Rejected) else ""
            raise SchemaError(
                prefix + name, f"invalid {prefix}{name}: {reprlib.repr(value)}{reason}", line_number
            ) from None
    return kwargs


def _exactly(kind: type, reason: str):
    """A converter that passes only values of type ``kind``."""
    def convert(value):
        if type(value) is not kind:
            raise Rejected(reason)
        return value
    return convert


_json_int = _exactly(int, "not a JSON integer")
_object_list = _exactly(list, "not an array of objects")


def _finite(value) -> float:
    if type(value) not in (int, float) or not math.isfinite(value):
        raise Rejected("not a finite number")
    return float(value)


def _utc(value) -> datetime:
    """An RFC 3339 timestamp as an aware UTC datetime."""
    if not isinstance(value, str):
        raise Rejected("not a string timestamp")
    try:
        dt = datetime.fromisoformat(value.replace("Z", "+00:00").replace("z", "+00:00"))
    except ValueError:
        raise Rejected("not RFC 3339") from None
    if dt.tzinfo is None:
        raise Rejected("missing a timezone offset")
    return dt.astimezone(timezone.utc)


def format_rfc3339(dt: datetime) -> str:
    """``dt`` in UTC as RFC 3339 text, its year always four digits and its
    fractional seconds without trailing zeros."""
    dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    text = dt.isoformat()  # strftime's %Y does not pad a year before 1000
    return (text.rstrip("0") if dt.microsecond else text) + "Z"


# Feature matrices, bundles and scores store tweet ids as int64.
TweetId = typing.NewType("TweetId", int)


def _tweet_id(value) -> int:
    ident = _json_int(value)
    if not 0 < ident < 2 ** 63:
        raise Rejected("a tweet id lies in 1..2**63-1")
    return ident


# The converter for each type a record field is declared with.
_JSON_TYPES = {bool: _exactly(bool, "not true or false"), int: _json_int, float: _finite,
               str: _exactly(str, "not a string"), datetime: _utc, TweetId: _tweet_id,
               frozenset: lambda value: frozenset(_str_list(value))}


def _array_of(kind: type, noun: str):
    """A converter that passes a JSON array whose every item converts as
    ``kind``, as a list of the converted items."""
    item = _JSON_TYPES[kind]

    def convert(value) -> list:
        if type(value) is list:
            try:
                return [item(v) for v in value]
            except Rejected:
                pass
        raise Rejected(f"not an array of {noun}")
    return convert


_ARRAYS = {str: _array_of(str, "strings"), int: _array_of(int, "integers"),
           float: _array_of(float, "finite numbers")}
_str_list = _ARRAYS[str]
# The JSON form of each declared type that is not its own JSON form.
_JSON_FORMS = {datetime: format_rfc3339, tuple: list, frozenset: sorted, dict: dict}


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def converter(hint, prefix: str = "", default=None, strict: bool = False):
    """The converter for a field declared ``hint`` whose own fields, if it
    has any, sit behind ``prefix``; a value it rejects for a reason of its
    own raises ``Rejected``."""
    kind = typing.get_origin(hint) or hint
    args = typing.get_args(hint)
    if kind is types.UnionType:  # X | None
        return _optional(converter(_inner(hint), prefix, default, strict))
    if kind is list and dataclasses.is_dataclass(args[0]):  # list[<dataclass>]
        item = converter(args[0], prefix, None, strict)
        return lambda value: [item(v) for v in _object_list(value)]
    if kind is list:  # list[X]
        return _ARRAYS[args[0]]
    if kind is tuple:  # tuple[X, ...]
        array = _ARRAYS[args[0]]
        return lambda value: tuple(array(value))
    if kind is dict:
        nested = tuple((k, _JSON_TYPES[type(v)], v) for k, v in default.items())
        return functools.partial(decode_fields, fields=nested, prefix=prefix, closed=True)
    if dataclasses.is_dataclass(kind):
        fields = record_fields(kind, prefix, strict)
        return lambda raw: kind(**decode_fields(raw, fields, prefix=prefix, closed=strict))
    return _JSON_TYPES[kind]


def _inner(hint):
    """X of a hint declared ``X | None``."""
    (inner,) = (a for a in typing.get_args(hint) if a is not type(None))
    return inner


@functools.cache
def _array_fields(cls) -> types.MappingProxyType:
    """The little-endian dtype of each field of the dataclass ``cls`` declared
    ``NDArray[<scalar>]`` (or that ``| None``), by name: the fields a binary
    container holds as array blocks, not in its JSON manifest."""
    arrays = {}
    for name, hint in typing.get_type_hints(cls).items():
        if typing.get_origin(hint) is types.UnionType:
            hint = _inner(hint)
        if typing.get_origin(hint) is np.ndarray:
            arrays[name] = np.dtype(typing.get_args(typing.get_args(hint)[1])[0]).newbyteorder("<")
    return types.MappingProxyType(arrays)


def json_field(json_default, **kwargs):
    """A dataclass field that a JSON object leaving it out gives
    ``json_default``, where that differs from its Python default
    (``REQUIRED``: it may not be left out)."""
    return dataclasses.field(metadata={"json_default": json_default}, **kwargs)


@functools.cache
def record_fields(cls, prefix: str = "", strict: bool = False) -> tuple:
    """The decode table of the dataclass ``cls`` whose fields sit behind
    ``prefix``; its ``NDArray`` fields are not in it. Each field converts by
    the type it is declared with: a JSON type, a timestamp, a tweet id,
    ``X | None``, a list or tuple as an array, a dict as an object holding
    only its default's keys (each converted by the type of its default
    value), and a dataclass, or a list of them, as an object decoded by its
    own table, whose unknown keys are ignored. A field defaults to the JSON
    form of its ``json_field`` default, else of its Python default; without
    either it is required (``REQUIRED``). With ``strict`` every field is
    required, here and in each nested object, which may hold no unknown key
    either."""
    hints = typing.get_type_hints(cls)
    table = []
    for f in dataclasses.fields(cls):
        if f.name in _array_fields(cls):
            continue
        hint = hints[f.name]
        default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        convert = converter(hint, f"{prefix}{f.name}.", default, strict)
        default = f.metadata.get("json_default", default)
        if default is dataclasses.MISSING or strict:
            default = REQUIRED
        elif default is not REQUIRED and _encoder(hint):
            default = _encoder(hint)(default)
        table.append((f.name, convert, default))
    return tuple(table)


def _encoder(hint):
    """The function giving the JSON form of a value declared ``hint``, or
    None where the value is its own JSON form."""
    kind = typing.get_origin(hint) or hint
    if kind is types.UnionType:  # X | None
        inner = _encoder(_inner(hint))
        return None if inner is None else _optional(inner)
    if kind is list and dataclasses.is_dataclass(typing.get_args(hint)[0]):
        item = record_encoder(typing.get_args(hint)[0])
        return lambda items: [item(v) for v in items]
    return record_encoder(kind) if dataclasses.is_dataclass(kind) else _JSON_FORMS.get(kind)


@functools.cache
def record_encoder(cls, omit: tuple = ()):
    """The function giving the JSON object of an instance of the dataclass
    ``cls`` that ``encode_record`` gives, without the fields named in
    ``omit``: each field but its arrays encoded by its declared type."""
    hints = typing.get_type_hints(cls)
    table = tuple((f.name, _encoder(hints[f.name])) for f in dataclasses.fields(cls)
                  if f.name not in _array_fields(cls) and f.name not in omit)

    def encode(obj) -> dict:
        out = {}
        for name, to_json in table:
            value = getattr(obj, name)
            out[name] = value if to_json is None else to_json(value)
        return out
    return encode


def encode_record(obj) -> dict:
    """The JSON object of the dataclass ``obj``, field by field: a datetime
    in RFC 3339, a tuple as an array, a frozenset as a sorted array, a dict
    copied, a nested dataclass (or each of a list of them) as its own JSON
    object, and every other value as it is. Its ``NDArray`` fields are left
    out. ``decode_record`` reads it back."""
    return record_encoder(type(obj))(obj)


def decode_record(cls, raw, prefix: str = "", arrays=None, strict: bool = False):
    """The dataclass ``cls`` built from the JSON object ``raw`` by
    ``record_fields(cls, prefix, strict)`` and from ``arrays``, the values
    of its ``NDArray`` fields by name; a key outside the table is a
    SchemaError."""
    fields = decode_fields(raw, record_fields(cls, prefix, strict), prefix=prefix, closed=True)
    return cls(**fields, **(arrays or {}))


def decode_config(declared, raw, prefix: str = ""):
    """``decode_record(declared, raw)``, raising a ConfigError naming the field;
    a dict ``declared`` is the default of an object field behind ``prefix``."""
    try:
        if isinstance(declared, dict):
            return converter(dict, prefix, declared)(raw)
        return decode_record(declared, raw)
    except SchemaError as exc:
        raise ConfigError(str(exc)) from None


def to_blocks(obj, prefix: str = "") -> list[tuple[str, np.ndarray]]:
    """(block name, array) of each set array field of the dataclass ``obj``,
    in its declared dtype; a block is named ``prefix`` and the field name."""
    return [
        (prefix + name, value.astype(dtype))
        for name, dtype in _array_fields(type(obj)).items()
        if (value := getattr(obj, name)) is not None
    ]


def from_blocks(cls, arrays: dict, prefix: str = "", optional=()) -> dict:
    """The array fields of the dataclass ``cls`` from the blocks ``arrays``
    that ``to_blocks`` names, each in its declared dtype; a block missing for
    a field not in ``optional`` raises KeyError naming the block."""
    return {
        name: arrays[prefix + name].astype(dtype)
        for name, dtype in _array_fields(cls).items()
        if name not in optional or prefix + name in arrays
    }


def write_container(path, magic: bytes, version: int, manifest: dict, arrays, blobs=()) -> None:
    """Write a container: magic, version, manifest length, the JSON manifest
    with the name, dtype and shape of each of the (name, array) ``arrays``
    added as its ``arrays`` entry, each blob, then each array's bytes; the
    layout ``load_container`` reads."""
    manifest = dict(manifest, arrays=[
        {"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape)} for name, arr in arrays
    ])
    raw = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", version))
        fh.write(struct.pack("<Q", len(raw)))
        fh.write(raw)
        for blob in blobs:
            fh.write(blob)
        for _, arr in arrays:
            fh.write(arr.tobytes())


def _read_exact(fh, size: int, path, section: str) -> bytes:
    # Checked before reading: a damaged size must not allocate its buffer.
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if not 0 <= size <= left:
        raise ValidationError(f"{path}: truncated file: {section} needs {size} bytes, found {left}")
    return fh.read(size)


def _read_arrays(fh, path, entries) -> dict[str, np.ndarray]:
    """The arrays the manifest ``entries`` describe, read in order."""
    arrays = {}
    for entry in entries:
        dtype = np.dtype(entry["dtype"])
        count = int(np.prod(entry["shape"])) if entry["shape"] else 1
        buf = _read_exact(fh, dtype.itemsize * count, path, f"array {entry['name']}")
        arrays[entry["name"]] = np.frombuffer(buf, dtype=dtype).reshape(entry["shape"]).copy()
    return arrays


def load_container(path, magic: bytes, version: int, kind: str, decode, blobs=()):
    """``decode(manifest, arrays, *texts)`` for the container at ``path``: its
    manifest without the ``arrays`` list, its arrays by name, and each of
    its ``blobs`` as text. Another magic or version, a short section, or a
    manifest that is not JSON or lacks, mistypes or holds an invalid field,
    raises ValidationError naming the file."""
    with open(path, "rb") as fh:
        found = fh.read(len(magic))
        if found != magic:
            raise ValidationError(f"{path}: bad magic {found!r}, expected {magic!r}")
        (found_version,) = struct.unpack("<I", _read_exact(fh, 4, path, "version"))
        if found_version != version:
            raise ValidationError(f"{path}: unsupported {kind} version {found_version}")
        (mlen,) = struct.unpack("<Q", _read_exact(fh, 8, path, "manifest length"))
        try:
            manifest = json.loads(_read_exact(fh, mlen, path, "manifest").decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ValidationError(f"{path}: {kind} manifest is not valid JSON: {exc}") from None
        try:
            texts = [_read_exact(fh, manifest["blobs"][b], path, b).decode("utf-8") for b in blobs]
            arrays = _read_arrays(fh, path, manifest.pop("arrays"))
            try:
                return decode(manifest, arrays, *texts)
            except RegretstreamError as exc:  # a value the package itself rejects
                raise ValidationError(f"{path}: invalid {kind} manifest: {exc}") from None
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: invalid {kind} manifest: {exc!r}") from None
