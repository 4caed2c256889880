"""Byte encodings for shuffle keys and values.

Keys must compare bytewise in the same order as their decoded meaning:
text fields are joined with the 0x1F unit separator and integer
components are fixed-width big-endian. A sampling key is two such
integers: a uniform draw's exact 53-bit integer, then the record index.

Values are opaque payloads: counts travel as UTF-8 decimals, numeric
vectors/matrices as length-prefixed little-endian float64 arrays.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

import numpy as np

FIELD_SEP = b"\x1f"
_TEXT_SEP = FIELD_SEP.decode()

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_LEN = struct.Struct("<I")


def text_key(*fields: str) -> bytes:
    """Join UTF-8 fields with the unit separator.

    A lone surrogate, which strict UTF-8 cannot encode, passes through as
    its three-byte form, so every str round-trips through split_text_key.
    UTF-8 encodes each code point alone, so the joined text is encoded in
    one call.
    """
    return _TEXT_SEP.join(fields).encode("utf-8", "surrogatepass")


def split_text_key(key: bytes) -> tuple[str, ...]:
    # The byte 0x1F occurs in UTF-8 only as the code point U+001F.
    return tuple(key.decode("utf-8", "surrogatepass").split(_TEXT_SEP))


def u32_key(value: int) -> bytes:
    return _U32.pack(value)


def parse_u32_key(key: bytes) -> int:
    return _U32.unpack(key)[0]


def u64_key(value: int) -> bytes:
    return _U64.pack(value)


def parse_u64_key(key: bytes) -> int:
    return _U64.unpack(key)[0]


def count_value(n: int) -> bytes:
    return b"%d" % n


def parse_count(value: bytes) -> int:
    return int(value)


def f64s_value(values: Iterable[float] | np.ndarray) -> bytes:
    """Length-prefixed little-endian float64 array."""
    arr = np.asarray(values, dtype="<f8")
    return _LEN.pack(arr.size) + arr.tobytes()


def parse_f64s(value: bytes) -> np.ndarray:
    """Decode ``f64s_value``; the result is a read-only view of the bytes."""
    (count,) = _LEN.unpack_from(value)
    arr = np.frombuffer(value, dtype="<f8", offset=_LEN.size)
    if arr.size != count:
        raise ValueError(f"corrupt float64 array: declared {count}, got {arr.size}")
    return arr


def parse_f64s_rows(values: Sequence[bytes]) -> np.ndarray:
    """Decode equal-width ``f64s_value`` payloads as the rows of one array.

    One ``frombuffer`` over the joined bytes, read as packed
    ``(<u4 length, <f8[width])`` records. Every payload must have the
    first one's byte length and every length prefix must declare that
    width, so a payload is accepted here exactly when ``parse_f64s``
    accepts it at the common width.
    """
    if not values:
        raise ValueError("parse_f64s_rows needs at least one value")
    size = len(values[0])
    width, rest = divmod(size - _LEN.size, 8)
    if width < 0 or rest:
        raise ValueError(f"corrupt float64 array: {size} bytes is no length prefix plus float64s")
    if any(len(v) != size for v in values):
        raise ValueError(f"float64 arrays of unequal width: expected {size} bytes each")
    packed = np.frombuffer(b"".join(values), dtype=[("n", "<u4"), ("v", "<f8", (width,))])
    declared = packed["n"]
    if np.any(declared != width):
        raise ValueError(f"corrupt float64 array: declared {int(declared[declared != width][0])}, got {width}")
    return np.ascontiguousarray(packed["v"]).reshape(len(values), width)
