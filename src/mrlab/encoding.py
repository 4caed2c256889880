"""Byte encodings for shuffle keys and values.

Keys must compare bytewise in the same order as their decoded meaning:
a text field is its UTF-8 bytes, which keep code-point order, and
integer components are fixed-width big-endian. A key of two fields puts
the 0x1F unit separator ``FIELD_SEP`` between them. A sampling key is
two big-endian integers: a uniform draw's exact 53-bit integer, then the
record index.

Values are opaque payloads: counts travel as UTF-8 decimals, numeric
vectors/matrices as length-prefixed little-endian float64 arrays.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

import numpy as np

FIELD_SEP = b"\x1f"

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_LEN = struct.Struct("<I")


def text_key(field: str) -> bytes:
    """A text field's UTF-8 bytes, which sort in its code-point order.

    A lone surrogate, which strict UTF-8 cannot encode, passes through as
    its three-byte form, so every str round-trips through
    ``key.decode("utf-8", "surrogatepass")``.
    """
    return field.encode("utf-8", "surrogatepass")


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


def f64s_row_blocks(blocks: np.ndarray) -> list[bytes]:
    """Each (K, w) block of a (G, K, w) array as one payload: its rows'
    ``f64s_value`` payloads back to back. One pack for all the blocks."""
    blocks = np.asarray(blocks, dtype=float)
    g, k, w = blocks.shape
    packed = np.empty((g, k), dtype=[("n", "<u4"), ("v", "<f8", (w,))])
    packed["n"] = w
    packed["v"] = blocks
    data, size = packed.tobytes(), packed.itemsize * k
    return [data[i : i + size] for i in range(0, g * size, size)]


def parse_f64s_rows(values: Sequence[bytes]) -> np.ndarray:
    """Decode payloads of one or more equal-width ``f64s_value`` records
    (``f64s_value`` or ``f64s_row_blocks``) as the rows of one array.

    One ``frombuffer`` over the joined bytes, read as packed
    ``(<u4 length, <f8[width])`` records, where the first record's prefix
    sets the width. Every payload must be a whole, non-zero number of
    records and every length prefix must declare that width, so a record
    is accepted here exactly when ``parse_f64s`` accepts it at the common
    width.
    """
    if not values:
        raise ValueError("parse_f64s_rows needs at least one value")
    first = values[0]
    width = _LEN.unpack_from(first)[0] if len(first) >= _LEN.size else -1
    size = _LEN.size + 8 * width
    if width < 0 or len(first) % size:
        raise ValueError(f"corrupt float64 array: {len(first)} bytes is no whole number of records")
    lengths = np.fromiter(map(len, values), dtype=np.int64, count=len(values))
    if not lengths.all() or (lengths % size).any():
        raise ValueError(f"float64 arrays of unequal width: expected records of {size} bytes")
    packed = np.frombuffer(b"".join(values), dtype=[("n", "<u4"), ("v", "<f8", (width,))])
    declared = packed["n"]
    if np.any(declared != width):
        raise ValueError(f"corrupt float64 array: declared {int(declared[declared != width][0])}, got {width}")
    return np.ascontiguousarray(packed["v"]).reshape(len(packed), width)
