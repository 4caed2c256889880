import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mrlab import encoding


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def test_text_key_roundtrip():
    key = encoding.text_key("2024-01-05")
    assert key == b"2024-01-05"
    assert key.decode("utf-8", "surrogatepass") == "2024-01-05"


def test_text_key_single_field_has_no_separator():
    assert encoding.text_key("abc") == b"abc"


@given(st.text(max_size=20))
def test_text_key_roundtrips_any_fields(field):
    # U+001F included: a one-field key has no separator to split on
    assert encoding.text_key(field).decode("utf-8", "surrogatepass") == field


_WITH_SURROGATES = st.one_of(st.characters(), st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF))


@given(st.text(alphabet=_WITH_SURROGATES, max_size=20))
def test_text_key_equals_the_field_by_field_encoding(field):
    # each character's bytes, lone surrogates included as their three-byte form
    key = encoding.text_key(field)
    assert key == b"".join(c.encode("utf-8", "surrogatepass") for c in field)
    assert key.decode("utf-8", "surrogatepass") == field


@given(st.text(alphabet=_WITH_SURROGATES, max_size=8), st.text(alphabet=_WITH_SURROGATES, max_size=8))
def test_text_key_order_matches_text_order(a, b):
    assert (encoding.text_key(a) < encoding.text_key(b)) == (a < b)


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_u32_key_order_matches_numeric_order(a, b):
    assert (encoding.u32_key(a) < encoding.u32_key(b)) == (a < b)
    assert encoding.parse_u32_key(encoding.u32_key(a)) == a


@given(st.integers(0, 2**64 - 1))
def test_u64_key_roundtrip(n):
    assert encoding.parse_u64_key(encoding.u64_key(n)) == n


def test_count_value_roundtrip():
    assert encoding.count_value(42) == b"42"
    assert encoding.parse_count(b"42") == 42


@given(st.lists(finite_floats, max_size=30))
def test_f64s_roundtrip(values):
    blob = encoding.f64s_value(values)
    out = encoding.parse_f64s(blob)
    np.testing.assert_array_equal(out, np.asarray(values))


def test_f64s_layout_is_length_prefixed_little_endian():
    blob = encoding.f64s_value([1.5, -2.0])
    assert blob[:4] == struct.pack("<I", 2)
    assert blob[4:] == struct.pack("<d", 1.5) + struct.pack("<d", -2.0)


def test_parse_f64s_rejects_corrupt_length():
    blob = encoding.f64s_value([1.0, 2.0])
    with pytest.raises(ValueError, match="corrupt"):
        encoding.parse_f64s(blob[:-8])


@given(st.integers(0, 6), st.lists(st.lists(finite_floats, min_size=6, max_size=6), min_size=1, max_size=8))
def test_f64s_rows_equal_rowwise_decoding(width, rows):
    values = [encoding.f64s_value(row[:width]) for row in rows]
    block = encoding.parse_f64s_rows(values)
    assert block.shape == (len(rows), width)
    expected = np.array([encoding.parse_f64s(v) for v in values]).reshape(len(rows), width)
    assert np.array_equal(block, expected)


@given(st.integers(0, 4), st.integers(1, 3), st.integers(1, 4), st.data())
def test_f64s_row_blocks_are_their_rows_back_to_back(width, k, g, data):
    values = data.draw(st.lists(finite_floats, min_size=g * k * width, max_size=g * k * width))
    blocks = np.array(values).reshape(g, k, width)
    payloads = encoding.f64s_row_blocks(blocks)
    assert payloads == [b"".join(encoding.f64s_value(row) for row in block) for block in blocks]
    assert np.array_equal(encoding.parse_f64s_rows(payloads), blocks.reshape(g * k, width))


@pytest.mark.parametrize("values, match", [
    ([encoding.f64s_row_blocks(np.ones((1, 2, 2)))[0], encoding.f64s_value([1.0]) * 3], "unequal width"),
    ([encoding.f64s_value([1.0]), b""], "unequal width"),
    ([], "at least one"),
    ([b"\x01\x00\x00"], "corrupt"),
    ([encoding.f64s_value([1.0, 2.0]), struct.pack("<I", 3) + bytes(16)], "declared 3, got 2"),
    ([encoding.f64s_value([1.0]), encoding.f64s_value([1.0, 2.0])], "unequal width"),
    ([encoding.f64s_value([1.0, 2.0])[:-4]], "corrupt"),
], ids=["rows-then-short-records", "empty-payload", "empty", "short", "bad-prefix", "unequal", "torn"])
def test_parse_f64s_rows_checks_every_length(values, match):
    with pytest.raises(ValueError, match=match):
        encoding.parse_f64s_rows(values)
