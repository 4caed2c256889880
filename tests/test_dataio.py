import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrlab import aggregates, dataio
from mrlab.errors import RowParseError


@pytest.mark.parametrize("body, read, message", [
    ("1,2\n3\n", "matrix", "row 3: expected 2 fields, got 1"),
    ("1,2\n3,x\n", "matrix", "row 3: bad numeric value 'x' in column 'b'"),
    ("1,2\n3,inf\n", "matrix", "row 3: non-finite value"),
    ("1,2\n3,4,5\n", "table", "row 3: expected 2 fields, got 3"),
    ("x,2\n", "table", "row 2: bad numeric value 'x' in column 'a'"),
    ("nan,1\n", "table", "row 2: non-finite feature value"),
    ("1,2\n3, lo \n", "table", "row 3: bad numeric label 'lo'"),
    ("1,lo\n2,x\n", "table", "row 2: bad numeric label 'lo'"),
], ids=["matrix-fields", "matrix-value", "matrix-finite", "table-fields",
        "table-value", "table-finite", "table-label", "table-first-row"])
def test_numeric_readers_name_the_row(tmp_path, body, read, message):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n" + body, encoding="utf-8")
    with pytest.raises(RowParseError) as exc:
        if read == "matrix":
            dataio.read_matrix(path)
        else:
            dataio.read_table(path, "b")
    assert str(exc.value) == message


def test_csv_rows_carry_the_line_each_record_starts_on(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text('a,b\n"x\ny",1\n\n2,"3\n\n4"\n5,6\n', encoding="utf-8")
    header, rows, lines = dataio.read_csv_rows(path)
    assert header == ["a", "b"]
    assert rows == [["x\ny", "1"], [], ["2", "3\n\n4"], ["5", "6"]]
    assert lines == [2, 4, 5, 8]


# ----------------------------------------------------- bulk parse parity


def reference_parse(rows, lines, names, nonfinite, label_idx=None, numeric_labels=False):
    """The row-by-row parse that preceded the bulk path, kept as the
    reference for ``_parse_numeric``'s arrays and errors."""
    columns = [j for j in range(len(names)) if j != label_idx]
    matrix = np.empty((len(rows), len(columns)))
    labels = np.zeros(len(rows))
    for r, (row, line) in enumerate(zip(rows, lines)):
        if len(row) != len(names):
            raise RowParseError(line, f"expected {len(names)} fields, got {len(row)}")
        for out, j in enumerate(columns):
            try:
                matrix[r, out] = float(row[j])
            except ValueError:
                raise RowParseError(line, f"bad numeric value {row[j]!r} in column {names[j]!r}") from None
        if numeric_labels:
            raw = row[label_idx].strip()
            try:
                labels[r] = float(raw)
            except ValueError:
                raise RowParseError(line, f"bad numeric label {raw!r}") from None
    if not np.all(np.isfinite(matrix)):
        r = int(np.argwhere(~np.isfinite(matrix))[0][0])
        raise RowParseError(lines[r], nonfinite)
    bad = np.flatnonzero(~np.isfinite(labels))
    if bad.size:
        raise RowParseError(lines[bad[0]], "non-finite label")
    return matrix, labels


def arrays_bits(*arrays):
    return [(a.shape, a.dtype, a.flags.c_contiguous, a.tobytes()) for a in arrays]


def outcome(fn, *args):
    """The arrays fn(*args) returns, bit for bit, or the (line, message)
    it raises."""
    try:
        return arrays_bits(*fn(*args))
    except RowParseError as err:
        return err.row, str(err)


def read(path, kind, label):
    if kind == "matrix":
        return (dataio.read_matrix(path)[1],)
    table = dataio.read_table(path, label, numeric_labels=kind == "table")
    return table.features, table.labels


def read_by_reference(path, kind, label):
    header, rows, lines = dataio.read_csv_rows(path)
    names = [h.strip() for h in header]
    if kind == "matrix":
        return reference_parse(rows, lines, names, "non-finite value")[:1]
    return reference_parse(rows, lines, names, "non-finite feature value", names.index(label), kind == "table")


BAD_ROWS = {
    "fields": "1,2,3,4",
    "blank": "",  # csv reads a blank line as []
    "value": "x,2,3",
    "nan": "nan,2,3",
    "inf": "1,2,-inf",
    "huge": "1,2,1e400",
    "label": "1,lo,3",
    "label-nan": "1,nan,3",
    "label-1f": "1,\x1f2\x1f,3",  # str.strip removes U+001F, float does not
}
KINDS = (list(itertools.permutations(BAD_ROWS, 1)) + list(itertools.permutations(BAD_ROWS, 2))[::4]
         + list(itertools.permutations(BAD_ROWS, 3))[::23])


@pytest.mark.parametrize("label", ["b", "c"])
@pytest.mark.parametrize("kind", ["table", "table-strings", "matrix"])
@pytest.mark.parametrize("bad", KINDS, ids="+".join)
def test_bulk_parse_matches_the_row_loop(tmp_path, bad, kind, label):
    # Good rows before, between and after the bad ones, and a quoted field
    # spanning two lines, so rows and file lines differ.
    good = ['"1\n",2,3', "0.5, 7 ,-0.0"]
    rows = good + [row for name in bad for row in (BAD_ROWS[name], good[1])]
    path = tmp_path / "data.csv"
    path.write_text("a,b,c\n" + "\n".join(rows) + "\n", encoding="utf-8")
    assert outcome(read, path, kind, label) == outcome(read_by_reference, path, kind, label)


def test_clean_tables_never_take_the_row_loop(tmp_path, monkeypatch):
    def row_loop(*args):
        raise AssertionError("the row-by-row parse ran on a clean file")

    monkeypatch.setattr(dataio, "_parse_rows", row_loop)
    path = tmp_path / "data.csv"
    path.write_text('a,b,c\n"1\n", 2 ,3\n4,5,-0.0\n', encoding="utf-8")
    assert dataio.read_matrix(path)[1].tolist() == [[1, 2, 3], [4, 5, 0]]
    table = dataio.read_table(path, "b")
    assert table.features.tolist() == [[1, 3], [4, 0]]
    assert table.labels.tolist() == [2, 5]
    assert dataio.read_table(path, "b", numeric_labels=False).raw_labels == ["2", "5"]


def test_numbers_wrapped_in_unit_separators_are_read_by_the_bulk_passes(tmp_path, monkeypatch):
    # str.strip removes U+001C-U+001F, which float alone rejects; the row
    # loops strip a label and a duration before float reads them
    def row_loop(*args):
        raise AssertionError("a row loop ran on a clean file")

    monkeypatch.setattr(dataio, "_parse_rows", row_loop)
    monkeypatch.setattr(aggregates, "parse_call_row", row_loop)
    table, calls = tmp_path / "data.csv", tmp_path / "calls.csv"
    table.write_text("x,y\n1,\x1f1\x1f\n2, \x1c-0.5\x1e\n", encoding="utf-8")
    read = dataio.read_table(table, "y")
    assert arrays_bits(read.features, read.labels) == arrays_bits(np.array([[1.0], [2.0]]), np.array([1.0, -0.5]))
    assert read.raw_labels == ["1", "-0.5"]
    calls.write_text("date,caller,callee,duration\n2024-01-01,a,b,\x1f2.5\x1f\n", encoding="utf-8")
    assert aggregates.read_call_csv(calls).durations == (2.5,)


_PAD = st.sampled_from(["", " ", "\t", "\n", "\u2003"])
_CELL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),  # subnormals, -0.0
    st.integers(-10**9, 10**9).map("{:_}".format),
    st.sampled_from(["1_000", "-0.0", "1e-400", "5e-324", ".5", "5.", "+1", "1E5", "1_0.2_5"]),
)


@given(rows=st.lists(st.lists(st.tuples(_PAD, _CELL, _PAD).map("".join), min_size=3, max_size=3),
                     min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_valid_cells_read_exactly_as_float_reads_them(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("cells") / "data.csv"
    dataio.write_csv_rows(path, ["a", "b", "c"], rows)
    want = np.array([[float(cell) for cell in row] for row in rows])
    table = dataio.read_table(path, "b")
    assert arrays_bits(dataio.read_matrix(path)[1], table.features, table.labels) == arrays_bits(
        want, np.ascontiguousarray(want[:, [0, 2]]), np.ascontiguousarray(want[:, 1]))


# ----------------------------------------------------- byte-order mark


BOM = b"\xef\xbb\xbf"


def test_a_byte_order_mark_is_not_read_as_text(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(b"x,y\n1,0\n2,1\n")
    marked.write_bytes(BOM + plain.read_bytes())
    assert dataio.read_csv_rows(marked) == dataio.read_csv_rows(plain)
    assert dataio.read_lines(marked) == dataio.read_lines(plain)
    assert dataio.read_table(marked, "x").feature_names == ["y"]


@pytest.mark.parametrize("prefix", [b"", BOM], ids=["plain", "marked"])
def test_bytes_that_are_not_utf8_are_named_by_line_after_a_mark(tmp_path, prefix):
    path = tmp_path / "data.csv"
    path.write_bytes(prefix + b"x,y\n1,0\n2,\xff\n")
    with pytest.raises(RowParseError) as exc:
        dataio.read_csv_rows(path)
    assert str(exc.value) == "row 3: not valid UTF-8"
