import csv
import io
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrlab import aggregates, dataio
from mrlab.engine import record_nbytes
from mrlab.errors import EmptyInputError, RowParseError


@pytest.mark.parametrize("body, read, message", [
    ("1,2\n3\n", "matrix", "row 3: expected 2 fields, got 1"),
    ("1,2\n3,x\n", "matrix", "row 3: bad numeric value 'x' in column 'b'"),
    ("1,2\n3,inf\n", "matrix", "row 3: non-finite value"),
    ("1,2\n3,4,5\n", "table", "row 3: expected 2 fields, got 3"),
    ("x,2\n", "table", "row 2: bad numeric value 'x' in column 'a'"),
    ("nan,1\n", "table", "row 2: non-finite feature value"),
    ("1,2\n3, lo \n", "table", "row 3: bad numeric label 'lo'"),
    ("1,lo\n2,x\n", "table", "row 2: bad numeric label 'lo'"),
    ("1\n3\n", "matrix", "row 2: expected 2 fields, got 1"),
    ("1,2,3\n", "table", "row 2: expected 2 fields, got 3"),
], ids=["matrix-fields", "matrix-value", "matrix-finite", "table-fields",
        "table-value", "table-finite", "table-label", "table-first-row", "matrix-width", "table-width"])
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
    header, rows = dataio.read_csv_fields(path)
    assert header == ["a", "b"]
    assert list(rows) == [["x\ny", "1"], [], ["2", "3\n\n4"], ["5", "6"]]
    assert rows.lines == [2, 4, 5, 8]


# ----------------------------------------------------- the flat pass


def reference_csv_rows(path):
    """A plain ``csv.reader`` walk that keeps each row as a list, with the
    file line each row starts on: the row reader that preceded the flat
    pass, kept as the reference for ``read_csv_fields``."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInputError(f"{path}: empty file") from None
        rows, lines = [], []
        start = reader.line_num + 1
        for row in reader:
            rows.append(row)
            lines.append(start)
            start = reader.line_num + 1
    return header, rows, lines


def raised_or(fn, *args):
    try:
        return fn(*args)
    except EmptyInputError as err:
        return type(err), str(err)


def csv_text(rows) -> str:
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


_FIELD = st.text(alphabet=["a", "é", ",", '"', "\n", "\r", " ", "\x1f"], max_size=4)
_CSV_TEXT = st.one_of(
    # raw text: ragged rows, empty fields, blank lines, quoted commas and
    # newlines, stray quotes and bare carriage returns
    st.lists(st.sampled_from(["a", "é", ",", '"', "\n", "\r\n", "\r", " ", '""', '"a,b"', '"x\ny"', '"\r\n"']),
             max_size=30).map("".join),
    # rows as csv.writer quotes them
    st.lists(st.lists(_FIELD, max_size=4), max_size=8).map(csv_text),
)


# Quote-free text, which ``read_csv_fields`` cuts without ``csv.reader``
# unless it holds a blank line or a lone carriage return.
_PLAIN_CHARS = ["a", "é", ",", " ", "\x00", "\x1f", "\x85", "\u2028"]


@st.composite
def _quote_free_csv_text(draw) -> str:
    """Half the files are non-empty lines ended by "\n" or "\r\n", the
    last line's end optional; half are drawn a piece at a time, so blank
    lines and lone carriage returns come up too."""
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from([*_PLAIN_CHARS, "\n", "\r\n", "\r"]), max_size=30).map("".join))
    line = st.text(alphabet=_PLAIN_CHARS, min_size=1, max_size=6)
    lines = draw(st.lists(st.tuples(line, st.sampled_from(["\n", "\r\n"])).map("".join), min_size=1, max_size=8))
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


def assert_flat_fields_match_a_row_walk(tmp_path_factory, text, bom, data):
    path = tmp_path_factory.mktemp("flat") / "data.csv"
    path.write_bytes(BOM * bom + text.encode("utf-8"))
    want = raised_or(reference_csv_rows, path)
    got = raised_or(dataio.read_csv_fields, path)
    if isinstance(want[0], type):
        assert got == want
        return
    header, rows, lines = want
    assert got == (header, dataio.Rows(list(itertools.chain.from_iterable(rows)), list(map(len, rows)), lines))
    got = got[1]
    assert len(got) == len(rows)
    assert list(got) == rows
    assert [got[i] for i in range(len(rows))] == rows == [got[i] for i in range(-len(rows), 0)]
    start = data.draw(st.integers(0, len(rows)), label="start")
    stop = data.draw(st.integers(0, len(rows)), label="stop")
    part = got[start:stop]
    assert isinstance(part, dataio.Rows)
    assert (list(part), part.lines) == (rows[start:stop], lines[start:stop])
    assert got.nbytes == sum(record_nbytes(r) for r in rows)


@given(text=_CSV_TEXT, bom=st.booleans(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_flat_fields_match_a_row_walk(tmp_path_factory, text, bom, data):
    assert_flat_fields_match_a_row_walk(tmp_path_factory, text, bom, data)


@given(text=_quote_free_csv_text(), bom=st.booleans(), block=st.sampled_from([1, 3, dataio._BLOCK]),
       data=st.data())
@settings(max_examples=300, deadline=None)
def test_quote_free_fields_match_a_row_walk(tmp_path_factory, text, bom, block, data):
    with mock.patch.object(dataio, "_BLOCK", block):  # small blocks cut a file in many
        assert_flat_fields_match_a_row_walk(tmp_path_factory, text, bom, data)


@pytest.fixture
def csv_rows_read(monkeypatch):
    """The number of rows every ``csv.reader`` made from here on yields."""
    count = [0]
    make = csv.reader

    def counting_reader(*args, **kwargs):
        reader = make(*args, **kwargs)

        class Counting:
            line_num = property(lambda self: reader.line_num)

            def __iter__(self):
                return self

            def __next__(self):
                row = next(reader)
                count[0] += 1
                return row

        return Counting()

    monkeypatch.setattr(csv, "reader", counting_reader)
    return count


def test_a_quote_free_body_is_cut_without_the_csv_pass(tmp_path, csv_rows_read):
    path = tmp_path / "data.csv"
    path.write_bytes("a,b\r\n1,é\x85\r\n,\n 2 ,\u2028,x".encode("utf-8"))
    header, rows = dataio.read_csv_fields(path)
    assert (header, list(rows), rows.lines) == (["a", "b"], [["1", "é\x85"], ["", ""], [" 2 ", "\u2028", "x"]], [2, 3, 4])
    assert csv_rows_read[0] == 1  # the header
    path.write_text("f,cls\n0.5, c0 \n-1,c1\n", encoding="utf-8")
    assert dataio.read_table(path, "cls", numeric_labels=False).labels == ["c0", "c1"]
    assert csv_rows_read[0] == 2
    with pytest.raises(RowParseError) as exc:  # numpy refuses the labels; the row loop reads the cut rows
        dataio.read_table(path, "f")
    assert str(exc.value) == "row 2: bad numeric value ' c0 ' in column 'cls'"
    assert csv_rows_read[0] == 3


@pytest.mark.parametrize("body", [
    '1,"2,3"\n4,5\n',
    "1,2\r3,4\n",
    "1,2\n\n3,4\n",
    "1,2\r\n\r\n3,4\r\n",
    "1," + "2" * 70000 + "," + "3" * 70000 + "\n",  # each field is under the limit
    "é" * 70000 + ",1\n",  # 70000 characters, 140000 bytes
], ids=["quote", "lone-cr", "blank-line", "blank-crlf-line", "long-line", "long-utf8-line"])
def test_other_bodies_go_to_the_csv_pass(tmp_path, csv_rows_read, body):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n" + body, encoding="utf-8")
    _header, rows, lines = reference_csv_rows(path)
    csv_rows_read[0] = 0
    got = dataio.read_csv_fields(path)[1]
    assert (list(got), got.lines) == (rows, lines)
    assert csv_rows_read[0] == 1 + len(rows)


def test_a_field_over_the_limit_goes_to_the_csv_pass(tmp_path, csv_rows_read):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1,2\n3," + "4" * 131073 + "\n", encoding="utf-8")
    with pytest.raises(RowParseError) as exc:
        dataio.read_csv_fields(path)
    assert str(exc.value) == "row 3: field larger than field limit (131072)"
    assert csv_rows_read[0] == 2  # the header and the first data row


@pytest.mark.parametrize("body, passes", [
    ("1,2\n3,4\n", 2),  # every block checked and counted, then split
    ("1,2\n\n3,4\n", 1),  # a blank line refuses it while blocks are checked
    ("1,2\n3,4\n\n", 0),  # a blank last line refuses it at once
    ('1,2\n3,"4"\n', 0),  # and so does a quote
], ids=["quote-free", "blank-line", "blank-last-line", "quote"])
def test_the_cut_splits_no_block_of_a_text_it_refuses(tmp_path, monkeypatch, body, passes):
    monkeypatch.setattr(dataio, "_BLOCK", 3)  # each block holds a line or two
    made, blocks = [], dataio._blocks
    monkeypatch.setattr(dataio, "_blocks", lambda text: made.append(text) or blocks(text))
    path = tmp_path / "data.csv"
    path.write_text("a,b\n" + body, encoding="utf-8")
    _header, rows, lines = reference_csv_rows(path)
    got = dataio.read_csv_fields(path)[1]
    assert (list(got), got.lines) == (rows, lines)
    assert len(made) == passes


@pytest.mark.parametrize("body", ['"1",2\n3,4\n', "1,2\n3,4\n", "1_0,2\n3,4\n"],
                         ids=["quoted", "quote-free", "refused-by-numpy"])
def test_a_numeric_table_is_opened_and_decoded_once(tmp_path, monkeypatch, body):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n" + body, encoding="utf-8")
    opened = []
    open_text = dataio.open_text

    def counting_open_text(where):
        opened.append(where)
        return open_text(where)

    monkeypatch.setattr(dataio, "open_text", counting_open_text)
    assert dataio.read_matrix(path)[1].tolist() == [[1 + 9 * ("_" in body), 2], [3, 4]]
    assert dataio.read_table(path, "b", numeric_labels=False).labels == ["2", "4"]
    assert opened == [path, path]


# ----------------------------------------------------- bulk parse parity


def reference_parse(rows, lines, names, nonfinite, label_idx=None, numeric_labels=False):
    """The row-by-row parse that preceded the bulk path, kept as the
    reference for ``_parse_numeric``'s arrays and errors; string labels
    come back stripped, in a list."""
    columns = [j for j in range(len(names)) if j != label_idx]
    matrix = np.empty((len(rows), len(columns)))
    labels = np.zeros(len(rows)) if numeric_labels else []
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
        elif label_idx is not None:
            labels.append(row[label_idx].strip())
    if not np.all(np.isfinite(matrix)):
        r = int(np.argwhere(~np.isfinite(matrix))[0][0])
        raise RowParseError(lines[r], nonfinite)
    if numeric_labels:
        bad = np.flatnonzero(~np.isfinite(labels))
        if bad.size:
            raise RowParseError(lines[bad[0]], "non-finite label")
    return matrix, labels


def arrays_bits(*arrays):
    """Arrays bit for bit; a list (string labels) as it is."""
    return [a if isinstance(a, list) else (a.shape, a.dtype, a.flags.c_contiguous, a.tobytes()) for a in arrays]


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
    header, rows = dataio.read_csv_fields(path)
    names = [h.strip() for h in header]
    if kind == "matrix":
        return reference_parse(list(rows), rows.lines, names, "non-finite value")[:1]
    return reference_parse(list(rows), rows.lines, names, "non-finite feature value", names.index(label),
                           kind == "table")


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
    "feature-1f": "\x1f1\x1f,2,3",  # numpy's reader strips U+001F, float does not
    "spaces": " \t ",
    "cr": "1,2\r3",  # csv ends a line at a lone carriage return
    "nul": "1,\x002,3",
    "long": "1,2," + "1" * 131073,  # one digit over csv's field limit
}
OLD_ROWS = list(BAD_ROWS)[:9]  # the pairs and triples below are drawn from these
NEW_ROWS = list(BAD_ROWS)[9:]
KINDS = (list(itertools.permutations(OLD_ROWS, 1)) + list(itertools.permutations(OLD_ROWS, 2))[::4]
         + list(itertools.permutations(OLD_ROWS, 3))[::23])
NEW_KINDS = [(name,) for name in NEW_ROWS]
MIXED_KINDS = [pair for new in NEW_ROWS for old in OLD_ROWS for pair in ((new, old), (old, new))][::3]
# (header, good rows). The quoted set has a field spanning two lines, so
# its rows and file lines differ, and numpy's reader never sees it; the
# plain set is quote-free after a two-line header, so numpy's reader
# reads it unless a bad row stops it.
GOOD = {
    "quoted": ("a,b,c", ['"1\n",2,3', "0.5, 7 ,-0.0"]),
    "plain": ('"a\n",b,c', ["1,2,3", "0.5, 7 ,-0.0"]),
}
CASES = ([pytest.param("quoted", bad, id="+".join(bad)) for bad in KINDS + NEW_KINDS]
         + [pytest.param("plain", bad, id="plain-" + "+".join(bad)) for bad in KINDS + NEW_KINDS + MIXED_KINDS])


@pytest.mark.parametrize("label", ["b", "c"])
@pytest.mark.parametrize("kind", ["table", "table-strings", "matrix"])
@pytest.mark.parametrize("good, bad", CASES)
def test_bulk_parse_matches_the_row_loop(tmp_path, good, bad, kind, label):
    # Good rows before, between and after the bad ones.
    header, good = GOOD[good]
    rows = good + [row for name in bad for row in (BAD_ROWS[name], good[1])]
    path = tmp_path / "data.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    assert outcome(read, path, kind, label) == outcome(read_by_reference, path, kind, label)


def refuse(what):
    def fail(*args, **kwargs):
        raise AssertionError(f"{what} ran")

    return fail


def test_quote_free_tables_never_reach_the_csv_pass(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_text('a,b,c\n"1\n", 2 ,3\n4,5,-0.0\n', encoding="utf-8")
    with monkeypatch.context() as patch:  # a quoted cell is the csv pass's
        patch.setattr(np, "loadtxt", refuse("numpy's reader"))
        assert dataio.read_matrix(path)[1].tolist() == [[1, 2, 3], [4, 5, 0]]
        table = dataio.read_table(path, "b")
        assert table.features.tolist() == [[1, 3], [4, 0]]
        assert table.labels.tolist() == [2, 5]
        assert dataio.read_table(path, "b", numeric_labels=False).labels == ["2", "5"]
    monkeypatch.setattr(dataio, "read_csv_fields", refuse("the csv pass"))
    plain = tmp_path / "plain.csv"
    plain.write_text("a,b,c\n1, x ,3\n4,y,-0.0\n", encoding="utf-8")
    table = dataio.read_table(plain, "b", numeric_labels=False)  # a string label is numpy's
    assert table.features.tolist() == [[1, 3], [4, 0]]
    assert table.labels == ["x", "y"]
    plain.write_text("a,b,c\r\n1, 2 ,3\r\n4,\x855\u2003,-0.0\r\n", encoding="utf-8")
    assert dataio.read_matrix(plain)[1].tolist() == [[1, 2, 3], [4, 5, 0]]
    table = dataio.read_table(plain, "b")
    assert arrays_bits(table.features, table.labels) == arrays_bits(np.array([[1.0, 3], [4, -0.0]]), np.array([2.0, 5]))
    assert list(table.lines) == [2, 3]


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_forest_tables_with_string_labels_are_read_by_numpy(tmp_path, monkeypatch, end):
    monkeypatch.setattr(dataio, "read_csv_fields", refuse("the csv pass"))
    path = tmp_path / "forest.csv"
    lines = ["f0,f1,f2,f3,cls", "0.5,-1.25,2,0,c0", "1e-3,3,-0.0,4.75, c2 ", "2,0,1,-7,c1"]
    path.write_text(end.join(lines) + end, encoding="utf-8")
    table = dataio.read_table(path, "cls", numeric_labels=False)
    want = np.array([[0.5, -1.25, 2, 0], [1e-3, 3, -0.0, 4.75], [2, 0, 1, -7]])
    assert arrays_bits(table.features) == arrays_bits(want)
    assert table.labels == ["c0", "c2", "c1"]
    assert table.feature_names == ["f0", "f1", "f2", "f3"]
    assert list(table.lines) == [2, 3, 4]


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_quote_free_tables_are_read_without_the_row_loop(tmp_path, monkeypatch, end):
    monkeypatch.setattr(dataio, "_parse_rows", refuse("the row loop"))
    path = tmp_path / "data.csv"
    path.write_text(end.join(["a,b,c", "1, 2 ,3", "4,\x855\u2003,-0.0"]) + end, encoding="utf-8")
    assert arrays_bits(dataio.read_matrix(path)[1]) == arrays_bits(np.array([[1.0, 2, 3], [4, 5, -0.0]]))
    table = dataio.read_table(path, "b")
    assert arrays_bits(table.features, table.labels) == arrays_bits(np.array([[1.0, 3], [4, -0.0]]), np.array([2.0, 5]))
    assert list(table.lines) == [2, 3]
    path.write_text(end.join(["f0,f1,f2,f3,cls", "0.5,-1.25,2,0,c0", "1e-3,3,-0.0,4.75, c2 "]) + end, encoding="utf-8")
    table = dataio.read_table(path, "cls", numeric_labels=False)
    assert arrays_bits(table.features) == arrays_bits(np.array([[0.5, -1.25, 2, 0], [1e-3, 3, -0.0, 4.75]]))
    assert (table.labels, list(table.lines)) == (["c0", "c2"], [2, 3])


def test_labels_and_durations_wrapped_in_unit_separators_read_as_numbers(tmp_path, monkeypatch):
    # str.strip removes U+001C-U+001F, which float alone rejects: the csv
    # pass strips a label, and the call log's bulk pass a duration, before
    # float reads them (the table's cells send it to the csv pass)
    def row_loop(*args):
        raise AssertionError("the call row loop ran on a clean file")

    monkeypatch.setattr(aggregates, "parse_call_row", row_loop)
    table, calls = tmp_path / "data.csv", tmp_path / "calls.csv"
    table.write_text("x,y\n1,\x1f1\x1f\n2, \x1c-0.5\x1e\n", encoding="utf-8")
    read = dataio.read_table(table, "y")
    assert arrays_bits(read.features, read.labels) == arrays_bits(np.array([[1.0], [2.0]]), np.array([1.0, -0.5]))
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


_FLOAT_CELL = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(["nan", "-inf", "1e400"])


@st.composite
def _quote_free_text(draw) -> str:
    """A quote-free file: a header, then rows of cells padded with
    whitespace that float and numpy's reader both strip, or also with
    U+001C-U+001F, which only numpy's reader strips; some rows ragged,
    some lines blank, "\n" or "\r\n" line ends. Half the files draw
    every cell from _CELL, whose digit groups numpy's reader refuses."""
    pads = ["", " ", "\x0b", "\x0c", "\x85"] + draw(st.sampled_from([[], ["\x1c", "\x1d", "\x1e", "\x1f"]]))
    pad = st.sampled_from(pads)
    cell = st.tuples(pad, draw(st.sampled_from([_CELL, _FLOAT_CELL])), pad).map("".join)
    row = st.lists(cell, min_size=3, max_size=3).map(",".join)
    line = st.one_of(row, row, row, st.just(""), st.lists(cell, min_size=2, max_size=4).map(",".join))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(["a,b,c", draw(row), *draw(st.lists(line, max_size=7))])
    return text + end * draw(st.booleans())


@given(text=_quote_free_text(), kind=st.sampled_from(["table", "table-strings", "matrix"]),
       label=st.sampled_from(["b", "c"]))
@settings(max_examples=300, deadline=None)
def test_quote_free_files_read_as_the_row_loop_reads_them(tmp_path_factory, text, kind, label):
    path = tmp_path_factory.mktemp("plain") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(read, path, kind, label) == outcome(read_by_reference, path, kind, label)


@pytest.mark.parametrize("kind", ["table", "table-strings", "matrix"])
@pytest.mark.parametrize("body", ["1,2,3\n4,5,6\n7,8,9\n", "1,2,3\n4,5,6\n\n7,8,9\n", "1,2,3\r\n4,5,6\r7,8,9\r\n",
                                  "1,2,3\n4,5,6\n7,8"], ids=["plain", "blank", "lone-cr", "ragged"])
def test_tables_cut_in_small_blocks_read_as_the_row_loop_reads_them(tmp_path, monkeypatch, body, kind):
    monkeypatch.setattr(dataio, "_BLOCK", 3)  # each block holds a line or two
    path = tmp_path / "data.csv"
    path.write_text("a,b,c\n" + body, encoding="utf-8")
    assert outcome(read, path, kind, "b") == outcome(read_by_reference, path, kind, "b")


# ----------------------------------------------------- byte-order mark


BOM = b"\xef\xbb\xbf"


def test_a_byte_order_mark_is_not_read_as_text(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(b"x,y\n1,0\n2,1\n")
    marked.write_bytes(BOM + plain.read_bytes())
    assert dataio.read_csv_fields(marked) == dataio.read_csv_fields(plain)
    assert dataio.read_lines(marked) == dataio.read_lines(plain)
    assert dataio.read_table(marked, "x").feature_names == ["y"]


@pytest.mark.parametrize("prefix", [b"", BOM], ids=["plain", "marked"])
def test_bytes_that_are_not_utf8_are_named_by_line_after_a_mark(tmp_path, prefix):
    path = tmp_path / "data.csv"
    path.write_bytes(prefix + b"x,y\n1,0\n2,\xff\n")
    with pytest.raises(RowParseError) as exc:
        dataio.read_csv_fields(path)
    assert str(exc.value) == "row 3: not valid UTF-8"
