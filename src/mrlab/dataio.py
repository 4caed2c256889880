"""CSV and text file loading for the command-line tools.

All readers raise RowParseError with the 1-based file line number on
malformed content, so failures point at the offending line. Every reader
decodes its file through ``open_text``, which drops a leading byte-order
mark and names the line of the first byte that is not UTF-8.

Every CSV's header is read by ``csv.reader``, and the text after it is
read and decoded once. ``read_csv_fields`` gives the data rows as
``Rows``: every data row's fields in one flat list, with each row's
field count and the file line it starts on beside it. A file whose rows
all have w fields holds column j as ``fields[j::w]``. ``Rows`` is also a
dataset of rows for the engine and the samplers: a row by index is a
list sliced from the flat fields when it is asked for, a slice is a
``Rows``, and ``nbytes`` sizes every field in one pass.

Three readers share the text, and the text picks one:

- The quote-free cut (``_cut``). Text with no quote, no lone "\r", no
  blank line and no line longer than ``csv.field_size_limit()`` is cut
  as ``csv`` would cut it: each line is a row, split at its commas. The
  text is taken a block of whole lines at a time: the row widths are
  counted from the comma and newline bytes of a block's UTF-8 form, and
  once every block has been checked and counted, one ``str.split`` a
  block gives the fields.
- numpy's C reader, ``np.loadtxt``, for a numeric table (``read_matrix``
  and ``read_table``) whose text ``_quote_free`` accepts and that holds
  no U+001C-U+001F. numpy hands each cell to the parser behind ``float``;
  string labels are taken from the cut's fields, which the row loop
  reads too if numpy refuses the table. Its result is kept when it holds
  one row of the header's width per line.
- The ``csv`` pass, one ``csv.reader`` over the text, for every other
  text; a field longer than the field limit raises RowParseError. A
  numeric table that numpy refuses is built from its rows, cut or read
  by ``csv``, row by row by ``_parse_rows``, which parses each cell with
  ``float`` and raises the error that names the first bad row. Either
  way a number reads as ``float`` reads it.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import record_nbytes
from .errors import EmptyInputError, ParameterError, RowParseError


@dataclass(frozen=True)
class Table:
    """A numeric feature matrix plus one designated label column."""

    features: np.ndarray  # shape (n, p)
    labels: np.ndarray | list  # floats, shape (n,); the stripped strings unless numeric
    feature_names: list
    lines: Sequence[int]  # the file line on which each row starts


@contextlib.contextmanager
def open_text(path):
    """Open a UTF-8 text file for reading, untranslated (newline=""),
    without its byte-order mark if it has one.

    Bytes that are not UTF-8, met anywhere in the ``with`` body, raise
    RowParseError naming the file line that holds the first of them.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")  # not utf-8-sig, whose offsets skip the mark
            except UnicodeDecodeError as err:
                raise RowParseError(data.count(b"\n", 0, err.start) + 1, "not valid UTF-8") from None
            raise


def read_lines(path) -> list[str]:
    """One document per line that is not blank. Lines end at "\n",
    "\r\n" or a lone "\r", as the CSV readers' lines do; unlike
    ``str.splitlines``, "\v", "\f", U+001C-U+001E, U+0085, U+2028 and
    U+2029 end none."""
    with open_text(path) as fh:
        text = fh.read()
    return [line for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n") if line.strip()]


def _read_csv_text(path) -> tuple[list[str], int, str]:
    """A CSV file's header row, read with ``csv.reader``, the number of
    file lines it takes, and the text after it, decoded once."""
    with open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInputError(f"{path}: empty file") from None
        except csv.Error as err:
            raise RowParseError(1, str(err)) from None
        return header, reader.line_num, fh.read()


@dataclass(frozen=True)
class Rows:
    """CSV data rows held flat: every row's string fields in one list,
    each row's field count, and the file line on which each row starts
    (a quoted field may span lines).

    As a dataset it has one record per row: a row by index is a new list
    sliced from ``fields``, a slice is a ``Rows``, iteration yields the
    rows in order, and ``nbytes`` is the UTF-8 size of every field, the
    sum the engine's record walk gives a list of these rows. The row
    offsets are built on the first index, slice or iteration.
    """

    fields: list[str]
    widths: list[int]
    lines: list[int]

    def __len__(self) -> int:
        return len(self.widths)

    @functools.cached_property
    def _offsets(self) -> list[int]:
        """Where each row starts in ``fields``, then where the last ends."""
        return [0, *itertools.accumulate(self.widths)]

    def __getitem__(self, index):
        offsets = self._offsets
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise ValueError("a slice of rows takes no step")
            return Rows(self.fields[offsets[start]:offsets[stop]], self.widths[start:stop], self.lines[start:stop])
        i = range(len(self))[index]  # a negative index counts from the end; IndexError past it
        return self.fields[offsets[i]:offsets[i + 1]]

    def __iter__(self):
        return (self.fields[start:stop] for start, stop in itertools.pairwise(self._offsets))

    @functools.cached_property
    def nbytes(self) -> int:
        return record_nbytes("".join(self.fields))


def read_csv_fields(path) -> tuple[list[str], Rows]:
    """Raw CSV as (header, rows). A field longer than
    ``csv.field_size_limit()`` raises RowParseError naming the line on
    which its row starts."""
    header, taken, text = _read_csv_text(path)
    return header, _rows(text, taken, _cut(text))


def _quote_free_lines(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The UTF-8 bytes of quote-free text and the offset at which each of
    its lines starts, when ``csv`` would cut every line at its commas,
    else None. That needs text with no lone "\r" (a "\r\n" ends a line
    as "\n" does), no blank line and no line longer than
    ``csv.field_size_limit()`` in UTF-8 bytes, which are at least its
    characters. Line ends are found in the bytes: "\n" and "\r" are
    ASCII, so neither is ever part of a longer character.
    """
    data = np.frombuffer(text.encode("utf-8"), np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    if not text.endswith("\n"):
        ends = np.append(ends, data.size)
    starts = np.append(0, ends[:-1] + 1)
    lengths = ends - starts
    if "\r" in text:
        crs = np.flatnonzero(data == ord("\r"))
        if crs[-1] + 1 == data.size or np.any(data[crs + 1] != ord("\n")):
            return None
        lengths[np.searchsorted(ends, crs)] -= 1  # the "\r" of its line's "\r\n"
    if lengths.min() == 0 or lengths.max() > csv.field_size_limit():  # "" is one blank line
        return None
    return data, starts


# The quote-free cut takes text about this many characters at a time, so
# that its temporaries beside the whole text (a block's UTF-8 bytes, masks
# and comma-joined copy) stay small.
_BLOCK = 1 << 16


def _blocks(text: str):
    """text in blocks of whole lines, each but the last of more than
    ``_BLOCK`` characters."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _BLOCK) + 1 or len(text)
        yield text[start:stop]
        start = stop


def _refused_at_once(text: str) -> bool:
    """Whether a scan in C finds, without cutting text, what the cut
    refuses: a quote, which ``_quote_free_lines`` is never given, or a
    blank first or last line."""
    return '"' in text or text.startswith(("\n", "\r\n")) or text.endswith(("\n\n", "\n\r\n"))


def _quote_free(text: str) -> bool:
    """Whether ``_quote_free_lines`` accepts each of text's ``_blocks``."""
    return not _refused_at_once(text) and all(_quote_free_lines(block) is not None for block in _blocks(text))


def _cut(text: str) -> tuple[list[str], list[int]] | None:
    """The lines of text cut at their commas, as ``csv`` cuts them, when
    ``_quote_free_lines`` accepts each of its ``_blocks``: every field in
    one flat list, and each line's field count (its commas, found in the
    UTF-8 bytes, plus one); else None. Every block is checked, and its
    widths counted, before any is split, so a text refused late costs no
    splitting."""
    if _refused_at_once(text):
        return None
    widths = []
    for block in _blocks(text):
        lines = _quote_free_lines(block)
        if lines is None:
            return None
        data, starts = lines
        # np.add.reduceat over the comma mask would count them in one call,
        # but it casts the whole mask to a temporary of 8 bytes a byte.
        commas = np.flatnonzero(data == ord(","))
        widths += (np.diff(np.searchsorted(commas, starts), append=commas.size) + 1).tolist()
    fields = []
    for block in _blocks(text):
        fields += (block.replace("\r\n", ",") if "\r" in block else block).replace("\n", ",").split(",")
        if block.endswith("\n"):
            fields.pop()  # the block's final line end starts no line
    return fields, widths


def _rows(text: str, taken: int, cut) -> Rows:
    """The data rows of text, the file after a header that takes
    ``taken`` lines: those of ``cut``, which is ``_cut(text)``, when it
    cut the text, else those ``csv.reader`` reads, where a field longer
    than the field limit raises RowParseError."""
    if cut is not None:
        fields, widths = cut
        return Rows(fields, widths, list(range(taken + 1, taken + 1 + len(widths))))
    reader = csv.reader(io.StringIO(text, newline=""))
    fields, widths, lines = [], [], []
    start = taken + 1
    try:
        for row in reader:
            fields.extend(row)
            widths.append(len(row))
            lines.append(start)
            start = taken + reader.line_num + 1
    except csv.Error as err:
        raise RowParseError(start, str(err)) from None
    return Rows(fields, widths, lines)


def write_csv_rows(path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_numeric(path, label, numeric_labels: bool, nonfinite: str):
    """A numeric CSV as (names, matrix of every column but the label,
    labels, row lines); the labels are floats if numeric_labels, else
    the stripped label strings, and [] with no label column.

    Each row must have one field per name; errors name the row's file
    line. A row's label is parsed after its other fields; the matrix is
    checked for non-finite values before the labels are. The file is
    read and decoded once; its text goes to numpy's reader first, and to
    the rows of ``_rows`` when that reader declines it. Those rows are
    made at most once.
    """
    header, taken, text = _read_csv_text(path)
    names = [h.strip() for h in header]
    # String labels are taken from the rows, so numpy's reader and the
    # row loop share the one cut (or csv pass) of the text. _cut cuts
    # exactly the texts _quote_free accepts, so a text it refused is not
    # numpy's, and one it cut needs no second check.
    strings = label is not None and not numeric_labels
    cut = _cut(text) if strings else None
    rows = _rows(text, taken, cut) if strings else None
    read = None if strings and cut is None else _read_by_numpy(names, text, rows, taken, label, numeric_labels)
    if read is None:
        read = _read_by_rows(path, names, _rows(text, taken, _cut(text)) if rows is None else rows, label, numeric_labels)
    names, matrix, labels, lines = read
    if not np.all(np.isfinite(matrix)):
        r = int(np.argwhere(~np.isfinite(matrix))[0][0])
        raise RowParseError(lines[r], nonfinite)
    if numeric_labels:
        bad = np.flatnonzero(~np.isfinite(labels))
        if bad.size:
            raise RowParseError(lines[bad[0]], "non-finite label")
    return read


# Characters that numpy's reader strips around a number and ``float``
# refuses (``str.strip`` removes them too).
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _read_by_numpy(names, text, rows, taken, label, numeric_labels):
    """``_read_numeric``'s result, before its non-finite check, from numpy's
    C reader, or None when the file is one the row loop must read.

    numpy hands each cell to the parser behind ``float``, so it reads a
    number to the same bits, and refuses what ``float`` refuses, except
    for U+001C-U+001F, which it strips. It is given only text after the
    header that holds none of those characters and that ``_quote_free``
    accepts (numpy would skip a blank line), and its result stands only
    when it reads one row of the header's width from each line. String
    labels are taken from ``rows``, given only when ``_cut`` cut them
    from the text (so ``_quote_free`` need not check it), when every row
    has the header's width, and numpy reads the other columns. Files with
    a missing label column or no data rows are left to the row loop's
    side, which raises their errors.
    """
    if (not text or any(c in text for c in _SEPARATORS) or (label is not None and label not in names)
            or (rows is None and not _quote_free(text))):
        return None
    width = len(names)
    j = None if label is None else names.index(label)
    usecols, labels = None, []
    if rows is not None:
        if set(rows.widths) != {width}:
            return None
        labels = [cell.strip() for cell in rows.fields[j::width]]
        usecols, width = [k for k in range(width) if k != j], width - 1
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    n = len(lines)
    try:  # max_rows=n sizes the result once, where numpy would grow it
        matrix = np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2, max_rows=n, usecols=usecols)
    except ValueError:
        return None
    if matrix.shape != (n, width):
        return None
    rows = range(taken + 1, taken + 1 + n)
    if j is None or not numeric_labels:
        return names, matrix, labels, rows
    return names, np.delete(matrix, j, axis=1), matrix[:, j].copy(), rows


def _read_by_rows(path, names, rows: Rows, label, numeric_labels):
    """``_read_numeric``'s result, before its non-finite check, from the
    file's rows and the row loop ``_parse_rows``."""
    if label is not None and label not in names:
        raise ParameterError(f"label column {label!r} not in header {names}")
    if not rows:
        raise EmptyInputError(f"{path}: no data rows")
    label_idx = None if label is None else names.index(label)
    return (names, *_parse_rows(rows, names, label_idx, numeric_labels), rows.lines)


def _parse_rows(rows: Rows, names, label_idx, numeric_labels):
    """The matrix and labels of ``rows``, parsed row by row with
    ``float``; raises RowParseError at the first row with the wrong field
    count or a cell that does not parse."""
    cells, labels = [], []
    for row, line in zip(rows, rows.lines):
        if len(row) != len(names):
            raise RowParseError(line, f"expected {len(names)} fields, got {len(row)}")
        for j, cell in enumerate(row):
            if j == label_idx:
                continue
            try:
                cells.append(float(cell))
            except ValueError:
                raise RowParseError(line, f"bad numeric value {cell!r} in column {names[j]!r}") from None
        if label_idx is None:
            continue
        raw = row[label_idx].strip()
        if numeric_labels:
            try:
                raw = float(raw)
            except ValueError:
                raise RowParseError(line, f"bad numeric label {raw!r}") from None
        labels.append(raw)
    matrix = np.array(cells, dtype=float).reshape(len(rows), len(names) - (label_idx is not None))
    return matrix, np.array(labels, dtype=float) if numeric_labels else labels


def read_matrix(path) -> tuple[list[str], np.ndarray]:
    """Load an all-numeric CSV with a header as (column names, matrix)."""
    names, matrix, _labels, _lines = _read_numeric(path, None, False, "non-finite value")
    return names, matrix


def read_table(path, label: str, *, numeric_labels: bool = True) -> Table:
    """Load a numeric CSV with a header into features + label column.

    Every non-label column becomes a float feature. Label values are
    parsed as floats when numeric_labels is set, else kept as stripped
    strings (classification tasks map strings to classes later).
    """
    names, features, labels, lines = _read_numeric(
        path, label, numeric_labels, "non-finite feature value",
    )
    label_idx = names.index(label)
    feature_names = [n for i, n in enumerate(names) if i != label_idx]
    return Table(features, labels, feature_names, lines)
