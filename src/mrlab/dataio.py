"""CSV and text file loading for the command-line tools.

All readers raise RowParseError with the 1-based file line number on
malformed content, so failures point at the offending line. Every reader
decodes its file through ``open_text``, which drops a leading byte-order
mark and names the line of the first byte that is not UTF-8.

Every CSV's header is read by ``csv.reader``. ``read_csv_fields`` reads
the data rows in one ``csv.reader`` pass that keeps no row list: it
gives them as ``Rows``, every data row's fields in one flat list, with
each row's field count and the file line it starts on beside it. A file
whose rows all have w fields holds column j as ``fields[j::w]``. ``Rows``
is also a dataset of rows for the engine and the samplers: a row by
index is a list sliced from the flat fields when it is asked for, a
slice is a ``Rows``, and ``nbytes`` sizes every field in one pass. A
field longer than ``csv.field_size_limit()`` raises RowParseError.

A numeric table (``read_matrix`` and ``read_table``) whose data lines
hold no quote, no U+001C-U+001F, no empty line and no line longer than
that limit is parsed by numpy's C reader, ``np.loadtxt``, which hands
each cell to the parser behind ``float``; string labels are cut from the
lines at their commas, as ``csv`` cuts a quote-free line. Its result is
kept when it holds one row of the header's width per line. Every other
file, and every file numpy refuses, is read by the flat pass and built
row by row by ``_parse_rows``, which parses each cell with ``float`` and
raises the error that names the first bad row. Either way a number
reads as ``float`` reads it.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
    """One document per non-empty line."""
    with open_text(path) as fh:
        text = fh.read()
    return [line for line in text.splitlines() if line.strip()]


def _read_header(fh, path) -> tuple[list[str], int]:
    """The header row read from fh with ``csv.reader``, and the number of
    file lines it takes."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInputError(f"{path}: empty file") from None
    except csv.Error as err:
        raise RowParseError(1, str(err)) from None
    return header, reader.line_num


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
        return len("".join(self.fields).encode("utf-8", "surrogatepass"))


def read_csv_fields(path) -> tuple[list[str], Rows]:
    """Raw CSV in one flat pass as (header, rows). A field longer than
    ``csv.field_size_limit()`` raises RowParseError naming the line on
    which its row starts."""
    with open_text(path) as fh:
        header, taken = _read_header(fh, path)
        reader = csv.reader(fh)  # reads on from the line after the header
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
    return header, Rows(fields, widths, lines)


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
    checked for non-finite values before the labels are. Every file goes
    to numpy's reader first; the csv pass reads the file again when that
    reader declines it.
    """
    read = _read_by_numpy(path, label, numeric_labels)
    if read is None:
        read = _read_by_csv(path, label, numeric_labels)
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


def _read_by_numpy(path, label, numeric_labels):
    """``_read_numeric``'s result, before its non-finite check, from numpy's
    C reader, or None when the file is one the csv pass must read.

    numpy hands each cell to the parser behind ``float``, so it reads a
    number to the same bits, and refuses what ``float`` refuses, except
    for U+001C-U+001F, which it strips. It is given only text after the
    header that holds no quote, none of those characters, no empty line
    (numpy skips one; a lone "\r" is an empty line ended by "\r\n") and
    no line longer than the csv field limit, and its result stands only
    when it reads one row of the header's width from each line. String
    labels are cut from each line at its commas, as ``csv`` cuts a
    quote-free line, and numpy reads the other columns; since numpy then
    skips the label column, the cut lines are what must have the
    header's width. Files with a missing label column or no data rows are
    left to the csv pass, which raises their errors.
    """
    with open_text(path) as fh:
        header, taken = _read_header(fh, path)
        text = fh.read()
    names = [h.strip() for h in header]
    if '"' in text or any(c in text for c in _SEPARATORS) or (label is not None and label not in names):
        return None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or "" in lines or "\r" in lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    n, width = len(lines), len(names)
    j = None if label is None else names.index(label)
    usecols, labels = None, []
    if j is not None and not numeric_labels:
        cells = [line.split(",") for line in lines]
        if any(len(row) != width for row in cells):
            return None
        labels = [row[j].strip() for row in cells]
        usecols, width = [k for k in range(width) if k != j], width - 1
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


def _read_by_csv(path, label, numeric_labels):
    """``_read_numeric``'s result, before its non-finite check, from
    ``read_csv_fields`` and the row loop ``_parse_rows``."""
    header, rows = read_csv_fields(path)
    names = [h.strip() for h in header]
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
