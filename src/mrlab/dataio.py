"""CSV and text file loading for the command-line tools.

All readers raise RowParseError with the 1-based file line number on
malformed content, so failures point at the offending line. Every reader
decodes its file through ``open_text``, which drops a leading byte-order
mark and names the line of the first byte that is not UTF-8.

Every CSV is read in one ``csv.reader`` pass that keeps no row list:
``read_csv_fields`` gives every data row's fields as one flat list, with
each row's field count and the file line it starts on beside it. A file
whose rows all have w fields holds column j as ``fields[j::w]``.
``read_csv_rows`` is the row view of the same pass, for callers whose
records are rows.

Numeric tables are parsed in bulk, and only the bulk pass builds one:
one pass of Python's ``float`` over every feature cell into a single
array, and one over the stripped label strings. It accepts exactly the
rows that the row scan ``_parse_rows`` accepts. The row scan runs only
when the bulk pass refuses a file, on rows sliced from the flat fields;
it builds nothing and raises the error that names the first bad row.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyInputError, ParameterError, RowParseError


@dataclass(frozen=True)
class Table:
    """A numeric feature matrix plus one designated label column."""

    features: np.ndarray  # shape (n, p)
    labels: np.ndarray  # float labels, shape (n,)
    raw_labels: list  # original label strings, same order
    feature_names: list
    lines: list  # the file line on which each row starts


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


def read_csv_fields(path) -> tuple[list[str], list[str], list[int], list[int]]:
    """Raw CSV in one flat pass as (header, fields, widths, lines): every
    data row's string fields in one list, each row's field count, and
    the file line on which each row starts (a quoted field may span
    lines)."""
    with open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInputError(f"{path}: empty file") from None
        fields, widths, lines = [], [], []
        start = reader.line_num + 1
        for row in reader:
            fields.extend(row)
            widths.append(len(row))
            lines.append(start)
            start = reader.line_num + 1
    return header, fields, widths, lines


def iter_rows(fields: list[str], widths: list[int]):
    """The rows of a flat field list, each a new list sliced from it."""
    start = 0
    for width in widths:
        yield fields[start:start + width]
        start += width


def read_csv_rows(path) -> tuple[list[str], list[list[str]], list[int]]:
    """Raw CSV as (header, rows, lines): ``read_csv_fields`` with its
    fields cut back into one list per row."""
    header, fields, widths, lines = read_csv_fields(path)
    return header, list(iter_rows(fields, widths)), lines


def write_csv_rows(path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _parse_numeric(fields, widths, lines, names, nonfinite: str, label_idx=None, numeric_labels=False):
    """Parse flat CSV fields as floats: (matrix of every column but
    label_idx, stripped label strings, labels as floats, zeros unless
    numeric_labels).

    Each row must have one field per name; errors name the row's file
    line. A row's label is parsed after its other fields; the matrix is
    checked for non-finite values before the labels are.
    """
    parsed = _parse_bulk(fields, widths, len(names), label_idx, numeric_labels)
    if parsed is None:
        _parse_rows(iter_rows(fields, widths), lines, names, label_idx, numeric_labels)
        raise AssertionError("the row scan accepted rows that the bulk parse refused")
    matrix, raw_labels, labels = parsed
    if not np.all(np.isfinite(matrix)):
        r = int(np.argwhere(~np.isfinite(matrix))[0][0])
        raise RowParseError(lines[r], nonfinite)
    bad = np.flatnonzero(~np.isfinite(labels))
    if bad.size:
        raise RowParseError(lines[bad[0]], "non-finite label")
    return matrix, raw_labels, labels


def _parse_bulk(fields, widths, width: int, label_idx, numeric_labels):
    """``_parse_numeric``'s result from one ``float`` pass over every
    feature cell and one over the stripped labels, or None if a row has
    the wrong field count or a cell does not parse, exactly when
    ``_parse_rows`` raises."""
    if set(widths) != {width}:
        return None
    cells = fields
    raw_labels = []
    if label_idx is not None:  # leave the label cell out
        raw_labels = list(map(str.strip, fields[label_idx::width]))
        cells = itertools.compress(cells, itertools.cycle([j != label_idx for j in range(width)]))
        width -= 1
    n = len(widths)
    try:
        matrix = np.fromiter(map(float, cells), float, n * width).reshape(n, width)
        labels = np.fromiter(map(float, raw_labels), float, n) if numeric_labels else np.zeros(n)
    except ValueError:
        return None
    return matrix, raw_labels, labels


def _parse_rows(rows, lines, names, label_idx, numeric_labels) -> None:
    """The row-by-row scan: raises RowParseError at the first row with
    the wrong field count or a cell that does not parse."""
    for row, line in zip(rows, lines):
        if len(row) != len(names):
            raise RowParseError(line, f"expected {len(names)} fields, got {len(row)}")
        for j, cell in enumerate(row):
            if j == label_idx:
                continue
            try:
                float(cell)
            except ValueError:
                raise RowParseError(line, f"bad numeric value {cell!r} in column {names[j]!r}") from None
        if numeric_labels:
            raw = row[label_idx].strip()
            try:
                float(raw)
            except ValueError:
                raise RowParseError(line, f"bad numeric label {raw!r}") from None


def read_matrix(path) -> tuple[list[str], np.ndarray]:
    """Load an all-numeric CSV with a header as (column names, matrix)."""
    header, fields, widths, lines = read_csv_fields(path)
    names = [h.strip() for h in header]
    if not widths:
        raise EmptyInputError(f"{path}: no data rows")
    matrix, _raw_labels, _labels = _parse_numeric(fields, widths, lines, names, "non-finite value")
    return names, matrix


def read_table(path, label: str, *, numeric_labels: bool = True) -> Table:
    """Load a numeric CSV with a header into features + label column.

    Every non-label column becomes a float feature. Label values are
    parsed as floats when numeric_labels is set and kept as raw strings
    either way (classification tasks map strings to classes later).
    """
    header, fields, widths, lines = read_csv_fields(path)
    names = [h.strip() for h in header]
    if label not in names:
        raise ParameterError(f"label column {label!r} not in header {names}")
    label_idx = names.index(label)
    feature_names = [n for i, n in enumerate(names) if i != label_idx]
    if not widths:
        raise EmptyInputError(f"{path}: no data rows")
    features, raw_labels, labels = _parse_numeric(
        fields, widths, lines, names, "non-finite feature value", label_idx, numeric_labels,
    )
    return Table(features, labels, raw_labels, feature_names, lines)
