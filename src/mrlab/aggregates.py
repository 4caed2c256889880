"""Aggregation jobs over a phone-call log, plus classic word count.

These are the smallest real jobs the engine runs and double as its
integration tests: group durations by date, count calls per (date,
caller), count token occurrences. The call jobs read a ``CallLog``, the
log held dictionary-coded: dates, callers and callees are each a
vocabulary of distinct strings, sorted in ``str`` order, plus one
integer code a row, and durations are one float64 array. UTF-8 keeps
code-point order, so a vocabulary is also in its ``text_key`` byte
order, and a code's order is its key's order. The mappers read a
split's codes and emit one partial per distinct key in the split: a
count from one ``np.unique`` over (date, caller) codes, or the exact
sums of (duration, 1) rows from one ``numerics.exact_sums`` grouped by
date code. That is in-mapper combining, so the jobs need no combiner.
"""

from __future__ import annotations

import datetime
import functools
import math
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataio import read_csv_rows
from .encoding import (
    FIELD_SEP,
    count_value,
    f64s_row_blocks,
    f64s_value,
    parse_count,
    parse_f64s,
    text_key,
)
from .engine import ClusterConfig, InputSplit, JobSpec, RunStats, run_job
from .errors import RowParseError
from .numerics import exact_sums, sum_partials

CALL_HEADER = ("date", "caller", "callee", "duration")
_ISO_LEN = 10  # YYYY-MM-DD, the width of a date's key


@dataclass(frozen=True)
class CallRecord:
    date: datetime.date
    caller: str
    callee: str
    duration: float  # seconds

    @property
    def nbytes(self) -> int:
        """Bytes read: 10 for the ISO date, caller and callee in UTF-8 (a
        lone surrogate as its three-byte form, as in ``text_key``), 8 for
        the duration."""
        return 18 + len((self.caller + self.callee).encode("utf-8", "surrogatepass"))


def _iso(date: str) -> str:
    """The canonical ISO form of a date string; ValueError if it is none."""
    return datetime.date.fromisoformat(date.strip()).isoformat()


def _dictionary(column: Sequence[str], clean: Optional[Callable[[str], str]] = None):
    """A text column as (vocabulary, codes): its distinct values after
    ``clean``, sorted in ``str`` order, and each row's index into them.
    ``clean`` runs once per distinct raw value."""
    cleaned = {raw: clean(raw) if clean else raw for raw in set(column)}
    index = {value: code for code, value in enumerate(sorted(set(cleaned.values())))}
    codes = {raw: index[value] for raw, value in cleaned.items()}
    return tuple(index), np.fromiter(map(codes.__getitem__, column), np.intp, len(column))


@dataclass(frozen=True, eq=False)
class _Vocabularies:
    """A log's vocabularies, with the bytes its jobs and its ledger read
    of them, each built once and shared by every slice of the log."""

    dates: tuple[str, ...]
    callers: tuple[str, ...]
    callees: tuple[str, ...]

    @functools.cached_property
    def date_keys(self) -> list[bytes]:
        return [text_key(date) for date in self.dates]

    @functools.cached_property
    def date_prefixes(self) -> list[bytes]:
        """The head of a count key: the date's key, then the separator."""
        return [key + FIELD_SEP for key in self.date_keys]

    @functools.cached_property
    def caller_keys(self) -> list[bytes]:
        return [text_key(caller) for caller in self.callers]

    @functools.cached_property
    def text_nbytes(self) -> tuple[np.ndarray, np.ndarray]:
        """The UTF-8 bytes of each caller and of each callee."""
        callers = np.fromiter(map(len, self.caller_keys), np.int64, len(self.callers))
        callees = np.fromiter((len(text_key(c)) for c in self.callees), np.int64, len(self.callees))
        return callers, callees


def _decode(vocabulary: tuple[str, ...], codes: np.ndarray) -> tuple[str, ...]:
    return tuple(map(vocabulary.__getitem__, codes.tolist()))


class CallLog(Sequence):
    """A call log, dictionary-coded, one entry per call in log order.

    Dates (canonical ISO, YYYY-MM-DD), callers and callees are each a
    vocabulary sorted in ``str`` order plus one code a row; durations are
    one float64 array. ``dates``, ``callers``, ``callees`` and
    ``durations`` give the columns back as tuples, and two logs are equal
    when their columns are. A slice is a CallLog of the sliced rows that
    shares the vocabularies; an index gives that row as a CallRecord.
    """

    __slots__ = ("_vocab", "_codes", "_durations")

    def __init__(self, dates=(), callers=(), callees=(), durations=()):
        vocabularies, codes = zip(_dictionary(dates, _iso), _dictionary(callers), _dictionary(callees))
        self._vocab, self._codes = _Vocabularies(*vocabularies), codes
        self._durations = np.array(durations, dtype=float)
        if len({len(self._durations), *map(len, codes)}) != 1:
            raise ValueError("call log columns differ in length")

    @classmethod
    def _coded(cls, vocab: _Vocabularies, codes: tuple[np.ndarray, ...], durations: np.ndarray) -> "CallLog":
        log = cls.__new__(cls)
        log._vocab, log._codes, log._durations = vocab, codes, durations
        return log

    @classmethod
    def from_records(cls, records: Iterable[CallRecord]) -> "CallLog":
        return cls(*zip(*((r.date.isoformat(), r.caller, r.callee, r.duration) for r in records)))

    @property
    def dates(self) -> tuple[str, ...]:
        return _decode(self._vocab.dates, self._codes[0])

    @property
    def callers(self) -> tuple[str, ...]:
        return _decode(self._vocab.callers, self._codes[1])

    @property
    def callees(self) -> tuple[str, ...]:
        return _decode(self._vocab.callees, self._codes[2])

    @property
    def durations(self) -> tuple[float, ...]:
        return tuple(self._durations.tolist())

    def __len__(self) -> int:
        return len(self._durations)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CallLog):
            return NotImplemented
        return ((self.dates, self.callers, self.callees, self.durations)
                == (other.dates, other.callers, other.callees, other.durations))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return CallLog._coded(self._vocab, tuple(c[index] for c in self._codes), self._durations[index])
        date, caller, callee = (int(c[index]) for c in self._codes)
        return CallRecord(datetime.date.fromisoformat(self._vocab.dates[date]), self._vocab.callers[caller],
                          self._vocab.callees[callee], float(self._durations[index]))

    @property
    def nbytes(self) -> int:
        """Bytes read: the sum of its rows' ``CallRecord.nbytes``."""
        callers, callees = self._vocab.text_nbytes
        return 18 * len(self) + int(callers[self._codes[1]].sum() + callees[self._codes[2]].sum())


def parse_call_row(fields: Sequence[str], line: int) -> CallRecord:
    if len(fields) != 4:
        raise RowParseError(line, f"expected 4 fields, got {len(fields)}")
    date_s, caller, callee, duration_s = (f.strip() for f in fields)
    try:
        date = datetime.date.fromisoformat(date_s)
    except ValueError:
        raise RowParseError(line, f"bad ISO date {date_s!r}") from None
    try:
        duration = float(duration_s)
    except ValueError:
        raise RowParseError(line, f"bad duration {duration_s!r}") from None
    if not math.isfinite(duration):
        raise RowParseError(line, f"bad duration {duration_s!r}")
    if duration < 0:
        raise RowParseError(line, f"negative duration {duration_s!r}")
    return CallRecord(date, caller, callee, duration)


def _call_columns(rows: list[list[str]]) -> Optional[CallLog]:
    """The log of rows that ``parse_call_row`` accepts every one of, coded
    straight from the raw columns: each distinct date, caller and callee
    is stripped (a date also made canonical) once, and the stripped
    durations are parsed in one pass. ``rows`` is not empty; None exactly
    when ``parse_call_row`` rejects one of them."""
    if set(map(len, rows)) != {4}:
        return None
    raw_dates, callers, callees, raw_durations = zip(*rows)
    try:
        dates = _dictionary(raw_dates, _iso)
        durations = np.fromiter(map(float, map(str.strip, raw_durations)), float, len(rows))
    except ValueError:
        return None
    if not np.all(np.isfinite(durations)) or np.any(durations < 0):
        return None
    vocabularies, codes = zip(dates, _dictionary(callers, str.strip), _dictionary(callees, str.strip))
    return CallLog._coded(_Vocabularies(*vocabularies), codes, durations)


def read_call_csv(path) -> CallLog:
    """Load a call log: header date,caller,callee,duration, ISO dates.

    Dates are kept in canonical form, so ``20240101`` reads as
    ``2024-01-01``. The log is built in one pass over the columns; only
    when that pass refuses the file does ``parse_call_row`` run, row by
    row, to raise the RowParseError of the first bad row.
    """
    header, rows, lines = read_csv_rows(path)
    if tuple(h.strip().lower() for h in header) != CALL_HEADER:
        raise RowParseError(1, f"expected header {','.join(CALL_HEADER)}")
    if not rows:
        return CallLog()
    log = _call_columns(rows)
    if log is None:
        for row, line in zip(rows, lines):
            parse_call_row(row, line)
        raise AssertionError("parse_call_row accepted rows that the column pass refused")
    return log


def _as_log(records: Sequence[CallRecord] | CallLog) -> CallLog:
    return records if isinstance(records, CallLog) else CallLog.from_records(records)


def _count_reduce(key: bytes, values: list) -> list[tuple[bytes, bytes]]:
    return [(key, count_value(sum(map(parse_count, values))))]


def avg_duration_job() -> JobSpec:
    def mapper(split: InputSplit) -> list[tuple[bytes, bytes]]:
        log = split.records
        dates, sums = exact_sums(np.column_stack([log._durations, np.ones(len(log))]), log._codes[0])
        keys = log._vocab.date_keys
        return [(keys[date], v) for date, v in zip(dates.tolist(), f64s_row_blocks(sums))]

    def reducer(key, values):
        total, count = sum_partials(values)
        return [(key, f64s_value((total / count, count)))]

    return JobSpec(mapper, reducer)


def avg_duration_by_date(
    records: Sequence[CallRecord] | CallLog, config: Optional[ClusterConfig] = None,
) -> tuple[list[tuple[str, tuple[float, int]]], RunStats]:
    """Mean call duration per date, with the call count alongside."""
    log = _as_log(records)
    if not log:
        return [], RunStats()
    output, stats = run_job(avg_duration_job(), log, config)
    means = [(key.decode("ascii"), parse_f64s(value)) for key, value in output]
    return [(date, (float(mean), int(count))) for date, (mean, count) in means], stats


def calls_per_caller_job() -> JobSpec:
    def mapper(split: InputSplit) -> list[tuple[bytes, bytes]]:
        log = split.records
        dates, callers, _callees = log._codes
        width = len(log._vocab.callers)
        pairs, counts = np.unique(dates * width + callers, return_counts=True)
        dates, callers = np.divmod(pairs, width)
        heads, tails = log._vocab.date_prefixes, log._vocab.caller_keys
        return [(heads[d] + tails[c], count_value(n))
                for d, c, n in zip(dates.tolist(), callers.tolist(), counts.tolist())]

    return JobSpec(mapper, _count_reduce)


def _date_and_caller(key: bytes) -> tuple[str, str]:
    """A count key read at the date's fixed width, so that a caller
    holding U+001F comes back whole."""
    text = key.decode("utf-8", "surrogatepass")
    return text[:_ISO_LEN], text[_ISO_LEN + 1:]


def calls_per_date_number(
    records: Sequence[CallRecord] | CallLog, config: Optional[ClusterConfig] = None,
) -> tuple[list[tuple[tuple[str, str], int]], RunStats]:
    """Number of calls placed per (date, caller number)."""
    log = _as_log(records)
    if not log:
        return [], RunStats()
    output, stats = run_job(calls_per_caller_job(), log, config)
    return [(_date_and_caller(k), parse_count(v)) for k, v in output], stats


def word_count_job() -> JobSpec:
    def mapper(split: InputSplit) -> list[tuple[bytes, bytes]]:
        counts = Counter(token for document in split.records for token in document.split())
        return [(text_key(token), count_value(n)) for token, n in counts.items()]

    return JobSpec(mapper, _count_reduce)


def word_count(
    documents: Sequence[str], config: Optional[ClusterConfig] = None,
) -> tuple[list[tuple[str, int]], RunStats]:
    """Token occurrence counts; tokens split on whitespace."""
    if not documents:
        return [], RunStats()
    output, stats = run_job(word_count_job(), documents, config)
    return [(k.decode("utf-8", "surrogatepass"), parse_count(v)) for k, v in output], stats
