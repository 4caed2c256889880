"""Aggregation jobs over a phone-call log, plus classic word count.

These are the smallest real jobs the engine runs and double as its
integration tests: group durations by date, count calls per (date,
caller), count token occurrences. The call jobs read a ``CallLog``, the
log held as columns, and their mappers fold a split's columns. Each
mapper emits one partial per distinct key in its split, a count or the
exact sums of (duration, 1) rows from one grouped
``numerics.exact_sums`` keyed by date: in-mapper combining, so the jobs
need no combiner.
"""

from __future__ import annotations

import datetime
import math
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataio import read_csv_rows
from .encoding import count_value, f64s_row_blocks, f64s_value, parse_count, parse_f64s, split_text_key, text_key
from .engine import ClusterConfig, InputSplit, JobSpec, RunStats, run_job
from .errors import RowParseError
from .numerics import exact_sums, sum_partials

CALL_HEADER = ("date", "caller", "callee", "duration")


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


@dataclass(frozen=True)
class CallLog(Sequence):
    """A call log as columns, one entry per call in log order.

    ``dates`` hold ISO date strings (YYYY-MM-DD). A slice is a CallLog of
    the sliced rows; an index gives that row as a CallRecord.
    """

    dates: tuple[str, ...] = ()
    callers: tuple[str, ...] = ()
    callees: tuple[str, ...] = ()
    durations: tuple[float, ...] = ()

    @classmethod
    def from_records(cls, records: Iterable[CallRecord]) -> "CallLog":
        return cls(*zip(*((r.date.isoformat(), r.caller, r.callee, r.duration) for r in records)))

    def __len__(self) -> int:
        return len(self.dates)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return CallLog(self.dates[index], self.callers[index], self.callees[index], self.durations[index])
        return CallRecord(datetime.date.fromisoformat(self.dates[index]), self.callers[index],
                          self.callees[index], self.durations[index])

    @property
    def nbytes(self) -> int:
        """Bytes read: the sum of its rows' ``CallRecord.nbytes``."""
        return 18 * len(self) + len("".join(self.callers + self.callees).encode("utf-8", "surrogatepass"))


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
    """The log of rows that ``parse_call_row`` accepts every one of, parsed
    a column at a time and each distinct date string once; None if any row
    is malformed or there are none."""
    if set(map(len, rows)) != {4}:
        return None
    raw_dates, callers, callees, raw_durations = zip(*rows)
    try:
        iso = {s: datetime.date.fromisoformat(s.strip()).isoformat() for s in set(raw_dates)}
        durations = tuple(map(float, map(str.strip, raw_durations)))
    except ValueError:
        return None
    if not all(map(math.isfinite, durations)) or min(durations) < 0:
        return None
    return CallLog(tuple(map(iso.__getitem__, raw_dates)), tuple(map(str.strip, callers)),
                   tuple(map(str.strip, callees)), durations)


def read_call_csv(path) -> CallLog:
    """Load a call log: header date,caller,callee,duration, ISO dates.

    Dates are kept in canonical form, so ``20240101`` reads as
    ``2024-01-01``. A malformed file raises the RowParseError that
    ``parse_call_row`` gives its first bad row.
    """
    header, rows, lines = read_csv_rows(path)
    if tuple(h.strip().lower() for h in header) != CALL_HEADER:
        raise RowParseError(1, f"expected header {','.join(CALL_HEADER)}")
    log = _call_columns(rows)
    if log is None:  # parse row by row, to name the first bad row
        log = CallLog.from_records(parse_call_row(row, line) for row, line in zip(rows, lines))
    return log


def _as_log(records: Sequence[CallRecord] | CallLog) -> CallLog:
    return records if isinstance(records, CallLog) else CallLog.from_records(records)


def _count_reduce(key: bytes, values: list) -> list[tuple[bytes, bytes]]:
    return [(key, count_value(sum(map(parse_count, values))))]


def avg_duration_job() -> JobSpec:
    def mapper(split: InputSplit) -> list[tuple[bytes, bytes]]:
        log = split.records
        dates, date_ids = np.unique(log.dates, return_inverse=True)
        _ids, sums = exact_sums(np.column_stack([log.durations, np.ones(len(log))]), date_ids)
        return [(text_key(date), v) for date, v in zip(dates.tolist(), f64s_row_blocks(sums))]

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
    means = [(split_text_key(key)[0], parse_f64s(value)) for key, value in output]
    return [(date, (float(mean), int(count))) for date, (mean, count) in means], stats


def calls_per_caller_job() -> JobSpec:
    def mapper(split: InputSplit) -> list[tuple[bytes, bytes]]:
        counts = Counter(zip(split.records.dates, split.records.callers))
        return [(text_key(d, c), count_value(n)) for (d, c), n in counts.items()]

    return JobSpec(mapper, _count_reduce)


def calls_per_date_number(
    records: Sequence[CallRecord] | CallLog, config: Optional[ClusterConfig] = None,
) -> tuple[list[tuple[tuple[str, str], int]], RunStats]:
    """Number of calls placed per (date, caller number)."""
    log = _as_log(records)
    if not log:
        return [], RunStats()
    output, stats = run_job(calls_per_caller_job(), log, config)
    return [(split_text_key(k), parse_count(v)) for k, v in output], stats


def word_count_job() -> JobSpec:
    def mapper(split: InputSplit) -> list[tuple[bytes, bytes]]:
        counts = Counter(token for document in split.records for token in document.split())
        # str.split() splits on U+001F too, so a token is one text_key field
        return [(text_key(token), count_value(n)) for token, n in counts.items()]

    return JobSpec(mapper, _count_reduce)


def word_count(
    documents: Sequence[str], config: Optional[ClusterConfig] = None,
) -> tuple[list[tuple[str, int]], RunStats]:
    """Token occurrence counts; tokens split on whitespace."""
    if not documents:
        return [], RunStats()
    output, stats = run_job(word_count_job(), documents, config)
    return [(split_text_key(k)[0], parse_count(v)) for k, v in output], stats
