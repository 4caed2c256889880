"""Aggregation jobs over a phone-call log, plus classic word count.

These are the smallest real jobs the engine runs and double as its
integration tests: group durations by date, count calls per (date,
caller), count token occurrences. Each mapper folds its split into one
partial per distinct key, a count or an (fsum, count) pair: in-mapper
combining, so the jobs need no combiner.
"""

from __future__ import annotations

import datetime
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .dataio import read_csv_rows
from .encoding import (
    count_value,
    f64s_value,
    parse_count,
    parse_f64s,
    parse_f64s_rows,
    split_text_key,
    text_key,
)
from .engine import ClusterConfig, InputSplit, JobSpec, KeyValue, RunStats, run_job
from .errors import RowParseError
from .numerics import fsum_vectors

CALL_HEADER = ("date", "caller", "callee", "duration")


@dataclass(frozen=True)
class CallRecord:
    date: datetime.date
    caller: str
    callee: str
    duration: float  # seconds

    @property
    def nbytes(self) -> int:
        """Bytes read: 10 for the ISO date, caller and callee in UTF-8, 8 for the duration."""
        return 18 + len(self.caller.encode("utf-8")) + len(self.callee.encode("utf-8"))


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


def read_call_csv(path) -> list[CallRecord]:
    """Load a call log: header date,caller,callee,duration, ISO dates."""
    header, rows, lines = read_csv_rows(path)
    if tuple(h.strip().lower() for h in header) != CALL_HEADER:
        raise RowParseError(1, f"expected header {','.join(CALL_HEADER)}")
    return [parse_call_row(row, line) for row, line in zip(rows, lines)]


def _count_reduce(key: bytes, values: list) -> list[KeyValue]:
    return [KeyValue(key, count_value(sum(parse_count(v) for v in values)))]


def avg_duration_job() -> JobSpec:
    def mapper(split: InputSplit) -> list[KeyValue]:
        durations: dict[datetime.date, list[float]] = {}
        for record in split.records:
            durations.setdefault(record.date, []).append(record.duration)
        return [KeyValue(text_key(date.isoformat()), f64s_value((math.fsum(ds), len(ds))))
                for date, ds in durations.items()]

    def reducer(key, values):
        total, count = fsum_vectors(parse_f64s_rows(values))
        return [KeyValue(key, f64s_value((total / count, count)))]

    return JobSpec(mapper, reducer, name="avg-duration")


def avg_duration_by_date(
    records: Sequence[CallRecord], config: Optional[ClusterConfig] = None,
) -> tuple[list[tuple[str, tuple[float, int]]], RunStats]:
    """Mean call duration per date, with the call count alongside."""
    if not records:
        return [], RunStats()
    output, stats = run_job(avg_duration_job(), records, config or ClusterConfig())
    means = [(split_text_key(key)[0], parse_f64s(value)) for key, value in output]
    return [(date, (float(mean), int(count))) for date, (mean, count) in means], stats


def calls_per_caller_job() -> JobSpec:
    def mapper(split: InputSplit) -> list[KeyValue]:
        counts = Counter((record.date, record.caller) for record in split.records)
        return [KeyValue(text_key(d.isoformat(), c), count_value(n)) for (d, c), n in counts.items()]

    return JobSpec(mapper, _count_reduce, name="calls-count")


def calls_per_date_number(
    records: Sequence[CallRecord], config: Optional[ClusterConfig] = None,
) -> tuple[list[tuple[tuple[str, str], int]], RunStats]:
    """Number of calls placed per (date, caller number)."""
    if not records:
        return [], RunStats()
    output, stats = run_job(calls_per_caller_job(), records, config or ClusterConfig())
    return [(split_text_key(k), parse_count(v)) for k, v in output], stats


def word_count_job() -> JobSpec:
    def mapper(split: InputSplit) -> list[KeyValue]:
        counts = Counter(token for document in split.records for token in document.split())
        return [KeyValue(token.encode("utf-8"), count_value(n)) for token, n in counts.items()]

    return JobSpec(mapper, _count_reduce, name="word-count")


def word_count(
    documents: Sequence[str], config: Optional[ClusterConfig] = None,
) -> tuple[list[tuple[str, int]], RunStats]:
    """Token occurrence counts; tokens split on whitespace."""
    if not documents:
        return [], RunStats()
    output, stats = run_job(word_count_job(), documents, config or ClusterConfig())
    return [(k.decode("utf-8"), parse_count(v)) for k, v in output], stats
