"""Aggregation jobs over a phone-call log, plus classic word count.

These are the smallest real jobs the engine runs and double as its
integration tests: group durations by date, count calls per (date,
caller), count token occurrences. Reducers emit (sum, count) style
payloads so combiners can merge partials without losing exactness.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .encoding import (
    count_value,
    f64s_value,
    parse_count,
    parse_f64s,
    split_text_key,
    text_key,
)
from .engine import ClusterConfig, JobSpec, KeyValue, RunStats, run_job
from .errors import RowParseError
from .numerics import fsum_vectors, sum_vectors_reduce

CALL_HEADER = ("date", "caller", "callee", "duration")


@dataclass(frozen=True)
class CallRecord:
    date: datetime.date
    caller: str
    callee: str
    duration: float  # seconds


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
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip().lower() for h in header) != CALL_HEADER:
            raise RowParseError(1, f"expected header {','.join(CALL_HEADER)}")
        return [parse_call_row(row, i) for i, row in enumerate(reader, start=2)]


def _count_reduce(key: bytes, values: list) -> list[KeyValue]:
    return [KeyValue(key, count_value(sum(parse_count(v) for v in values)))]


def avg_duration_job() -> JobSpec:
    def mapper(record: CallRecord) -> list[KeyValue]:
        key = text_key(record.date.isoformat())
        return [KeyValue(key, f64s_value((record.duration, 1.0)))]

    def reducer(key, values):
        total, count = fsum_vectors([parse_f64s(v) for v in values])
        return [KeyValue(key, f64s_value((total / count, count)))]

    return JobSpec(mapper, reducer, combiner=sum_vectors_reduce, name="avg-duration")


def avg_duration_by_date(
    records: Sequence[CallRecord], config: Optional[ClusterConfig] = None,
) -> tuple[list[tuple[str, tuple[float, int]]], RunStats]:
    """Mean call duration per date, with the call count alongside."""
    if not records:
        return [], RunStats()
    output, stats = run_job(avg_duration_job(), records, config or ClusterConfig())
    decoded = []
    for key, value in output:
        mean, count = parse_f64s(value)
        decoded.append((split_text_key(key)[0], (float(mean), int(count))))
    return decoded, stats


def calls_per_caller_job() -> JobSpec:
    def mapper(record: CallRecord) -> list[KeyValue]:
        return [KeyValue(text_key(record.date.isoformat(), record.caller), count_value(1))]

    return JobSpec(mapper, _count_reduce, combiner=_count_reduce, name="calls-count")


def calls_per_date_number(
    records: Sequence[CallRecord], config: Optional[ClusterConfig] = None,
) -> tuple[list[tuple[tuple[str, str], int]], RunStats]:
    """Number of calls placed per (date, caller number)."""
    if not records:
        return [], RunStats()
    output, stats = run_job(calls_per_caller_job(), records, config or ClusterConfig())
    decoded = [(split_text_key(k), parse_count(v)) for k, v in output]
    return [((date, caller), n) for (date, caller), n in decoded], stats


def word_count_job() -> JobSpec:
    def mapper(document: str) -> list[KeyValue]:
        return [KeyValue(token.encode("utf-8"), count_value(1)) for token in document.split()]

    return JobSpec(mapper, _count_reduce, combiner=_count_reduce, name="word-count")


def word_count(
    documents: Sequence[str], config: Optional[ClusterConfig] = None,
) -> tuple[list[tuple[str, int]], RunStats]:
    """Token occurrence counts; tokens split on whitespace."""
    if not documents:
        return [], RunStats()
    output, stats = run_job(word_count_job(), documents, config or ClusterConfig())
    return [(k.decode("utf-8"), parse_count(v)) for k, v in output], stats
