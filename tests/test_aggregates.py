import collections
import datetime
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrlab import aggregates
from mrlab.aggregates import (
    CallLog,
    CallRecord,
    avg_duration_by_date,
    calls_per_date_number,
    parse_call_row,
    read_call_csv,
    word_count,
)
from mrlab.dataio import read_csv_fields
from mrlab.encoding import count_value
from mrlab.engine import ClusterConfig, partition
from mrlab.errors import RowParseError

D1 = datetime.date(2024, 1, 1)
D2 = datetime.date(2024, 1, 2)


def call(date, duration, caller="0600000000"):
    return CallRecord(date, caller, "0700000000", float(duration))


# ------------------------------------------------------------ avg duration


def test_avg_duration_hand_example():
    records = [call(D1, 30), call(D1, 60), call(D2, 10)]
    out, _ = avg_duration_by_date(records)
    assert out == [("2024-01-01", (45.0, 2)), ("2024-01-02", (10.0, 1))]


def test_avg_duration_single_record():
    out, _ = avg_duration_by_date([call(D1, 7)])
    assert out == [("2024-01-01", (7.0, 1))]


def test_avg_duration_empty_input():
    out, stats = avg_duration_by_date([])
    assert out == []
    assert stats.records_read == 0


def test_avg_duration_matches_oracle_exactly(call_corpus):
    # integer durations: both routes sum exactly, so == is legitimate
    sums = collections.defaultdict(float)
    counts = collections.Counter()
    for r in call_corpus:
        sums[r.date.isoformat()] += r.duration
        counts[r.date.isoformat()] += 1
    expected = {d: (sums[d] / counts[d], counts[d]) for d in sums}
    for splits in (1, 2, 8):
        out, _ = avg_duration_by_date(call_corpus, ClusterConfig(num_splits=splits))
        assert dict(out) == expected
        assert [d for d, _ in out] == sorted(expected)


def test_avg_duration_fractional_durations_close_across_splits():
    records = [call(D1, 0.1 * i) for i in range(1, 200)]
    baseline, _ = avg_duration_by_date(records, ClusterConfig(num_splits=1))
    for splits in (2, 8):
        out, _ = avg_duration_by_date(records, ClusterConfig(num_splits=splits))
        assert out[0][1][0] == pytest.approx(baseline[0][1][0], rel=1e-12)


# ------------------------------------------------------------- call counts


def test_calls_per_date_number_hand_example():
    records = [call(D1, 5, "X"), call(D1, 6, "X"), call(D1, 7, "Y")]
    out, _ = calls_per_date_number(records)
    assert out == [(("2024-01-01", "X"), 2), (("2024-01-01", "Y"), 1)]


def test_calls_per_date_number_empty():
    out, _ = calls_per_date_number([])
    assert out == []


def test_calls_per_date_number_matches_oracle(call_corpus):
    oracle = collections.Counter((r.date.isoformat(), r.caller) for r in call_corpus)
    for splits in (1, 2, 8):
        out, _ = calls_per_date_number(call_corpus, ClusterConfig(num_splits=splits))
        assert dict(out) == dict(oracle)


def test_a_caller_holding_the_separator_comes_back_whole():
    # a count key is the date's ten bytes, U+001F, then the caller
    out, _ = calls_per_date_number([call(D1, 3, caller="a\x1fb"), call(D1, 4, caller="a")])
    assert out == [(("2024-01-01", "a"), 1), (("2024-01-01", "a\x1fb"), 1)]


# -------------------------------------------------------------- word count


def test_word_count_hand_example():
    out, _ = word_count(["a b a"])
    assert out == [("a", 2), ("b", 1)]


def test_word_count_empty_document():
    out, _ = word_count([""])
    assert out == []
    out, _ = word_count([])
    assert out == []


def test_word_count_matches_counter_oracle():
    docs = [
        "the quick brown fox",
        "jumps over the lazy dog",
        "the dog   barks",  # repeated whitespace folds away
        "fox\tdog fox",
    ]
    oracle = collections.Counter(" ".join(docs).split())
    for splits in (1, 2, 8):
        out, _ = word_count(docs, ClusterConfig(num_splits=splits))
        assert dict(out) == dict(oracle)
        assert [t for t, _ in out] == sorted(oracle)


@pytest.mark.parametrize("counts", [[7], [0], [10**20], [3, 4], [1, 1, 1], [0, 2**70, 5]])
def test_count_reduce_returns_the_count_value_of_the_sum(counts):
    # One payload passes through as it came; more are summed and re-encoded.
    values = [count_value(n) for n in counts]
    out = aggregates._count_reduce(b"k", values)
    assert out == [(b"k", count_value(sum(counts)))]
    if len(values) == 1:
        assert out[0][1] is values[0]


def test_lone_surrogates_are_keyed_and_sized_as_text_keys():
    # text_key passes a lone surrogate through as its three-byte form, and
    # the ledger sizes it the same way instead of failing to encode it
    out, stats = word_count(["a \udc80", "\udc80"])
    assert out == [("a", 1), ("\udc80", 2)]
    assert stats.bytes_read == 5 + 3
    counts, stats = calls_per_date_number([call(D1, 5, caller="06\udc80")])
    assert counts == [(("2024-01-01", "06\udc80"), 1)]
    assert stats.bytes_read == 18 + 5 + 10


# ------------------------------------------------------- in-mapper combining


@pytest.mark.parametrize("job", ["avg_duration_by_date", "calls_per_date_number", "word_count"])
def test_jobs_emit_one_pair_per_key_per_split(call_corpus, job):
    run, data, keys_of = {
        "avg_duration_by_date": (avg_duration_by_date, call_corpus, lambda r: [r.date]),
        "calls_per_date_number": (calls_per_date_number, call_corpus, lambda r: [(r.date, r.caller)]),
        "word_count": (word_count, [f"w{i % 7} w{i % 3} w{i % 7}" for i in range(40)], str.split),
    }[job]
    out, stats = run(data, ClusterConfig(num_splits=4, iteration_mode="disk"))
    distinct = sum(len({k for r in s.records for k in keys_of(r)}) for s in partition(data, 4))
    assert stats.records_shuffled == distinct < len(data)
    assert stats.records_written == stats.records_shuffled + len(out)


# -------------------------------------------------------------- CSV parsing


def test_read_call_csv_roundtrip(tmp_path):
    p = tmp_path / "calls.csv"
    p.write_text(
        "date,caller,callee,duration\n"
        "2024-01-01,0601,0701,60\n"
        "2024-01-02,0602,0702,2.5\n"
    )
    log = read_call_csv(p)
    assert isinstance(log, CallLog)
    assert list(log) == [
        CallRecord(D1, "0601", "0701", 60.0),
        CallRecord(D2, "0602", "0702", 2.5),
    ]


def test_read_call_csv_rejects_wrong_header(tmp_path):
    p = tmp_path / "calls.csv"
    p.write_text("when,who,whom,time\n2024-01-01,a,b,1\n")
    with pytest.raises(RowParseError) as err:
        read_call_csv(p)
    assert err.value.row == 1


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("01/02/2024,a,b,10", "ISO date"),
        ("2024-01-01,a,b,ten", "duration"),
        ("2024-01-01,a,b,-3", "negative"),
        ("2024-01-01,a,b", "4 fields"),
    ],
)
def test_read_call_csv_bad_rows_carry_line_numbers(tmp_path, row, fragment):
    p = tmp_path / "calls.csv"
    p.write_text(f"date,caller,callee,duration\n2024-01-01,a,b,1\n{row}\n")
    with pytest.raises(RowParseError) as err:
        read_call_csv(p)
    assert err.value.row == 3
    assert fragment in str(err.value)


def test_duration_nan_rejected(tmp_path):
    p = tmp_path / "calls.csv"
    p.write_text("date,caller,callee,duration\n2024-01-01,a,b,nan\n")
    with pytest.raises(RowParseError):
        read_call_csv(p)


def test_non_canonical_iso_dates_key_as_their_canonical_form(tmp_path):
    p = tmp_path / "calls.csv"
    p.write_text(
        "date,caller,callee,duration\n"
        "2024-01-01,a,b,1\n"
        "20240101,a,b,2\n"
        " 2024-01-01 ,a,b,3\n"
    )
    log = read_call_csv(p)
    assert log.dates == ("2024-01-01",) * 3
    assert calls_per_date_number(log)[0] == [(("2024-01-01", "a"), 3)]
    assert avg_duration_by_date(log)[0] == [("2024-01-01", (2.0, 3))]


def test_read_call_csv_strips_every_field_as_parse_call_row_does(tmp_path):
    p = tmp_path / "calls.csv"
    p.write_text("date,caller,callee,duration\n 2024-01-01 , a ,\tb\t, 3 \n2024-01-01,a,b,4\n")
    _, rows = read_csv_fields(p)
    log = read_call_csv(p)
    assert list(log) == [parse_call_row(row, line) for row, line in zip(rows, rows.lines)]
    assert (log.callers, log.callees) == (("a", "a"), ("b", "b"))


def test_clean_call_files_never_take_the_row_loop(tmp_path, monkeypatch):
    def row_loop(*args):
        raise AssertionError("parse_call_row ran on a clean file")

    monkeypatch.setattr(aggregates, "parse_call_row", row_loop)
    p = tmp_path / "calls.csv"
    p.write_text('date,caller,callee,duration\n 2024-01-01 ,"a\nb",\tc\t, 3 \n20240102,a,b,0\n')
    log = read_call_csv(p)
    assert (log.dates, log.callers, log.callees) == (("2024-01-01", "2024-01-02"), ("a\nb", "a"), ("c", "b"))
    assert log.durations == (3.0, 0.0)


BAD_ROWS = {
    "date": "2024-13-01,a,b,1",
    "duration": "2024-01-01,a,b,ten",
    "nan": "2024-01-01,a,b,nan",
    "inf": "2024-01-01,a,b,inf",
    "negative": "2024-01-01,a,b,-3",
    "fields": "2024-01-01,a,b",
}


def row_by_row_error(path):
    """The (line, message) of the first row that ``parse_call_row`` rejects."""
    _, rows = read_csv_fields(path)
    for row, line in zip(rows, rows.lines):
        try:
            parse_call_row(row, line)
        except RowParseError as err:
            return err.row, str(err)
    return None


@pytest.mark.parametrize("kinds", list(itertools.permutations(BAD_ROWS, 3))[::7])
def test_read_call_csv_names_the_first_bad_row_in_file_order(tmp_path, kinds):
    # Good rows before, between and after the bad ones, and a quoted field
    # spanning two lines, so rows and file lines differ.
    good = ['2024-01-02,"x\ny",b,5', "2024-01-03,a,b,6"]
    rows = good + [row for kind in kinds for row in (BAD_ROWS[kind], good[1])]
    p = tmp_path / "calls.csv"
    p.write_text("date,caller,callee,duration\n" + "\n".join(rows) + "\n")
    expected = row_by_row_error(p)
    assert expected is not None
    with pytest.raises(RowParseError) as err:
        read_call_csv(p)
    assert (err.value.row, str(err.value)) == expected
    assert expected[0] == 5  # the header, two lines of the quoted row, a good row


# ------------------------------------------------------ dictionary coding

# Non-ASCII, astral, lone-surrogate, empty and U+001F-bearing strings.
_TEXT = st.text(
    alphabet=st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)
    | st.sampled_from(["\x1f", "é", "\U0001f4de", "0", "a"]) | st.characters(),
    max_size=3,
)


@st.composite
def call_columns(draw):
    """The columns of one to twelve calls, drawn from small pools so that
    values repeat."""
    pools = [draw(st.lists(values, min_size=1, max_size=4))
             for values in (st.dates(), _TEXT, _TEXT, st.floats(0, 1e6))]
    rows = draw(st.lists(st.tuples(*map(st.sampled_from, pools)), min_size=1, max_size=12))
    days, callers, callees, durations = map(tuple, zip(*rows))
    return tuple(d.isoformat() for d in days), callers, callees, durations


@given(columns=call_columns(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_call_log_columns_round_trip_and_jobs_match_their_oracles(columns, data):
    dates, callers, callees, durations = columns
    log = CallLog(*columns)
    assert (log.dates, log.callers, log.callees, log.durations) == columns
    records = [CallRecord(datetime.date.fromisoformat(d), a, b, t) for d, a, b, t in zip(*columns)]
    assert [log[i] for i in range(len(log))] == records
    assert log[-1] == records[-1]
    assert log.nbytes == sum(r.nbytes for r in records)
    start, stop = sorted(data.draw(st.lists(st.integers(0, len(log)), min_size=2, max_size=2)))
    part = log[start:stop]
    assert (part.dates, part.callers, part.callees, part.durations) == tuple(c[start:stop] for c in columns)
    assert part == CallLog(*(c[start:stop] for c in columns)) == CallLog.from_records(records[start:stop])
    assert list(part) == records[start:stop]
    assert part.nbytes == sum(r.nbytes for r in records[start:stop])

    # oracles in the shuffle's order: by key bytes, a count key being the
    # date, U+001F, then the caller
    counts = sorted(collections.Counter(zip(dates, callers)).items(),
                    key=lambda kv: f"{kv[0][0]}\x1f{kv[0][1]}".encode("utf-8", "surrogatepass"))
    by_date = collections.defaultdict(list)
    for date, duration in zip(dates, durations):
        by_date[date].append(duration)
    means = sorted(((d, (math.fsum(ds) / len(ds), len(ds))) for d, ds in by_date.items()),
                   key=lambda kv: kv[0].encode("utf-8", "surrogatepass"))
    for splits in range(1, 5):
        config = ClusterConfig(num_splits=splits)
        assert calls_per_date_number(log, config)[0] == counts
        assert avg_duration_by_date(log, config)[0] == means
