import collections
import datetime
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mrlab
from mrlab import aggregates, engine, forest, kmeans, linmodels, sampling
from mrlab.aggregates import CallLog, CallRecord, avg_duration_by_date, calls_per_date_number
from mrlab.encoding import count_value, f64s_value, parse_count, parse_f64s
from mrlab.engine import (
    ClusterConfig, InputSplit, JobSpec, partition, run_iterative, run_job, shuffle,
)
from mrlab.errors import EmptyInputError, JobExecutionError, ParameterError


def count_job():
    def mapper(split):
        return [(record.encode(), count_value(1)) for record in split.records]

    def reducer(key, values):
        return [(key, count_value(sum(parse_count(v) for v in values)))]

    return JobSpec(mapper, reducer)


# ---------------------------------------------------------------- partition


def test_partition_five_records_two_splits():
    splits = partition(list("abcde"), 2)
    assert [len(s.records) for s in splits] == [3, 2]
    assert [s.origin_range for s in splits] == [(0, 2), (3, 4)]


def test_partition_one_record_per_split():
    splits = partition(list("abcd"), 4)
    assert [s.records for s in splits] == [["a"], ["b"], ["c"], ["d"]]


def test_partition_clamps_excess_splits():
    splits = partition(list("abc"), 5)
    assert len(splits) == 3
    assert all(len(s.records) == 1 for s in splits)


def test_partition_empty_dataset_rejected():
    with pytest.raises(EmptyInputError):
        partition([], 2)


def test_partition_invalid_split_count_rejected():
    with pytest.raises(ParameterError):
        partition([1], 0)


@given(st.integers(1, 200), st.integers(1, 32))
def test_partition_reassembles_dataset(n, s):
    data = list(range(n))
    splits = partition(data, s)
    assert [r for sp in splits for r in sp.records] == data
    sizes = [len(sp.records) for sp in splits]
    assert max(sizes) - min(sizes) <= 1
    assert [sp.split_id for sp in splits] == list(range(len(splits)))


# ------------------------------------------------------------------ shuffle


def test_shuffle_groups_by_key():
    pairs = [[(b"a", b"1"), (b"b", b"2"), (b"a", b"3")]]
    assert shuffle(pairs) == [(b"a", [b"1", b"3"]), (b"b", [b"2"])]


def test_shuffle_orders_values_by_split_then_emission():
    # same key emitted from split 1 first must still list split 0's value first
    split0 = [(b"k", b"s0-first"), (b"k", b"s0-second")]
    split1 = [(b"k", b"s1")]
    assert shuffle([split0, split1]) == [(b"k", [b"s0-first", b"s0-second", b"s1"])]
    assert shuffle([split1, split0]) == [(b"k", [b"s1", b"s0-first", b"s0-second"])]


def test_shuffle_empty():
    assert shuffle([]) == []
    assert shuffle([[], []]) == []


@given(
    st.lists(
        st.lists(st.tuples(st.binary(max_size=3), st.binary(max_size=3)), max_size=8),
        max_size=4,
    )
)
def test_shuffle_delivers_exactly_once(emitted):
    grouped = shuffle(emitted)
    regrouped = collections.Counter(
        (key, value) for key, values in grouped for value in values
    )
    original = collections.Counter((k, v) for split in emitted for k, v in split)
    assert regrouped == original
    assert [key for key, _ in grouped] == sorted({k for split in emitted for k, _ in split})


# ------------------------------------------------------------------ run_job


def test_run_job_word_count_hand_example():
    out, stats = run_job(count_job(), ["a", "b", "a"], ClusterConfig())
    assert out == [(b"a", b"2"), (b"b", b"1")]
    assert stats.records_read == 3
    assert stats.iterations == 1


def test_run_job_defaults_to_one_split_on_disk():
    data = ["a", "b", "a"]
    assert run_job(count_job(), data) == run_job(count_job(), data, ClusterConfig(1, "disk"))


def test_run_job_identity_groups_input():
    def mapper(split):
        return list(split.records)

    def reducer(key, values):
        return [(key, v) for v in values]

    data = [(b"x", b"1"), (b"y", b"2"), (b"x", b"3")]
    out, _ = run_job(JobSpec(mapper, reducer), data, ClusterConfig(num_splits=1))
    assert out == [(b"x", b"1"), (b"x", b"3"), (b"y", b"2")]


@pytest.mark.parametrize("num_splits", [1, 2, 4])
def test_run_job_split_count_invariant_for_counts(num_splits):
    data = [f"w{i % 7}" for i in range(50)]
    out, _ = run_job(count_job(), data, ClusterConfig(num_splits=num_splits))
    oracle = collections.Counter(data)
    assert {k.decode(): parse_count(v) for k, v in out} == dict(oracle)


def test_run_job_byte_identical_across_runs():
    data = [f"w{i % 5}" for i in range(40)]
    config = ClusterConfig(num_splits=3)
    out1, stats1 = run_job(count_job(), data, config)
    out2, stats2 = run_job(count_job(), data, config)
    assert out1 == out2
    assert stats1 == stats2


def test_float_sums_agree_across_split_counts():
    rng = np.random.default_rng(3)
    data = [float(x) for x in rng.normal(size=500)]

    def mapper(split):
        return [(b"s", f64s_value([record])) for record in split.records]

    def reducer(key, values):
        total = math.fsum(parse_f64s(v)[0] for v in values)
        return [(key, f64s_value([total]))]

    def combiner(key, values):
        return reducer(key, values)

    results = []
    for s in (1, 2, 8):
        out, _ = run_job(JobSpec(mapper, reducer, combiner), data, ClusterConfig(num_splits=s))
        results.append(float(parse_f64s(out[0][1])[0]))
    for r in results[1:]:
        assert r == pytest.approx(results[0], rel=1e-9)


def test_combiner_preserves_reducer_result():
    data = [f"w{i % 4}" for i in range(30)]
    base = count_job()
    combined = JobSpec(base.mapper, base.reducer, combiner=base.reducer)
    out_plain, _ = run_job(base, data, ClusterConfig(num_splits=4))
    out_comb, stats_comb = run_job(combined, data, ClusterConfig(num_splits=4))
    assert out_plain == out_comb
    # combiner collapses each split's pairs before the shuffle
    assert stats_comb.records_shuffled <= 4 * 4


# ---------------------------------------------------------------- errors


def test_split_mapper_error_names_stage_and_split():
    def mapper(split):
        if split.split_id == 2:
            raise ValueError("bad split")
        return []

    with pytest.raises(JobExecutionError) as err:
        run_job(JobSpec(mapper, lambda key, values: []), list(range(9)), ClusterConfig(num_splits=3))
    assert err.value.stage == "map"
    assert err.value.split_id == 2
    assert err.value.record_index is None
    assert "bad split" in str(err.value) and "split=2" in str(err.value)


def test_a_mappers_own_error_passes_through_unchanged():
    data = ["ok"] * 7 + ["boom"] + ["ok"] * 2  # splits hold records 0-3, 4-6, 7-9
    raised = []

    def mapper(split):
        # names the failing record by its global index, as only the mapper can
        for offset, record in enumerate(split.records):
            if record == "boom":
                raised.append(JobExecutionError(
                    "map", "bad record", split_id=split.split_id, record_index=split.origin_range[0] + offset,
                ))
                raise raised[-1]
        return []

    with pytest.raises(JobExecutionError) as err:
        run_job(JobSpec(mapper, lambda key, values: []), data, ClusterConfig(num_splits=3))
    assert raised == [err.value] and err.value.__cause__ is None
    assert (err.value.stage, err.value.split_id, err.value.record_index) == ("map", 2, 7)
    assert (err.value.key, err.value.iteration) == (None, None)
    assert str(err.value) == "bad record [stage=map, split=2, record=7]"

    def factory(t):
        return JobSpec(mapper if t == 1 else lambda split: [], lambda key, values: [])

    with pytest.raises(JobExecutionError) as err:
        run_iterative(factory, 3, None, data, ClusterConfig(num_splits=3))
    assert err.value is raised[-1]
    assert (err.value.iteration, err.value.split_id, err.value.record_index) == (1, 2, 7)
    assert str(err.value) == "bad record [stage=map, iteration=1, split=2, record=7]"


@pytest.mark.parametrize("n, splits", [(1, 1), (10, 3), (10, 10), (7, 20), (100, 8)])
def test_ndarray_splits_are_views_covering_every_row_once(n, splits):
    data = np.arange(n * 3, dtype=float).reshape(n, 3)
    seen = []

    def mapper(split):
        seen.append(split)
        return []

    run_job(JobSpec(mapper, lambda key, values: []), data, ClusterConfig(num_splits=splits))
    covered = np.zeros(n, dtype=int)
    for split in seen:
        first, last = split.origin_range
        assert isinstance(split.records, np.ndarray)
        assert split.records.flags.c_contiguous
        assert np.shares_memory(split.records, data)  # a view: no copy of the rows
        np.testing.assert_array_equal(split.records, data[first : last + 1])
        covered[first : last + 1] += 1
    assert covered.tolist() == [1] * n


def test_reducer_error_names_key():
    def mapper(split):
        return [(record.encode(), b"1") for record in split.records]

    def reducer(key, values):
        raise RuntimeError("reduce failed")

    with pytest.raises(JobExecutionError) as err:
        run_job(JobSpec(mapper, reducer), ["k1"], ClusterConfig())
    assert err.value.stage == "reduce"
    assert err.value.key == b"k1"


def test_combiner_error_names_stage_split_and_key():
    def combiner(key, values):
        if key == b"bad":
            raise RuntimeError("combine failed")
        return [(key, values[0])]

    def mapper(split):
        return [(record.encode(), b"1") for record in split.records]

    data = ["ok", "ok", "bad", "ok"]
    with pytest.raises(JobExecutionError) as err:
        run_job(JobSpec(mapper, lambda key, values: [], combiner), data, ClusterConfig(num_splits=2))
    assert err.value.stage == "combine"
    assert err.value.split_id == 1
    assert err.value.key == b"bad"
    assert "combine failed" in str(err.value) and "split=1" in str(err.value)


def test_iterative_error_carries_iteration_index():
    def factory(t):
        def mapper(split):
            if t == 2:
                raise ValueError("dies at round 2")
            return []

        def reducer(key, values):
            return []

        return JobSpec(mapper, reducer)

    with pytest.raises(JobExecutionError) as err:
        run_iterative(factory, 5, None, [1, 2, 3], ClusterConfig())
    assert err.value.iteration == 2
    assert "iteration=2" in str(err.value)


# ------------------------------------------------------------ run_iterative


def _noop_factory(t):
    def mapper(split):
        return []

    def reducer(key, values):
        return []

    return JobSpec(mapper, reducer)


def test_disk_mode_rereads_each_round():
    data = list(range(100))
    _, stats = run_iterative(_noop_factory, 5, None, data, ClusterConfig(iteration_mode="disk"))
    assert stats.records_read == 500
    assert stats.iterations == 5


def test_memory_mode_reads_once():
    data = list(range(100))
    _, stats = run_iterative(_noop_factory, 5, None, data, ClusterConfig(iteration_mode="memory"))
    assert stats.records_read == 100
    assert stats.iterations == 5


@pytest.mark.parametrize("mode, rounds_read", [("disk", 5), ("memory", 1)])
def test_run_iterative_sizes_its_input_once(monkeypatch, mode, rounds_read):
    calls = []
    real = engine.dataset_nbytes
    monkeypatch.setattr(engine, "dataset_nbytes", lambda d: calls.append(d) or real(d))
    data = list(range(100))
    _, stats = run_iterative(_noop_factory, 5, None, data, ClusterConfig(iteration_mode=mode))
    assert len(calls) == 1
    assert stats.bytes_read == rounds_read * 800
    assert stats.iterations == 5


@pytest.mark.parametrize("mode", ["disk", "memory"])
def test_run_iterative_cuts_its_splits_once(monkeypatch, mode):
    calls = []
    real = engine.partition
    monkeypatch.setattr(engine, "partition", lambda d, s: calls.append(s) or real(d, s))
    seen = []

    def factory(t):
        return JobSpec(lambda split: seen.append(split) or [], lambda key, values: [])

    _, stats = run_iterative(factory, 5, None, list(range(10)), ClusterConfig(num_splits=4, iteration_mode=mode))
    assert calls == [4]
    assert seen == partition(list(range(10)), 4) * 5
    assert stats.iterations == 5


def test_convergence_stops_early():
    def converged(output):
        return converged.calls.append(0) or len(converged.calls) >= 2

    converged.calls = []
    _, stats = run_iterative(_noop_factory, 10, converged, [1, 2], ClusterConfig())
    assert stats.iterations == 2


def test_converged_reads_each_rounds_output_once():
    # round t's mapper emits t per record; its reducer sums them
    def factory(t):
        return JobSpec(lambda split: [(b"t", count_value(t)) for _ in split.records], count_job().reducer)

    seen = []

    def converged(output):
        seen.append(output)
        return len(seen) == 3

    output, stats = run_iterative(factory, 5, converged, [1, 2])
    assert seen == [[(b"t", b"0")], [(b"t", b"2")], [(b"t", b"4")]]
    assert output is seen[-1]
    assert stats.iterations == 3


def test_run_iterative_rejects_zero_iterations():
    with pytest.raises(ParameterError):
        run_iterative(_noop_factory, 0, None, [1], ClusterConfig())


def test_state_write_accounting_by_mode():
    # one state pair per round; disk re-writes it every round, memory once
    def factory(t):
        def mapper_emit(split):
            return [(b"s", b"x") for record in split.records if record == 0]

        def reducer_pass(key, values):
            return [(key, values[0])]

        return JobSpec(mapper_emit, reducer_pass)

    data = list(range(10))
    _, disk = run_iterative(factory, 3, None, data, ClusterConfig(iteration_mode="disk"))
    _, mem = run_iterative(factory, 3, None, data, ClusterConfig(iteration_mode="memory"))
    assert disk.records_written == 3 * (1 + 1)  # map materialization + state
    assert mem.records_written == 1


# ------------------------------------------------------------------- misc


def test_cluster_config_validation():
    with pytest.raises(ParameterError):
        ClusterConfig(num_splits=0)
    with pytest.raises(ParameterError):
        ClusterConfig(iteration_mode="tape")


def test_record_nbytes():
    assert engine.record_nbytes(b"abcd") == 4
    assert engine.record_nbytes("héllo") == 6
    assert engine.record_nbytes(3.5) == 8
    assert engine.record_nbytes((b"ab", 1.0)) == 10
    assert engine.record_nbytes(np.zeros(3)) == 24
    assert engine.record_nbytes(np.float32(1.0)) == 8
    call = CallRecord(datetime.date(2024, 1, 1), "0600000000", "0700000000", 60.0)
    assert engine.record_nbytes(call) == 38
    with pytest.raises(TypeError, match="object"):
        engine.record_nbytes(object())


def test_runstats_add_field_by_field():
    a = engine.RunStats(1, 2, 3, 4, 5, 6)
    b = engine.RunStats(records_read=10, iterations=1)
    assert (a + b).as_dict() == {
        "records_read": 11, "records_written": 2, "records_shuffled": 3,
        "bytes_read": 4, "bytes_written": 5, "iterations": 7,
    }
    assert a.records_read == 1  # the operands are left as they were


def test_runstats_as_dict_is_flat():
    stats = engine.RunStats(records_read=2)
    d = stats.as_dict()
    assert d["records_read"] == 2
    assert all(isinstance(v, int) for v in d.values())


@pytest.mark.parametrize("dataset", [
    np.arange(12.0).reshape(4, 3),
    np.arange(24.0).reshape(6, 4)[::2, 1:],  # a strided view
    np.zeros((3, 0)),
    (("a", 1.0), ("bc", 2), ("déf", (3.0, b"xy"))),
    ((0, np.ones(2)), (1, np.ones(2))),
    np.arange(5.0),  # 1-D: 8 bytes a scalar, by the walk
    list(range(7)),
    [0.5, -1.0, 2e300],
    [True, False, True],  # bool is an int subclass: sized by the walk
    [1, 2.5, "ab", b"c", (3, 4.0)],
    [],
    [CallRecord(datetime.date(2024, 1, d), f"06{d:08d}", "07é", 1.5) for d in range(1, 4)],
    [CallRecord(datetime.date(2024, 1, 1), "06", "07", 2.0), ("a", 1.0), np.ones(3)],
    CallLog.from_records(
        CallRecord(datetime.date(2024, 1, d), f"06é{d}", "07é", 1.5) for d in range(1, 5)
    ),
    [np.ones(2), np.zeros(3)],  # one class with .nbytes
    [np.float64(1.5), np.float64(2.0)],  # has .nbytes, but sized as a number
], ids=["2d", "2d-view", "2d-empty-rows", "tuples", "indexed-rows", "1d",
        "ints", "floats", "bools", "mixed", "empty", "calls", "calls-mixed", "call-log",
        "arrays", "numpy-floats"])
def test_dataset_nbytes_equals_the_record_walk(dataset):
    assert engine.dataset_nbytes(dataset) == sum(engine.record_nbytes(r) for r in dataset)


def test_call_log_is_sized_without_a_record_walk(monkeypatch):
    calls = []
    real = engine.record_nbytes
    monkeypatch.setattr(engine, "record_nbytes", lambda r: calls.append(r) or real(r))
    records = [CallRecord(datetime.date(2024, 1, 1), "0612", "0734", 60.0)] * 5
    assert engine.dataset_nbytes(records) == 5 * (18 + 4 + 4)
    calls.clear()
    assert engine.dataset_nbytes(CallLog.from_records(records)) == 5 * (18 + 4 + 4)
    assert calls == []


def test_partition_keeps_a_call_log_columnar(call_corpus):
    log = CallLog.from_records(call_corpus)
    splits = partition(log, 3)
    assert all(type(s.records) is CallLog for s in splits)
    assert [r for s in splits for r in s.records] == call_corpus
    assert sum(s.records.nbytes for s in splits) == log.nbytes


@pytest.mark.parametrize("splits", [1, 2, 3, 8])
@pytest.mark.parametrize("job", [avg_duration_by_date, calls_per_date_number])
def test_call_jobs_agree_on_records_and_their_log(call_corpus, job, splits):
    config = ClusterConfig(num_splits=splits)
    from_records = job(call_corpus, config)
    from_log = job(CallLog.from_records(call_corpus), config)
    assert from_records[0] == from_log[0]
    assert from_records[1].as_dict() == from_log[1].as_dict()
    assert from_log[1].bytes_read == sum(r.nbytes for r in call_corpus)


def test_numpy_dataset_is_sized_without_a_record_walk(monkeypatch):
    calls = []
    real = engine.record_nbytes
    monkeypatch.setattr(engine, "record_nbytes", lambda r: calls.append(r) or real(r))
    data = np.ones((50, 3))
    _, stats = run_iterative(_noop_factory, 3, None, data, ClusterConfig(iteration_mode="disk"))
    _, one = run_job(_noop_factory(0), data, ClusterConfig(num_splits=4))
    assert calls == []
    assert stats.bytes_read == 3 * data.nbytes and one.bytes_read == data.nbytes


# ------------------------------------------------------------------- pairs


@pytest.fixture
def pairs_seen(monkeypatch):
    """Every pair that reaches a shuffle, leaves a run_job, or ends a
    run_iterative, in every module that imported those functions."""
    seen = []
    real_shuffle, real_run_job, real_run_iterative = shuffle, run_job, run_iterative

    def seen_shuffle(emitted):
        seen.extend(pair for split_pairs in emitted for pair in split_pairs)
        return real_shuffle(emitted)

    def seen_run_job(*args, **kwargs):
        output, stats = real_run_job(*args, **kwargs)
        seen.extend(output)
        return output, stats

    def seen_run_iterative(*args):
        output, stats = real_run_iterative(*args)
        seen.extend(output)
        return output, stats

    wrappers = {"shuffle": seen_shuffle, "run_job": seen_run_job, "run_iterative": seen_run_iterative}
    for module in (engine, aggregates, sampling, kmeans, linmodels, forest):
        for name, wrapper in wrappers.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return seen


def test_every_library_pair_is_a_plain_tuple_of_bytes(pairs_seen, call_corpus):
    config = ClusterConfig(num_splits=3)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(60, 2))
    y = (x[:, 0] > 0).astype(float)
    data = linmodels.DataMatrix.from_features(x, y)
    aggregates.word_count(["a b a", "c b", "a"], config)
    aggregates.avg_duration_by_date(call_corpus[:50], config)
    aggregates.calls_per_date_number(call_corpus[:50], config)
    sampling.sort_sample(range(40), 5, 1, config)
    sampling.scan_srs(range(400), 5, 0.01, 1, config)
    kmeans.fit_kmeans(x, 3, max_iters=3, config=config)
    linmodels.fit_linear(data, config)
    linmodels.fit_logistic(data, 1.0, 3, config=config)
    params = forest.ForestParams(trees=2, sample_size=60, mtry=1)
    forest.fit_forest(x, y.astype(int).tolist(), params, config=config)
    assert pairs_seen
    for pair in pairs_seen:
        assert type(pair) is tuple and len(pair) == 2, pair
        assert type(pair[0]) is bytes and type(pair[1]) is bytes, pair


def test_package_names_all_resolve():
    assert all(hasattr(mrlab, name) for name in mrlab.__all__)
    namespace = {}
    exec("from mrlab import *", namespace)
    assert set(mrlab.__all__) <= set(namespace)
