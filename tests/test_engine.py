import collections
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mrlab import engine
from mrlab.encoding import count_value, f64s_value, parse_count, parse_f64s
from mrlab.engine import ClusterConfig, InputSplit, JobSpec, KeyValue, partition, run_iterative, run_job, shuffle
from mrlab.errors import EmptyInputError, JobExecutionError, ParameterError


def count_job():
    def mapper(record):
        return [KeyValue(record.encode(), count_value(1))]

    def reducer(key, values):
        return [KeyValue(key, count_value(sum(parse_count(v) for v in values)))]

    return JobSpec(mapper, reducer, name="count")


# ---------------------------------------------------------------- partition


def test_partition_five_records_two_splits():
    splits = partition(list("abcde"), 2)
    assert [len(s.records) for s in splits] == [3, 2]
    assert [s.origin_range for s in splits] == [(0, 2), (3, 4)]


def test_partition_one_record_per_split():
    splits = partition(list("abcd"), 4)
    assert [s.records for s in splits] == [("a",), ("b",), ("c",), ("d",)]


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
    pairs = [[KeyValue(b"a", b"1"), KeyValue(b"b", b"2"), KeyValue(b"a", b"3")]]
    assert shuffle(pairs) == [(b"a", [b"1", b"3"]), (b"b", [b"2"])]


def test_shuffle_orders_values_by_split_then_emission():
    # same key emitted from split 1 first must still list split 0's value first
    split0 = [KeyValue(b"k", b"s0-first"), KeyValue(b"k", b"s0-second")]
    split1 = [KeyValue(b"k", b"s1")]
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
    pairs = [[KeyValue(k, v) for k, v in split] for split in emitted]
    grouped = shuffle(pairs)
    regrouped = collections.Counter(
        (key, value) for key, values in grouped for value in values
    )
    original = collections.Counter((k, v) for split in emitted for k, v in split)
    assert regrouped == original
    assert [key for key, _ in grouped] == sorted({k for split in emitted for k, _ in split})


# ------------------------------------------------------------------ run_job


def test_run_job_word_count_hand_example():
    out, stats = run_job(count_job(), ["a", "b", "a"], ClusterConfig())
    assert out == [KeyValue(b"a", b"2"), KeyValue(b"b", b"1")]
    assert stats.records_read == 3
    assert stats.iterations == 1


def test_run_job_identity_groups_input():
    def mapper(record):
        return [KeyValue(*record)]

    def reducer(key, values):
        return [KeyValue(key, v) for v in values]

    data = [(b"x", b"1"), (b"y", b"2"), (b"x", b"3")]
    out, _ = run_job(JobSpec(mapper, reducer), data, ClusterConfig(num_splits=1))
    assert out == [KeyValue(b"x", b"1"), KeyValue(b"x", b"3"), KeyValue(b"y", b"2")]


@pytest.mark.parametrize("num_splits", [1, 2, 4])
def test_run_job_split_count_invariant_for_counts(num_splits):
    data = [f"w{i % 7}" for i in range(50)]
    out, _ = run_job(count_job(), data, ClusterConfig(num_splits=num_splits))
    oracle = collections.Counter(data)
    assert {k.decode(): parse_count(v) for k, v in out} == dict(oracle)


def test_run_job_byte_identical_across_runs():
    data = [f"w{i % 5}" for i in range(40)]
    config = ClusterConfig(num_splits=3, seed=11)
    out1, stats1 = run_job(count_job(), data, config)
    out2, stats2 = run_job(count_job(), data, config)
    assert out1 == out2
    assert stats1 == stats2


def test_run_job_parallel_equals_sequential():
    data = [f"w{i % 9}" for i in range(100)]
    seq = ClusterConfig(num_splits=8, seed=5, parallel=False)
    par = ClusterConfig(num_splits=8, seed=5, parallel=True)
    out_seq, stats_seq = run_job(count_job(), data, seq)
    out_par, stats_par = run_job(count_job(), data, par)
    assert out_seq == out_par
    assert stats_seq == stats_par


def test_float_sums_agree_across_split_counts():
    rng = np.random.default_rng(3)
    data = [float(x) for x in rng.normal(size=500)]

    def mapper(record):
        return [KeyValue(b"s", f64s_value([record]))]

    def reducer(key, values):
        total = math.fsum(parse_f64s(v)[0] for v in values)
        return [KeyValue(key, f64s_value([total]))]

    def combiner(key, values):
        return reducer(key, values)

    results = []
    for s in (1, 2, 8):
        out, _ = run_job(JobSpec(mapper, reducer, combiner), data, ClusterConfig(num_splits=s))
        results.append(float(parse_f64s(out[0].value)[0]))
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


def test_mapper_error_names_split_and_record():
    def mapper(record):
        if record == "boom":
            raise ValueError("bad record")
        return []

    def reducer(key, values):
        return []

    data = ["ok"] * 5 + ["boom"] + ["ok"] * 2
    with pytest.raises(JobExecutionError) as err:
        run_job(JobSpec(mapper, reducer), data, ClusterConfig(num_splits=2))
    assert err.value.stage == "map"
    assert err.value.record_index == 5
    assert err.value.split_id == 1
    assert "split=1" in str(err.value)


def test_reducer_error_names_key():
    def mapper(record):
        return [KeyValue(record.encode(), b"1")]

    def reducer(key, values):
        raise RuntimeError("reduce failed")

    with pytest.raises(JobExecutionError) as err:
        run_job(JobSpec(mapper, reducer), ["k1"], ClusterConfig())
    assert err.value.stage == "reduce"
    assert err.value.key == b"k1"


def test_iterative_error_carries_iteration_index():
    def factory(t, state):
        def mapper(record):
            if t == 2:
                raise ValueError("dies at round 2")
            return []

        def reducer(key, values):
            return []

        return JobSpec(mapper, reducer)

    with pytest.raises(JobExecutionError) as err:
        run_iterative(factory, [], 5, None, [1, 2, 3], ClusterConfig())
    assert err.value.iteration == 2
    assert "iteration=2" in str(err.value)


# ------------------------------------------------------------ run_iterative


def _noop_factory(t, state):
    def mapper(record):
        return []

    def reducer(key, values):
        return []

    return JobSpec(mapper, reducer)


def test_disk_mode_rereads_each_round():
    data = list(range(100))
    _, stats = run_iterative(_noop_factory, [], 5, None, data, ClusterConfig(iteration_mode="disk"))
    assert stats.records_read == 500
    assert stats.iterations == 5


def test_memory_mode_reads_once():
    data = list(range(100))
    _, stats = run_iterative(_noop_factory, [], 5, None, data, ClusterConfig(iteration_mode="memory"))
    assert stats.records_read == 100
    assert stats.iterations == 5


@pytest.mark.parametrize("mode, rounds_read", [("disk", 5), ("memory", 1)])
def test_run_iterative_sizes_its_input_once(monkeypatch, mode, rounds_read):
    calls = []

    def counting_nbytes(record):
        calls.append(record)
        return 8

    monkeypatch.setattr(engine, "record_nbytes", counting_nbytes)
    data = list(range(100))
    _, stats = run_iterative(_noop_factory, [], 5, None, data, ClusterConfig(iteration_mode=mode))
    assert len(calls) == 100
    assert stats.bytes_read == rounds_read * 800
    assert stats.iterations == 5


def test_convergence_stops_early():
    def converged(old, new):
        return converged.calls.append(0) or len(converged.calls) >= 2

    converged.calls = []
    _, stats = run_iterative(_noop_factory, [], 10, converged, [1, 2], ClusterConfig())
    assert stats.iterations == 2


def test_run_iterative_rejects_zero_iterations():
    with pytest.raises(ParameterError):
        run_iterative(_noop_factory, [], 0, None, [1], ClusterConfig())


def test_state_write_accounting_by_mode():
    # one state pair per round; disk re-writes it every round, memory once
    def factory(t, state):
        def mapper_emit(record):
            return [KeyValue(b"s", b"x")] if record == 0 else []

        def reducer_pass(key, values):
            return [KeyValue(key, values[0])]

        return JobSpec(mapper_emit, reducer_pass)

    data = list(range(10))
    _, disk = run_iterative(factory, [], 3, None, data, ClusterConfig(iteration_mode="disk"))
    _, mem = run_iterative(factory, [], 3, None, data, ClusterConfig(iteration_mode="memory"))
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


def test_runstats_as_dict_is_flat():
    stats = engine.RunStats(records_read=2)
    d = stats.as_dict()
    assert d["records_read"] == 2
    assert all(isinstance(v, int) for v in d.values())
