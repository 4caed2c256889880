import collections
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrlab import sampling
from mrlab.engine import ClusterConfig, JobSpec
from mrlab.errors import ParameterError
from mrlab.sampling import (
    ScanResult,
    bernstein_thresholds,
    reservoir_sample,
    scan_srs,
    sort_sample,
)

import references
from references import record_uniform


# ---------------------------------------------------------------- reservoir


def test_reservoir_keeps_everything_when_n_covers_stream():
    for seed in (0, 1, 99):
        assert reservoir_sample([10, 20, 30], 3, seed) == [10, 20, 30]
        assert reservoir_sample([10, 20], 5, seed) == [10, 20]


def test_reservoir_deterministic_for_fixed_seed():
    data = list(range(100))
    assert reservoir_sample(data, 10, 42) == reservoir_sample(data, 10, 42)
    assert reservoir_sample(data, 10, 42) != reservoir_sample(data, 10, 43)


def test_reservoir_rejects_bad_size():
    with pytest.raises(ParameterError):
        reservoir_sample([1, 2], 0, 0)


@given(st.integers(1, 10), st.integers(0, 40), st.integers(0, 2**32))
def test_reservoir_size_is_min_of_n_and_seen(n, stream_len, seed):
    sample = reservoir_sample(range(stream_len), n, seed)
    assert len(sample) == min(n, stream_len)
    assert len(set(sample)) == len(sample)  # distinct positions, no repeats


def test_reservoir_accepts_generator_instance():
    rng = np.random.default_rng(7)
    first = reservoir_sample(range(50), 5, rng)
    second = reservoir_sample(range(50), 5, rng)  # stream continues, differs
    assert first != second


@pytest.mark.parametrize("n", [1, 3, 1000])
def test_reservoir_block_draws_match_the_scalar_loop(n):
    # one draw call per block reads the Generator stream a draw per record
    # reads, and stops where the stream does; at n = 1000 most draws land
    # in the reservoir, so a bound that is off by one shows
    block = sampling._RESERVOIR_BLOCK
    lengths = sorted({0, n - 1, n, n + 1, block - 1, block, block + 1,
                      n + block - 1, n + block, n + block + 1, n + 2 * block + 5})
    for length in lengths:
        for seed in (0, 7, 2**40 + 3):
            want = references.reservoir_sample(range(length), n, seed)
            assert reservoir_sample(range(length), n, seed) == want, (length, seed)
        mine, ref = np.random.default_rng(11), np.random.default_rng(11)
        sample = reservoir_sample(iter(range(length)), n, mine)  # one pass over an iterator
        assert sample == references.reservoir_sample(range(length), n, ref), length
        assert mine.bit_generator.state == ref.bit_generator.state, length


def test_reservoir_inclusion_is_roughly_uniform():
    counts = collections.Counter()
    rng = np.random.default_rng(2024)
    trials = 4000
    for _ in range(trials):
        counts.update(reservoir_sample(range(5), 2, rng))
    for i in range(5):
        assert counts[i] / trials == pytest.approx(0.4, abs=0.04)


# --------------------------------------------------------------- sort-based


def fixed_draws(keys):
    """A stand-in for ``record_draws`` whose draws are the uniforms
    keys[start:start+count] as 53-bit integers."""
    return lambda seed, start, count: (np.array(keys[start : start + count]) * 2**53).astype(np.uint64)


def test_sort_sample_fixed_keys_pick_smallest(monkeypatch):
    keys = [0.9, 0.1, 0.5]
    monkeypatch.setattr(sampling, "record_draws", fixed_draws(keys))
    sample, _ = sort_sample(["r0", "r1", "r2"], 2, seed=0)
    assert sample == ["r1", "r2"]


def test_sort_sample_whole_dataset_when_n_equals_size():
    data = list(range(7))
    sample, _ = sort_sample(data, 7, seed=3)
    assert sorted(sample) == data


def test_sort_sample_rejects_bad_sizes():
    with pytest.raises(ParameterError):
        sort_sample([1, 2], 3, seed=0)
    with pytest.raises(ParameterError):
        sort_sample([1, 2], 0, seed=0)


def test_map_tasks_emit_their_keys_in_order(monkeypatch):
    emitted = []
    real = sampling.run_job

    def run_job(job, dataset, config=None):
        def mapper(split):
            pairs = job.mapper(split)
            emitted.append([key for key, _ in pairs])
            return pairs

        return real(JobSpec(mapper, job.reducer), dataset, config)

    monkeypatch.setattr(sampling, "run_job", run_job)
    config = ClusterConfig(num_splits=4)
    sort_sample(range(500), 5, 7, config)
    scan_srs(range(500), 5, 0.01, 7, config)
    assert len(emitted) == 8
    for keys in emitted:
        assert keys and keys == sorted(keys)


def test_sort_sample_split_layout_invariant():
    data = [f"r{i}" for i in range(40)]
    expected, _ = sort_sample(data, 6, seed=11, config=ClusterConfig(num_splits=1))
    for splits in (2, 4, 8):
        got, _ = sort_sample(data, 6, seed=11, config=ClusterConfig(num_splits=splits))
        assert got == expected
    expected_scan, _ = scan_srs(data, 6, 0.5, seed=11, config=ClusterConfig(num_splits=1))
    assert expected_scan.success
    for splits in (2, 3, 7, 8, 13):
        got, _ = scan_srs(data, 6, 0.5, seed=11, config=ClusterConfig(num_splits=splits))
        assert got == expected_scan


@given(
    st.integers(2, 25),
    st.integers(0, 2**32),
    st.data(),
)
@settings(max_examples=60)
def test_sort_sample_matches_brute_force_oracle(size, seed, data):
    n = data.draw(st.integers(1, size))
    # coarse grid keys force index tie-breaks to matter
    keys = data.draw(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75]), min_size=size, max_size=size)
    )
    records = [f"r{i}" for i in range(size)]
    oracle = [records[i] for i in sorted(range(size), key=lambda i: (keys[i], i))[:n]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "record_draws", fixed_draws(keys))
        sample, _ = sort_sample(records, n, seed=seed)
    assert sample == oracle


# --------------------------------------------------------------- thresholds


def test_thresholds_clamp_at_full_sample():
    q1, q2 = bernstein_thresholds(10, 10, 0.5)
    assert q2 == 1.0


def test_thresholds_bracket_inclusion_probability():
    q1, q2 = bernstein_thresholds(100, 100_000, 0.01)
    p = 100 / 100_000
    assert 0.0 < q1 < p < q2 < 1.0


def test_thresholds_collapse_toward_p_as_delta_grows():
    p = 0.01
    q1_loose, q2_loose = bernstein_thresholds(100, 10_000, 0.9)
    q1_tight, q2_tight = bernstein_thresholds(100, 10_000, 0.001)
    assert q1_tight < q1_loose <= p
    assert p <= q2_loose < q2_tight


@given(st.integers(1, 1000), st.integers(0, 10_000), st.floats(0.001, 0.999))
def test_thresholds_always_bracket_p(n, extra, delta):
    N = n + extra
    q1, q2 = bernstein_thresholds(n, N, delta)
    assert 0.0 <= q1 <= n / N <= q2 <= 1.0


@pytest.mark.parametrize("n,N,delta", [(0, 5, 0.1), (6, 5, 0.1), (2, 5, 0.0), (2, 5, 1.0), (2, 5, -1.0)])
def test_thresholds_domain_errors(n, N, delta):
    with pytest.raises(ParameterError):
        bernstein_thresholds(n, N, delta)


# ------------------------------------------------------------------ ScanSRS


def scan_srs_stream(stream, N: int, n: int, delta: float, seed: int) -> ScanResult:
    """Reference scan, one record at a time, that scan_srs must equal.

    Records with key < q1 are accepted outright, keys in [q1, q2) are
    waitlisted with their key, keys >= q2 are dropped on the spot; the
    sample is the n smallest candidate keys, or every candidate when
    fewer than n survived.
    """
    q1, q2 = bernstein_thresholds(n, N, delta)
    accepted, waitlist = [], []
    for i, record in enumerate(stream):
        key = record_uniform(seed, i)
        if key < q1:
            accepted.append((key, record))
        elif key < q2:
            waitlist.append((key, record))
    candidates = sorted(accepted + waitlist, key=lambda kr: kr[0])
    return ScanResult(
        success=len(candidates) >= n,
        sample=[record for _key, record in candidates[:n]],
        accepted_count=len(accepted),
        waitlist_count=len(waitlist),
        q1=q1,
        q2=q2,
    )


@given(
    st.integers(1, 120),
    st.integers(0, 2**32),
    st.floats(0.01, 0.99),
    st.integers(1, 13),
    st.data(),
)
@settings(max_examples=60)
def test_stream_and_vectorized_scans_agree(N, seed, delta, splits, data):
    n = data.draw(st.integers(1, N))
    a = scan_srs_stream(range(N), N, n, delta, seed)
    b, _ = scan_srs(range(N), n, delta, seed, ClusterConfig(num_splits=splits))
    assert a == b


def test_scan_results_are_pinned():
    # sha256 of the JSON list of [sample, accepted_count, waitlist_count]
    # for seeds 0..49, taken from the vectorized scan the MR job replaced
    results = [scan_srs(range(100_000), 100, 0.01, seed)[0] for seed in range(50)]
    text = json.dumps([[r.sample, r.accepted_count, r.waitlist_count] for r in results])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8c147954cb91242d19771319b507ad6059a596464c866e88db25ce83f4a5065c"
    )


def test_scan_full_sample_always_succeeds():
    for seed in (0, 5, 123):
        result, _ = scan_srs(list("abcdef"), 6, 0.5, seed)
        assert result.success
        assert sorted(result.sample) == list("abcdef")
        assert result.q2 == 1.0


def test_scan_failure_is_a_result_not_an_exception():
    # seed found by search: 19 of the required 20 candidates survive
    result, _ = scan_srs(range(40), 20, 0.95, 42)
    assert not result.success
    assert len(result.sample) == 19


def test_scan_over_records_maps_indices_back():
    data = [f"row{i}" for i in range(500)]
    result, stats = scan_srs(data, 5, 0.01, seed=8)
    assert result.success
    assert len(result.sample) == 5
    assert all(r in data for r in result.sample)
    assert stats.records_read == 500
    assert stats.bytes_read == sum(len(r) for r in data)
    again, _ = scan_srs(data, 5, 0.01, seed=8)
    assert again.sample == result.sample


def test_scan_candidate_count_stays_near_n():
    # the waitlist construction promises O(n) retained candidates
    result, _ = scan_srs(range(100_000), 100, 0.01, seed=3)
    assert result.success
    assert result.accepted_count + result.waitlist_count < 600


def test_sort_sample_keeps_every_index_whole():
    # indices past 2**16 end in zero bytes, which a key that dropped
    # trailing zeros would lose
    sample, _ = sort_sample(range(70_000), 70_000, seed=4)
    assert sorted(sample) == list(range(70_000))
