import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrlab import sampling
from mrlab.engine import ClusterConfig
from mrlab.errors import ParameterError
from mrlab.sampling import (
    ScanState,
    bernstein_thresholds,
    reservoir_sample,
    scan_srs,
    scan_srs_indices,
    scan_srs_stream,
    sort_sample,
)


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


def test_reservoir_inclusion_is_roughly_uniform():
    counts = collections.Counter()
    rng = np.random.default_rng(2024)
    trials = 4000
    for _ in range(trials):
        counts.update(reservoir_sample(range(5), 2, rng))
    for i in range(5):
        assert counts[i] / trials == pytest.approx(0.4, abs=0.04)


# --------------------------------------------------------------- sort-based


def fixed_uniforms(keys):
    """A stand-in for ``record_uniforms`` that draws keys[start:start+count]."""
    return lambda seed, start, count: np.array(keys[start : start + count])


def test_sort_sample_fixed_keys_pick_smallest(monkeypatch):
    keys = [0.9, 0.1, 0.5]
    monkeypatch.setattr(sampling, "record_uniforms", fixed_uniforms(keys))
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


def test_sort_sample_split_layout_invariant():
    data = [f"r{i}" for i in range(40)]
    expected, _ = sort_sample(data, 6, seed=11, config=ClusterConfig(num_splits=1))
    for splits in (2, 4, 8):
        got, _ = sort_sample(data, 6, seed=11, config=ClusterConfig(num_splits=splits))
        assert got == expected


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
        mp.setattr(sampling, "record_uniforms", fixed_uniforms(keys))
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


def test_scan_state_routing():
    state = ScanState(n=2, q1=0.3, q2=0.6)
    state.offer(0.1, "a")
    state.offer(0.4, "b")
    state.offer(0.9, "c")
    assert [r for _, r in state.accepted] == ["a"]
    assert [r for _, r in state.waitlist] == ["b"]
    assert state.candidate_count == 2


@given(st.integers(1, 120), st.integers(0, 2**32), st.floats(0.01, 0.99), st.data())
@settings(max_examples=60)
def test_stream_and_vectorized_scans_agree(N, seed, delta, data):
    n = data.draw(st.integers(1, N))
    a = scan_srs_stream(range(N), N, n, delta, seed)
    b = scan_srs_indices(N, n, delta, seed)
    assert a == b


def test_scan_full_sample_always_succeeds():
    for seed in (0, 5, 123):
        result, _ = scan_srs(list("abcdef"), 6, 0.5, seed)
        assert result.success
        assert sorted(result.sample) == list("abcdef")
        assert result.q2 == 1.0


def test_scan_failure_is_a_result_not_an_exception():
    # seed found by search: 19 of the required 20 candidates survive
    result = scan_srs_indices(40, 20, 0.95, 42)
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
    result = scan_srs_indices(100_000, 100, 0.01, seed=3)
    assert result.success
    assert result.accepted_count + result.waitlist_count < 600
