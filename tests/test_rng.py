import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mrlab import rng

import references as ref

u64 = st.integers(0, 2**64 - 1)


GAMMA = 0x9E3779B97F4A7C15
# the first three outputs of the reference splitmix64 sequence seeded at 0
SEQUENCE = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_splitmix64_known_values():
    # golden values from the reference splitmix64 sequence seeded at 0:
    # the stream advances its state by the golden-ratio increment, so
    # output t equals the finalizer applied to t * increment
    states = np.array([0, GAMMA, 2 * GAMMA % 2**64], dtype=np.uint64)
    assert rng.splitmix64_array(states).tolist() == SEQUENCE
    assert [ref.splitmix64(int(s)) for s in states] == SEQUENCE


def test_counter_hash_known_values():
    # key 0's first round is the sequence's first output; a counter that
    # turns it into t * increment lands on output t + 1
    counters = [SEQUENCE[0] ^ GAMMA, SEQUENCE[0] ^ (2 * GAMMA % 2**64)]
    assert rng.counter_hash(0, np.array(counters, dtype=np.uint64)).tolist() == SEQUENCE[1:]
    # and pinned values of the composition itself
    pinned = {
        (0, 0): 0xA706DD2F4D197E6F,
        (0, 1): 0x08B4FDA8C892B50E,
        (1, 0): 0x5E41AB087439611E,
        (2**64 - 1, 2**64 - 1): 0x6309143E67A47936,
    }
    for (key, counter), value in pinned.items():
        assert rng.counter_hash(key, counter).tolist() == [value]
        assert ref.counter_hash(key, counter) == value


@given(st.integers(-(2**80), 2**80), st.integers(-(2**80), 2**80))
def test_keys_and_counters_are_taken_mod_2_64(key, counter):
    # seeds from 2**64 up and negative counters (a growth key's ~tree)
    expected = ref.counter_hash(key, counter)
    assert rng.counter_hash(key, counter).tolist() == [expected]
    assert rng.counter_hash(key % 2**64, counter % 2**64).tolist() == [expected]


@pytest.mark.parametrize(
    "keys, counters",
    [
        (np.uint64(2**64 - 1), np.int64(-1)),
        (np.array(2**64 - 1, dtype=np.uint64), np.array(-1)),
        (2**64 - 1, np.array(2**63, dtype=np.uint64)),
        (np.array([3], dtype=np.uint64), 2**64 + 7),
    ],
)
def test_scalar_like_input_draws_without_a_warning(keys, counters):
    # numpy scalar arithmetic warns on overflow; the primitive works on arrays
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = rng.counter_hash(keys, counters)
    assert out.shape == (1,) and out.dtype == np.uint64
    assert out[0] == ref.counter_hash(int(np.asarray(keys).ravel()[0]), int(np.asarray(counters).ravel()[0]))


def test_counter_hash_broadcasts_keys_against_counters():
    keys = np.array([[0], [5], [2**64 - 1]], dtype=np.uint64)
    counters = np.arange(4, dtype=np.uint64)
    out = rng.counter_hash(keys, counters)
    assert out.shape == (3, 4) and out.dtype == np.uint64
    expected = [[ref.counter_hash(k, c) for c in range(4)] for k in keys.ravel().tolist()]
    assert out.tolist() == expected
    assert rng.counter_hash(keys.ravel(), counters[:3]).tolist() == [expected[i][i] for i in range(3)]


def test_record_draws_shapes():
    assert rng.record_draws(9, 100, 6).shape == (6,)
    assert rng.record_draws(9, 0, 0).shape == (0,)
    keys = np.arange(6, dtype=np.uint64).reshape(2, 3)
    block = rng.record_draws(keys, 100, 4)
    assert block.shape == (2, 3, 4) and block.dtype == np.uint64
    for index, key in np.ndenumerate(keys):
        assert np.array_equal(block[index], rng.record_draws(int(key), 100, 4))
    assert int(block.max()) < 2**53


@given(st.integers(0, 2**70), st.integers(0, 2**63))
def test_record_uniform_in_unit_interval(seed, index):
    u = rng.record_uniforms(seed, index, 1)[0]
    assert 0.0 <= u < 1.0
    assert u == ref.record_uniform(seed, index)


@given(u64, st.integers(0, 10_000), st.integers(1, 300))
def test_vectorized_uniforms_match_scalar(seed, start, count):
    vec = rng.record_uniforms(seed, start, count)
    scalar = np.array([ref.record_uniform(seed, start + i) for i in range(count)])
    np.testing.assert_array_equal(vec, scalar)
    np.testing.assert_array_equal(rng.record_draws(seed, start, count) * 2.0**-53, vec)


def test_record_uniforms_are_roughly_uniform():
    u = rng.record_uniforms(123, 0, 200_000)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(np.mean(u < 0.25) - 0.25) < 0.005


def test_only_the_reservoir_sampler_draws_from_numpy_random():
    # Every other draw is a counter-based uniform keyed by its coordinates.
    package = Path(rng.__file__).parent
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py")) if path.name != "sampling.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if "np.random" in line or "default_rng" in line
    ]
    assert offenders == []
